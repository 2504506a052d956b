// Package wasm defines the in-memory representation of WebAssembly (MVP)
// modules used throughout AccTEE: value types, the full numeric/control/
// memory instruction set, module sections, and a programmatic builder that
// serves as the repository's compiler front-end for workloads.
//
// The representation mirrors the WebAssembly 1.0 core specification closely
// enough that the binary codec (internal/wasm/binary) and the text format
// (internal/wasm/wat) are straightforward projections of it.
package wasm

import "fmt"

// ValueType is a WebAssembly value type. The constants use the binary
// encoding bytes from the specification.
type ValueType byte

// Value types of the WebAssembly MVP.
const (
	I32 ValueType = 0x7F
	I64 ValueType = 0x7E
	F32 ValueType = 0x7D
	F64 ValueType = 0x7C
)

// String returns the text-format name of the value type.
func (v ValueType) String() string {
	switch v {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("valuetype(0x%02x)", byte(v))
}

// Valid reports whether v is one of the four MVP value types.
func (v ValueType) Valid() bool {
	return v == I32 || v == I64 || v == F32 || v == F64
}

// FuncType is a function signature.
type FuncType struct {
	Params  []ValueType
	Results []ValueType
}

// Equal reports whether two signatures are identical.
func (t FuncType) Equal(o FuncType) bool {
	if len(t.Params) != len(o.Params) || len(t.Results) != len(o.Results) {
		return false
	}
	for i, p := range t.Params {
		if o.Params[i] != p {
			return false
		}
	}
	for i, r := range t.Results {
		if o.Results[i] != r {
			return false
		}
	}
	return true
}

// String renders the signature in text-format style.
func (t FuncType) String() string {
	s := "(func"
	for _, p := range t.Params {
		s += " (param " + p.String() + ")"
	}
	for _, r := range t.Results {
		s += " (result " + r.String() + ")"
	}
	return s + ")"
}

// Limits bound a memory or table size, in units of pages or elements.
type Limits struct {
	Min    uint32
	Max    uint32
	HasMax bool
}

// PageSize is the WebAssembly linear memory page size in bytes.
const PageSize = 64 * 1024

// Memory declares a linear memory.
type Memory struct {
	Limits Limits
}

// Table declares a funcref table.
type Table struct {
	Limits Limits
}

// Global declares a module global variable. Init must be a constant
// expression (a single const instruction in this implementation).
type Global struct {
	Type    ValueType
	Mutable bool
	Init    Instr
	Name    string // optional, for text format round-trips and debugging
}

// Import declares an imported item. Only function imports are used by the
// AccTEE runtime, but memory imports are supported for side modules.
type Import struct {
	Module string
	Name   string
	// Kind selects which of the following fields applies.
	Kind     ExternalKind
	TypeIdx  uint32 // for functions: index into Module.Types
	MemLimit Limits // for memories
}

// ExternalKind identifies the kind of an import or export.
type ExternalKind byte

// Import/export kinds, matching the binary encoding.
const (
	ExternalFunc   ExternalKind = 0
	ExternalTable  ExternalKind = 1
	ExternalMemory ExternalKind = 2
	ExternalGlobal ExternalKind = 3
)

// Export declares an exported item.
type Export struct {
	Name string
	Kind ExternalKind
	Idx  uint32
}

// Func is a function defined inside the module (not imported).
type Func struct {
	TypeIdx uint32
	Locals  []ValueType // locals beyond the parameters
	Body    []Instr     // flat structured code, terminated by OpEnd
	// BrTables holds the targets of the body's br_table instructions: a
	// br_table's Idx indexes it, and the final entry of each table is the
	// default label.
	BrTables [][]uint32
	Name     string // optional
}

// BrTable returns the targets of the br_table instruction in, the default
// label last, or nil when in.Idx is outside f.BrTables.
func (f *Func) BrTable(in Instr) []uint32 {
	if int(in.Idx) >= len(f.BrTables) {
		return nil
	}
	return f.BrTables[in.Idx]
}

// AddBrTable appends a br_table's targets (the default label last) to
// f.BrTables and returns the br_table instruction that selects them.
func (f *Func) AddBrTable(targets ...uint32) Instr {
	f.BrTables = append(f.BrTables, targets)
	return Instr{Op: OpBrTable, Idx: uint32(len(f.BrTables) - 1)}
}

// Element initialises a span of a table with function indices.
type Element struct {
	Offset Instr // constant expression (i32.const)
	Funcs  []uint32
}

// Data initialises a span of linear memory.
type Data struct {
	Offset Instr // constant expression (i32.const)
	Bytes  []byte
}

// Module is a complete WebAssembly module.
type Module struct {
	Types    []FuncType
	Imports  []Import
	Funcs    []Func
	Tables   []Table
	Memories []Memory
	Globals  []Global
	Exports  []Export
	Elements []Element
	Data     []Data
	Start    *uint32
	Name     string // optional module name
}

// NumImportedFuncs returns the count of imported functions; defined function
// index space starts after them.
func (m *Module) NumImportedFuncs() int {
	n := 0
	for _, im := range m.Imports {
		if im.Kind == ExternalFunc {
			n++
		}
	}
	return n
}

// FuncTypeAt resolves the signature of the function with the given index in
// the combined (imports-first) function index space.
func (m *Module) FuncTypeAt(idx uint32) (FuncType, error) {
	ni := 0
	for _, im := range m.Imports {
		if im.Kind != ExternalFunc {
			continue
		}
		if uint32(ni) == idx {
			if int(im.TypeIdx) >= len(m.Types) {
				return FuncType{}, fmt.Errorf("import %s.%s: type index %d out of range", im.Module, im.Name, im.TypeIdx)
			}
			return m.Types[im.TypeIdx], nil
		}
		ni++
	}
	di := int(idx) - ni
	if di < 0 || di >= len(m.Funcs) {
		return FuncType{}, fmt.Errorf("function index %d out of range", idx)
	}
	ti := m.Funcs[di].TypeIdx
	if int(ti) >= len(m.Types) {
		return FuncType{}, fmt.Errorf("func %d: type index %d out of range", idx, ti)
	}
	return m.Types[ti], nil
}

// ExportedFunc looks up an exported function by name and returns its index
// in the function index space.
func (m *Module) ExportedFunc(name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == ExternalFunc && e.Name == name {
			return e.Idx, true
		}
	}
	return 0, false
}

// AddType interns a signature, returning its index.
func (m *Module) AddType(t FuncType) uint32 {
	for i, existing := range m.Types {
		if existing.Equal(t) {
			return uint32(i)
		}
	}
	m.Types = append(m.Types, t)
	return uint32(len(m.Types) - 1)
}

// GlobalNames returns the set of global names already present, used by the
// instrumenter to pick a fresh counter name (§3.5 of the paper).
func (m *Module) GlobalNames() map[string]bool {
	names := make(map[string]bool, len(m.Globals))
	for _, g := range m.Globals {
		if g.Name != "" {
			names[g.Name] = true
		}
	}
	return names
}

// Clone returns a deep copy of the module. Instrumentation operates on a
// copy so the caller's module is never mutated.
func (m *Module) Clone() *Module {
	c := &Module{Name: m.Name}
	if len(m.Types) > 0 {
		c.Types = make([]FuncType, len(m.Types))
	}
	for i, t := range m.Types {
		c.Types[i] = FuncType{
			Params:  append([]ValueType(nil), t.Params...),
			Results: append([]ValueType(nil), t.Results...),
		}
	}
	c.Imports = append([]Import(nil), m.Imports...)
	if len(m.Funcs) > 0 {
		c.Funcs = make([]Func, len(m.Funcs))
	}
	for i, f := range m.Funcs {
		nf := Func{TypeIdx: f.TypeIdx, Name: f.Name}
		nf.Locals = append([]ValueType(nil), f.Locals...)
		nf.Body = make([]Instr, len(f.Body))
		copy(nf.Body, f.Body)
		if len(f.BrTables) > 0 {
			nf.BrTables = make([][]uint32, len(f.BrTables))
			for j, t := range f.BrTables {
				nf.BrTables[j] = append([]uint32(nil), t...)
			}
		}
		c.Funcs[i] = nf
	}
	c.Tables = append([]Table(nil), m.Tables...)
	c.Memories = append([]Memory(nil), m.Memories...)
	c.Globals = append([]Global(nil), m.Globals...)
	c.Exports = append([]Export(nil), m.Exports...)
	if len(m.Elements) > 0 {
		c.Elements = make([]Element, len(m.Elements))
		for i, e := range m.Elements {
			c.Elements[i] = Element{Offset: e.Offset, Funcs: append([]uint32(nil), e.Funcs...)}
		}
	}
	if len(m.Data) > 0 {
		c.Data = make([]Data, len(m.Data))
		for i, d := range m.Data {
			c.Data[i] = Data{Offset: d.Offset, Bytes: append([]byte(nil), d.Bytes...)}
		}
	}
	if m.Start != nil {
		s := *m.Start
		c.Start = &s
	}
	return c
}
