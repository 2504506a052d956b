package wasm

import "fmt"

// ModuleBuilder assembles a Module programmatically. It is the repository's
// stand-in for the paper's Emscripten/rustc/go compilers (§5): workloads are
// authored directly against this API and produce ordinary Wasm modules that
// go through the same instrumentation, validation, encoding and execution
// pipeline a compiled binary would.
type ModuleBuilder struct {
	m    *Module
	errs []error
}

// NewModule returns an empty module builder.
func NewModule(name string) *ModuleBuilder {
	return &ModuleBuilder{m: &Module{Name: name}}
}

// ImportFunc adds a function import and returns its function index.
// All function imports must be added before the first defined function.
func (b *ModuleBuilder) ImportFunc(module, name string, params, results []ValueType) uint32 {
	if len(b.m.Funcs) > 0 {
		b.errs = append(b.errs, fmt.Errorf("import %s.%s added after defined functions", module, name))
	}
	ti := b.m.AddType(FuncType{Params: params, Results: results})
	b.m.Imports = append(b.m.Imports, Import{Module: module, Name: name, Kind: ExternalFunc, TypeIdx: ti})
	return uint32(b.m.NumImportedFuncs() - 1)
}

// Memory declares the module's linear memory (pages of 64 KiB) and exports
// it under the name "memory".
func (b *ModuleBuilder) Memory(minPages, maxPages uint32) {
	b.m.Memories = append(b.m.Memories, Memory{Limits: Limits{Min: minPages, Max: maxPages, HasMax: maxPages > 0}})
	b.m.Exports = append(b.m.Exports, Export{Name: "memory", Kind: ExternalMemory, Idx: uint32(len(b.m.Memories) - 1)})
}

// Global adds a module global and returns its index.
func (b *ModuleBuilder) Global(name string, t ValueType, mutable bool, init Instr) uint32 {
	b.m.Globals = append(b.m.Globals, Global{Type: t, Mutable: mutable, Init: init, Name: name})
	return uint32(len(b.m.Globals) - 1)
}

// Data adds a data segment at the given linear-memory offset.
func (b *ModuleBuilder) Data(offset int32, bytes []byte) {
	b.m.Data = append(b.m.Data, Data{Offset: ConstI32(offset), Bytes: bytes})
}

// Table declares a funcref table with the given element entries starting at
// offset 0, as produced for call_indirect dispatch.
func (b *ModuleBuilder) Table(funcs ...uint32) {
	n := uint32(len(funcs))
	b.m.Tables = append(b.m.Tables, Table{Limits: Limits{Min: n, Max: n, HasMax: true}})
	if n > 0 {
		b.m.Elements = append(b.m.Elements, Element{Offset: ConstI32(0), Funcs: funcs})
	}
}

// Func starts a new defined function and returns its builder. The function
// index (in the combined index space) is available immediately so bodies may
// recursively call the function being defined.
func (b *ModuleBuilder) Func(name string, params, results []ValueType) *FuncBuilder {
	ti := b.m.AddType(FuncType{Params: params, Results: results})
	b.m.Funcs = append(b.m.Funcs, Func{TypeIdx: ti, Name: name})
	idx := uint32(b.m.NumImportedFuncs() + len(b.m.Funcs) - 1)
	return &FuncBuilder{
		mb:      b,
		slot:    len(b.m.Funcs) - 1,
		Index:   idx,
		nparams: len(params),
	}
}

// TypeIndex interns a signature and returns its type index, as needed for
// call_indirect immediates.
func (b *ModuleBuilder) TypeIndex(params, results []ValueType) uint32 {
	return b.m.AddType(FuncType{Params: params, Results: results})
}

// ExportFunc exports the function with the given index.
func (b *ModuleBuilder) ExportFunc(name string, idx uint32) {
	b.m.Exports = append(b.m.Exports, Export{Name: name, Kind: ExternalFunc, Idx: idx})
}

// Build finalises and returns the module, reporting any deferred builder
// errors (unbalanced blocks, imports after functions, ...).
func (b *ModuleBuilder) Build() (*Module, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for i := range b.m.Funcs {
		if err := ValidateStructure(b.m.Funcs[i].Body); err != nil {
			return nil, fmt.Errorf("func %q: %w", b.m.Funcs[i].Name, err)
		}
	}
	return b.m, nil
}

// MustBuild is Build for tests and statically-known-good generators; it
// panics on error (program-construction bugs, not runtime conditions).
func (b *ModuleBuilder) MustBuild() *Module {
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// FuncBuilder accumulates the flat body of one function. Structured helpers
// (Block/Loop/If/ForI32) keep label depths correct so workload authors never
// hand-count branch targets.
type FuncBuilder struct {
	mb      *ModuleBuilder
	slot    int
	Index   uint32
	nparams int
	depth   int
	code    []Instr
	closed  bool
}

// Local declares an extra local of type t and returns its index.
func (f *FuncBuilder) Local(t ValueType) uint32 {
	fn := &f.mb.m.Funcs[f.slot]
	fn.Locals = append(fn.Locals, t)
	return uint32(f.nparams + len(fn.Locals) - 1)
}

// Emit appends raw instructions.
func (f *FuncBuilder) Emit(ins ...Instr) *FuncBuilder {
	f.code = append(f.code, ins...)
	return f
}

// Op appends a no-immediate instruction.
func (f *FuncBuilder) Op(op Opcode) *FuncBuilder { return f.Emit(Instr{Op: op}) }

// I32Const pushes an i32 constant.
func (f *FuncBuilder) I32Const(v int32) *FuncBuilder { return f.Emit(ConstI32(v)) }

// I64ConstV pushes an i64 constant.
func (f *FuncBuilder) I64ConstV(v int64) *FuncBuilder { return f.Emit(ConstI64(v)) }

// F32ConstV pushes an f32 constant.
func (f *FuncBuilder) F32ConstV(v float32) *FuncBuilder { return f.Emit(ConstF32(v)) }

// F64ConstV pushes an f64 constant.
func (f *FuncBuilder) F64ConstV(v float64) *FuncBuilder { return f.Emit(ConstF64(v)) }

// LocalGet pushes a local.
func (f *FuncBuilder) LocalGet(i uint32) *FuncBuilder { return f.Emit(WithIdx(OpLocalGet, i)) }

// LocalSet pops into a local.
func (f *FuncBuilder) LocalSet(i uint32) *FuncBuilder { return f.Emit(WithIdx(OpLocalSet, i)) }

// LocalTee stores the top of stack into a local, keeping it on the stack.
func (f *FuncBuilder) LocalTee(i uint32) *FuncBuilder { return f.Emit(WithIdx(OpLocalTee, i)) }

// GlobalGet pushes a global.
func (f *FuncBuilder) GlobalGet(i uint32) *FuncBuilder { return f.Emit(WithIdx(OpGlobalGet, i)) }

// GlobalSet pops into a global.
func (f *FuncBuilder) GlobalSet(i uint32) *FuncBuilder { return f.Emit(WithIdx(OpGlobalSet, i)) }

// Call invokes a function by index.
func (f *FuncBuilder) Call(idx uint32) *FuncBuilder { return f.Emit(WithIdx(OpCall, idx)) }

// Load emits a load with the given memarg offset.
func (f *FuncBuilder) Load(op Opcode, offset uint32) *FuncBuilder {
	return f.Emit(Instr{Op: op, Align: NaturalAlign(op), U64: uint64(offset)})
}

// Store emits a store with the given memarg offset.
func (f *FuncBuilder) Store(op Opcode, offset uint32) *FuncBuilder {
	return f.Emit(Instr{Op: op, Align: NaturalAlign(op), U64: uint64(offset)})
}

// NaturalAlign returns the natural alignment exponent of a memory
// instruction (log2 of the access width in bytes).
func NaturalAlign(op Opcode) byte {
	switch op {
	case OpI32Load8S, OpI32Load8U, OpI64Load8S, OpI64Load8U, OpI32Store8, OpI64Store8:
		return 0
	case OpI32Load16S, OpI32Load16U, OpI64Load16S, OpI64Load16U, OpI32Store16, OpI64Store16:
		return 1
	case OpI32Load, OpF32Load, OpI32Store, OpF32Store, OpI64Load32S, OpI64Load32U, OpI64Store32:
		return 2
	default:
		return 3
	}
}

// Block opens a block, runs body, and closes it.
func (f *FuncBuilder) Block(bt BlockType, body func()) *FuncBuilder {
	f.Emit(Instr{Op: OpBlock, BT: bt})
	f.depth++
	body()
	f.depth--
	return f.Op(OpEnd)
}

// Loop opens a loop, runs body, and closes it. Branch depth 0 inside body
// (relative to the loop) jumps back to the loop header.
func (f *FuncBuilder) Loop(bt BlockType, body func()) *FuncBuilder {
	f.Emit(Instr{Op: OpLoop, BT: bt})
	f.depth++
	body()
	f.depth--
	return f.Op(OpEnd)
}

// If emits if/else/end around the two branches; els may be nil.
func (f *FuncBuilder) If(bt BlockType, then func(), els func()) *FuncBuilder {
	f.Emit(Instr{Op: OpIf, BT: bt})
	f.depth++
	then()
	if els != nil {
		f.Op(OpElse)
		els()
	}
	f.depth--
	return f.Op(OpEnd)
}

// Br emits an unconditional branch to the given relative label depth.
func (f *FuncBuilder) Br(depth uint32) *FuncBuilder { return f.Emit(WithIdx(OpBr, depth)) }

// BrIf emits a conditional branch to the given relative label depth.
func (f *FuncBuilder) BrIf(depth uint32) *FuncBuilder { return f.Emit(WithIdx(OpBrIf, depth)) }

// BrTable emits a br_table over the given relative label depths, the
// default label last.
func (f *FuncBuilder) BrTable(depths ...uint32) *FuncBuilder {
	return f.Emit(f.mb.m.Funcs[f.slot].AddBrTable(depths...))
}

// Return emits an early return.
func (f *FuncBuilder) Return() *FuncBuilder { return f.Op(OpReturn) }

// ForI32 emits a canonical counted loop over an i32 local:
//
//	for idx = start; idx < limit; idx += step { body }
//
// start and limit are instruction sequences that each push one i32. The
// shape matches what C compilers emit and is exactly the single-write
// loop-variable pattern the paper's loop-based optimisation targets (§3.6).
func (f *FuncBuilder) ForI32(idx uint32, start, limit []Instr, step int32, body func()) *FuncBuilder {
	f.Emit(start...)
	f.LocalSet(idx)
	f.Block(BlockEmpty, func() {
		f.Loop(BlockEmpty, func() {
			// exit when idx >= limit
			f.LocalGet(idx)
			f.Emit(limit...)
			f.Op(OpI32GeS)
			f.BrIf(1)
			body()
			f.LocalGet(idx).I32Const(step).Op(OpI32Add).LocalSet(idx)
			f.Br(0)
		})
	})
	return f
}

// While emits a loop that keeps iterating while cond pushes a non-zero i32.
func (f *FuncBuilder) While(cond func(), body func()) *FuncBuilder {
	f.Block(BlockEmpty, func() {
		f.Loop(BlockEmpty, func() {
			cond()
			f.Op(OpI32Eqz)
			f.BrIf(1)
			body()
			f.Br(0)
		})
	})
	return f
}

// BodyLen returns the number of instructions emitted so far, for use with
// TakeFrom when a DSL needs to capture an emitted sub-sequence.
func (f *FuncBuilder) BodyLen() int { return len(f.code) }

// TakeFrom removes and returns the instructions emitted since the given
// mark (a prior BodyLen result).
func (f *FuncBuilder) TakeFrom(mark int) []Instr {
	out := append([]Instr(nil), f.code[mark:]...)
	f.code = f.code[:mark]
	return out
}

// End finalises the function body with the trailing end opcode and writes it
// into the module. It must be called exactly once per FuncBuilder.
func (f *FuncBuilder) End() uint32 {
	if f.closed {
		f.mb.errs = append(f.mb.errs, fmt.Errorf("func %q: End called twice", f.mb.m.Funcs[f.slot].Name))
		return f.Index
	}
	f.closed = true
	f.code = append(f.code, Instr{Op: OpEnd})
	f.mb.m.Funcs[f.slot].Body = f.code
	return f.Index
}
