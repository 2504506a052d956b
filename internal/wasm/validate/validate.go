// Package validate implements WebAssembly module validation (stack typing,
// label discipline, index bounds). AccTEE validates modules twice: the
// instrumentation enclave validates its input before instrumenting, and the
// accounting enclave validates the instrumented module before execution —
// the language-based half of the two-way sandbox depends on it.
package validate

import (
	"fmt"

	"acctee/internal/wasm"
)

// Module validates an entire module.
func Module(m *wasm.Module) error {
	for i, t := range m.Types {
		for _, v := range append(append([]wasm.ValueType{}, t.Params...), t.Results...) {
			if !v.Valid() {
				return fmt.Errorf("validate: type %d: invalid value type", i)
			}
		}
		if len(t.Results) > 1 {
			return fmt.Errorf("validate: type %d: multiple results not supported in MVP", i)
		}
	}
	for i, im := range m.Imports {
		if im.Kind == wasm.ExternalFunc && int(im.TypeIdx) >= len(m.Types) {
			return fmt.Errorf("validate: import %d: type index out of range", i)
		}
	}
	if len(m.Memories) > 1 {
		return fmt.Errorf("validate: at most one memory allowed")
	}
	for i, g := range m.Globals {
		if !g.Type.Valid() {
			return fmt.Errorf("validate: global %d: invalid type", i)
		}
		if ct, ok := constType(g.Init.Op); !ok || ct != g.Type {
			return fmt.Errorf("validate: global %d: init type mismatch", i)
		}
	}
	nfuncs := uint32(m.NumImportedFuncs() + len(m.Funcs))
	for i, e := range m.Exports {
		switch e.Kind {
		case wasm.ExternalFunc:
			if e.Idx >= nfuncs {
				return fmt.Errorf("validate: export %d: function index out of range", i)
			}
		case wasm.ExternalMemory:
			if int(e.Idx) >= len(m.Memories) && !hasMemImport(m) {
				return fmt.Errorf("validate: export %d: memory index out of range", i)
			}
		case wasm.ExternalGlobal:
			if int(e.Idx) >= len(m.Globals) {
				return fmt.Errorf("validate: export %d: global index out of range", i)
			}
		}
	}
	for i, e := range m.Elements {
		if len(m.Tables) == 0 {
			return fmt.Errorf("validate: element %d: no table", i)
		}
		for _, f := range e.Funcs {
			if f >= nfuncs {
				return fmt.Errorf("validate: element %d: function index %d out of range", i, f)
			}
		}
	}
	if m.Start != nil {
		t, err := m.FuncTypeAt(*m.Start)
		if err != nil {
			return fmt.Errorf("validate: start: %w", err)
		}
		if len(t.Params) != 0 || len(t.Results) != 0 {
			return fmt.Errorf("validate: start function must have empty signature")
		}
	}
	for i := range m.Funcs {
		idx := uint32(m.NumImportedFuncs() + i)
		if err := function(m, idx, &m.Funcs[i]); err != nil {
			name := m.Funcs[i].Name
			if name == "" {
				name = fmt.Sprintf("#%d", idx)
			}
			return fmt.Errorf("validate: func %s: %w", name, err)
		}
	}
	return nil
}

func hasMemImport(m *wasm.Module) bool {
	for _, im := range m.Imports {
		if im.Kind == wasm.ExternalMemory {
			return true
		}
	}
	return false
}

func constType(op wasm.Opcode) (wasm.ValueType, bool) {
	switch op {
	case wasm.OpI32Const:
		return wasm.I32, true
	case wasm.OpI64Const:
		return wasm.I64, true
	case wasm.OpF32Const:
		return wasm.F32, true
	case wasm.OpF64Const:
		return wasm.F64, true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// function body validation: the classic two-stack algorithm from the spec.

type ctrlFrame struct {
	op          wasm.Opcode // Block / Loop / If / "func" marker (OpEnd)
	result      wasm.BlockType
	stackHeight int
	unreachable bool
}

type checker struct {
	m      *wasm.Module
	f      *wasm.Func
	locals []wasm.ValueType
	stack  []wasm.ValueType
	ctrl   []ctrlFrame
}

const anyType wasm.ValueType = 0 // wildcard produced in unreachable code

func function(m *wasm.Module, idx uint32, f *wasm.Func) error {
	if int(f.TypeIdx) >= len(m.Types) {
		return fmt.Errorf("type index out of range")
	}
	ft := m.Types[f.TypeIdx]
	if err := wasm.ValidateStructure(f.Body); err != nil {
		return err
	}
	c := &checker{m: m, f: f}
	c.locals = append(c.locals, ft.Params...)
	c.locals = append(c.locals, f.Locals...)
	resBT := wasm.BlockEmpty
	if len(ft.Results) == 1 {
		resBT = wasm.BlockOf(ft.Results[0])
	}
	c.ctrl = append(c.ctrl, ctrlFrame{op: wasm.OpEnd, result: resBT})
	for pc, in := range f.Body {
		if err := c.instr(in, ft); err != nil {
			return fmt.Errorf("instr %d (%s): %w", pc, in.Op, err)
		}
		if len(c.ctrl) == 0 {
			if pc != len(f.Body)-1 {
				return fmt.Errorf("instr %d: code after function end", pc)
			}
		}
	}
	if len(c.ctrl) != 0 {
		return fmt.Errorf("control frames not closed")
	}
	return nil
}

func (c *checker) push(t wasm.ValueType) { c.stack = append(c.stack, t) }

func (c *checker) pop(want wasm.ValueType) error {
	fr := &c.ctrl[len(c.ctrl)-1]
	if len(c.stack) == fr.stackHeight {
		if fr.unreachable {
			return nil // polymorphic stack
		}
		return fmt.Errorf("stack underflow, want %s", want)
	}
	got := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	if want != anyType && got != anyType && got != want {
		return fmt.Errorf("type mismatch: got %s, want %s", got, want)
	}
	return nil
}

func (c *checker) popAny() (wasm.ValueType, error) {
	fr := &c.ctrl[len(c.ctrl)-1]
	if len(c.stack) == fr.stackHeight {
		if fr.unreachable {
			return anyType, nil
		}
		return 0, fmt.Errorf("stack underflow")
	}
	got := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	return got, nil
}

func (c *checker) setUnreachable() {
	fr := &c.ctrl[len(c.ctrl)-1]
	c.stack = c.stack[:fr.stackHeight]
	fr.unreachable = true
}

// labelType returns the type that a branch to the label at relative depth d
// must provide: loops take no values (branch to header), others take the
// block result.
func (c *checker) labelType(d uint32) (wasm.BlockType, error) {
	if int(d) >= len(c.ctrl) {
		return 0, fmt.Errorf("branch depth %d exceeds nesting %d", d, len(c.ctrl))
	}
	fr := c.ctrl[len(c.ctrl)-1-int(d)]
	if fr.op == wasm.OpLoop {
		return wasm.BlockEmpty, nil
	}
	return fr.result, nil
}

func (c *checker) instr(in wasm.Instr, ft wasm.FuncType) error {
	op := in.Op
	switch op {
	case wasm.OpNop:
		return nil
	case wasm.OpUnreachable:
		c.setUnreachable()
		return nil
	case wasm.OpBlock, wasm.OpLoop:
		c.ctrl = append(c.ctrl, ctrlFrame{op: op, result: in.BT, stackHeight: len(c.stack)})
		return nil
	case wasm.OpIf:
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		c.ctrl = append(c.ctrl, ctrlFrame{op: op, result: in.BT, stackHeight: len(c.stack)})
		return nil
	case wasm.OpElse:
		fr := c.ctrl[len(c.ctrl)-1]
		if fr.op != wasm.OpIf {
			return fmt.Errorf("else without if")
		}
		if err := c.closeFrame(fr); err != nil {
			return err
		}
		c.ctrl[len(c.ctrl)-1] = ctrlFrame{op: wasm.OpElse, result: fr.result, stackHeight: fr.stackHeight}
		return nil
	case wasm.OpEnd:
		fr := c.ctrl[len(c.ctrl)-1]
		if err := c.closeFrame(fr); err != nil {
			return err
		}
		if fr.op == wasm.OpIf {
			// An if without else must produce no value.
			if _, has := fr.result.Value(); has {
				return fmt.Errorf("if with result type requires else")
			}
		}
		c.ctrl = c.ctrl[:len(c.ctrl)-1]
		if v, ok := fr.result.Value(); ok {
			c.push(v)
		}
		return nil
	case wasm.OpBr:
		bt, err := c.labelType(in.Idx)
		if err != nil {
			return err
		}
		if v, ok := bt.Value(); ok {
			if err := c.pop(v); err != nil {
				return err
			}
		}
		c.setUnreachable()
		return nil
	case wasm.OpBrIf:
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		bt, err := c.labelType(in.Idx)
		if err != nil {
			return err
		}
		if v, ok := bt.Value(); ok {
			if err := c.pop(v); err != nil {
				return err
			}
			c.push(v)
		}
		return nil
	case wasm.OpBrTable:
		if int(in.Idx) >= len(c.f.BrTables) {
			return fmt.Errorf("br_table targets %d out of range (%d tables)", in.Idx, len(c.f.BrTables))
		}
		targets := c.f.BrTables[in.Idx]
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		if len(targets) == 0 {
			return fmt.Errorf("br_table without targets")
		}
		def, err := c.labelType(targets[len(targets)-1])
		if err != nil {
			return err
		}
		for _, t := range targets[:len(targets)-1] {
			bt, err := c.labelType(t)
			if err != nil {
				return err
			}
			if bt != def {
				return fmt.Errorf("br_table targets have mismatched types")
			}
		}
		if v, ok := def.Value(); ok {
			if err := c.pop(v); err != nil {
				return err
			}
		}
		c.setUnreachable()
		return nil
	case wasm.OpReturn:
		if len(ft.Results) == 1 {
			if err := c.pop(ft.Results[0]); err != nil {
				return err
			}
		}
		c.setUnreachable()
		return nil
	case wasm.OpCall:
		t, err := c.m.FuncTypeAt(in.Idx)
		if err != nil {
			return err
		}
		return c.applySig(t)
	case wasm.OpCallIndirect:
		if len(c.m.Tables) == 0 {
			return fmt.Errorf("call_indirect without table")
		}
		if int(in.Idx) >= len(c.m.Types) {
			return fmt.Errorf("call_indirect type index out of range")
		}
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		return c.applySig(c.m.Types[in.Idx])
	case wasm.OpDrop:
		_, err := c.popAny()
		return err
	case wasm.OpSelect:
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		t1, err := c.popAny()
		if err != nil {
			return err
		}
		t2, err := c.popAny()
		if err != nil {
			return err
		}
		if t1 != anyType && t2 != anyType && t1 != t2 {
			return fmt.Errorf("select operands differ: %s vs %s", t1, t2)
		}
		if t1 == anyType {
			t1 = t2
		}
		c.push(t1)
		return nil
	case wasm.OpLocalGet:
		t, err := c.localType(in.Idx)
		if err != nil {
			return err
		}
		c.push(t)
		return nil
	case wasm.OpLocalSet:
		t, err := c.localType(in.Idx)
		if err != nil {
			return err
		}
		return c.pop(t)
	case wasm.OpLocalTee:
		t, err := c.localType(in.Idx)
		if err != nil {
			return err
		}
		if err := c.pop(t); err != nil {
			return err
		}
		c.push(t)
		return nil
	case wasm.OpGlobalGet:
		if int(in.Idx) >= len(c.m.Globals) {
			return fmt.Errorf("global index %d out of range", in.Idx)
		}
		c.push(c.m.Globals[in.Idx].Type)
		return nil
	case wasm.OpGlobalSet:
		if int(in.Idx) >= len(c.m.Globals) {
			return fmt.Errorf("global index %d out of range", in.Idx)
		}
		if !c.m.Globals[in.Idx].Mutable {
			return fmt.Errorf("global %d is immutable", in.Idx)
		}
		return c.pop(c.m.Globals[in.Idx].Type)
	case wasm.OpMemorySize:
		if err := c.requireMemory(); err != nil {
			return err
		}
		c.push(wasm.I32)
		return nil
	case wasm.OpMemoryGrow:
		if err := c.requireMemory(); err != nil {
			return err
		}
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		c.push(wasm.I32)
		return nil
	case wasm.OpI32Const:
		c.push(wasm.I32)
		return nil
	case wasm.OpI64Const:
		c.push(wasm.I64)
		return nil
	case wasm.OpF32Const:
		c.push(wasm.F32)
		return nil
	case wasm.OpF64Const:
		c.push(wasm.F64)
		return nil
	}
	if op.IsMemAccess() {
		if err := c.requireMemory(); err != nil {
			return err
		}
		width, vt, store := memAccessInfo(op)
		if uint32(in.Align) > width {
			return fmt.Errorf("alignment 2^%d larger than access width", in.Align)
		}
		if store {
			if err := c.pop(vt); err != nil {
				return err
			}
			return c.pop(wasm.I32)
		}
		if err := c.pop(wasm.I32); err != nil {
			return err
		}
		c.push(vt)
		return nil
	}
	if sig, ok := numericSigs[op]; ok {
		for i := len(sig.in) - 1; i >= 0; i-- {
			if err := c.pop(sig.in[i]); err != nil {
				return err
			}
		}
		c.push(sig.out)
		return nil
	}
	return fmt.Errorf("unhandled opcode")
}

func (c *checker) requireMemory() error {
	if len(c.m.Memories) == 0 && !hasMemImport(c.m) {
		return fmt.Errorf("no memory declared")
	}
	return nil
}

func (c *checker) localType(idx uint32) (wasm.ValueType, error) {
	if int(idx) >= len(c.locals) {
		return 0, fmt.Errorf("local index %d out of range", idx)
	}
	return c.locals[idx], nil
}

func (c *checker) applySig(t wasm.FuncType) error {
	for i := len(t.Params) - 1; i >= 0; i-- {
		if err := c.pop(t.Params[i]); err != nil {
			return err
		}
	}
	for _, r := range t.Results {
		c.push(r)
	}
	return nil
}

// closeFrame checks the stack against the frame's result at a block end
// or else boundary and resets the stack to the frame's entry height.
func (c *checker) closeFrame(fr ctrlFrame) error {
	if v, ok := fr.result.Value(); ok {
		if err := c.pop(v); err != nil {
			return err
		}
	}
	if len(c.stack) != fr.stackHeight && !fr.unreachable {
		return fmt.Errorf("block leaves %d extra values on stack", len(c.stack)-fr.stackHeight)
	}
	c.stack = c.stack[:fr.stackHeight]
	return nil
}

// memAccessInfo returns (log2 width, value type, isStore).
func memAccessInfo(op wasm.Opcode) (uint32, wasm.ValueType, bool) {
	switch op {
	case wasm.OpI32Load:
		return 2, wasm.I32, false
	case wasm.OpI64Load:
		return 3, wasm.I64, false
	case wasm.OpF32Load:
		return 2, wasm.F32, false
	case wasm.OpF64Load:
		return 3, wasm.F64, false
	case wasm.OpI32Load8S, wasm.OpI32Load8U:
		return 0, wasm.I32, false
	case wasm.OpI32Load16S, wasm.OpI32Load16U:
		return 1, wasm.I32, false
	case wasm.OpI64Load8S, wasm.OpI64Load8U:
		return 0, wasm.I64, false
	case wasm.OpI64Load16S, wasm.OpI64Load16U:
		return 1, wasm.I64, false
	case wasm.OpI64Load32S, wasm.OpI64Load32U:
		return 2, wasm.I64, false
	case wasm.OpI32Store:
		return 2, wasm.I32, true
	case wasm.OpI64Store:
		return 3, wasm.I64, true
	case wasm.OpF32Store:
		return 2, wasm.F32, true
	case wasm.OpF64Store:
		return 3, wasm.F64, true
	case wasm.OpI32Store8:
		return 0, wasm.I32, true
	case wasm.OpI32Store16:
		return 1, wasm.I32, true
	case wasm.OpI64Store8:
		return 0, wasm.I64, true
	case wasm.OpI64Store16:
		return 1, wasm.I64, true
	case wasm.OpI64Store32:
		return 2, wasm.I64, true
	}
	return 0, 0, false
}

type numSig struct {
	in  []wasm.ValueType
	out wasm.ValueType
}

func sig(out wasm.ValueType, in ...wasm.ValueType) numSig { return numSig{in: in, out: out} }

var numericSigs = buildNumericSigs()

func buildNumericSigs() map[wasm.Opcode]numSig {
	m := map[wasm.Opcode]numSig{}
	// i32 comparisons
	m[wasm.OpI32Eqz] = sig(wasm.I32, wasm.I32)
	for op := wasm.OpI32Eq; op <= wasm.OpI32GeU; op++ {
		m[op] = sig(wasm.I32, wasm.I32, wasm.I32)
	}
	m[wasm.OpI64Eqz] = sig(wasm.I32, wasm.I64)
	for op := wasm.OpI64Eq; op <= wasm.OpI64GeU; op++ {
		m[op] = sig(wasm.I32, wasm.I64, wasm.I64)
	}
	for op := wasm.OpF32Eq; op <= wasm.OpF32Ge; op++ {
		m[op] = sig(wasm.I32, wasm.F32, wasm.F32)
	}
	for op := wasm.OpF64Eq; op <= wasm.OpF64Ge; op++ {
		m[op] = sig(wasm.I32, wasm.F64, wasm.F64)
	}
	// i32 numeric
	for _, op := range []wasm.Opcode{wasm.OpI32Clz, wasm.OpI32Ctz, wasm.OpI32Popcnt} {
		m[op] = sig(wasm.I32, wasm.I32)
	}
	for op := wasm.OpI32Add; op <= wasm.OpI32Rotr; op++ {
		m[op] = sig(wasm.I32, wasm.I32, wasm.I32)
	}
	for _, op := range []wasm.Opcode{wasm.OpI64Clz, wasm.OpI64Ctz, wasm.OpI64Popcnt} {
		m[op] = sig(wasm.I64, wasm.I64)
	}
	for op := wasm.OpI64Add; op <= wasm.OpI64Rotr; op++ {
		m[op] = sig(wasm.I64, wasm.I64, wasm.I64)
	}
	for op := wasm.OpF32Abs; op <= wasm.OpF32Sqrt; op++ {
		m[op] = sig(wasm.F32, wasm.F32)
	}
	for op := wasm.OpF32Add; op <= wasm.OpF32Copysign; op++ {
		m[op] = sig(wasm.F32, wasm.F32, wasm.F32)
	}
	for op := wasm.OpF64Abs; op <= wasm.OpF64Sqrt; op++ {
		m[op] = sig(wasm.F64, wasm.F64)
	}
	for op := wasm.OpF64Add; op <= wasm.OpF64Copysign; op++ {
		m[op] = sig(wasm.F64, wasm.F64, wasm.F64)
	}
	// conversions
	m[wasm.OpI32WrapI64] = sig(wasm.I32, wasm.I64)
	m[wasm.OpI32TruncF32S] = sig(wasm.I32, wasm.F32)
	m[wasm.OpI32TruncF32U] = sig(wasm.I32, wasm.F32)
	m[wasm.OpI32TruncF64S] = sig(wasm.I32, wasm.F64)
	m[wasm.OpI32TruncF64U] = sig(wasm.I32, wasm.F64)
	m[wasm.OpI64ExtendI32S] = sig(wasm.I64, wasm.I32)
	m[wasm.OpI64ExtendI32U] = sig(wasm.I64, wasm.I32)
	m[wasm.OpI64TruncF32S] = sig(wasm.I64, wasm.F32)
	m[wasm.OpI64TruncF32U] = sig(wasm.I64, wasm.F32)
	m[wasm.OpI64TruncF64S] = sig(wasm.I64, wasm.F64)
	m[wasm.OpI64TruncF64U] = sig(wasm.I64, wasm.F64)
	m[wasm.OpF32ConvertI32S] = sig(wasm.F32, wasm.I32)
	m[wasm.OpF32ConvertI32U] = sig(wasm.F32, wasm.I32)
	m[wasm.OpF32ConvertI64S] = sig(wasm.F32, wasm.I64)
	m[wasm.OpF32ConvertI64U] = sig(wasm.F32, wasm.I64)
	m[wasm.OpF32DemoteF64] = sig(wasm.F32, wasm.F64)
	m[wasm.OpF64ConvertI32S] = sig(wasm.F64, wasm.I32)
	m[wasm.OpF64ConvertI32U] = sig(wasm.F64, wasm.I32)
	m[wasm.OpF64ConvertI64S] = sig(wasm.F64, wasm.I64)
	m[wasm.OpF64ConvertI64U] = sig(wasm.F64, wasm.I64)
	m[wasm.OpF64PromoteF32] = sig(wasm.F64, wasm.F32)
	m[wasm.OpI32ReinterpretF] = sig(wasm.I32, wasm.F32)
	m[wasm.OpI64ReinterpretF] = sig(wasm.I64, wasm.F64)
	m[wasm.OpF32ReinterpretI] = sig(wasm.F32, wasm.I32)
	m[wasm.OpF64ReinterpretI] = sig(wasm.F64, wasm.I64)
	return m
}
