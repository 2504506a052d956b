package wasm_test

import (
	"reflect"
	"testing"
	"unsafe"

	"acctee/internal/wasm"
)

func TestFuncTypeEqual(t *testing.T) {
	a := wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I64}}
	b := wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: []wasm.ValueType{wasm.I64}}
	c := wasm.FuncType{Params: []wasm.ValueType{wasm.I64}, Results: []wasm.ValueType{wasm.I64}}
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) {
		t.Error("a should not equal c")
	}
	if a.Equal(wasm.FuncType{}) {
		t.Error("a should not equal empty")
	}
}

func TestAddTypeInterns(t *testing.T) {
	m := &wasm.Module{}
	t1 := m.AddType(wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
	t2 := m.AddType(wasm.FuncType{Params: []wasm.ValueType{wasm.I32}})
	t3 := m.AddType(wasm.FuncType{Params: []wasm.ValueType{wasm.F64}})
	if t1 != t2 {
		t.Errorf("identical types interned to %d and %d", t1, t2)
	}
	if t3 == t1 {
		t.Error("distinct types interned to same index")
	}
}

func TestFuncTypeAt(t *testing.T) {
	b := wasm.NewModule("m")
	b.ImportFunc("env", "f", []wasm.ValueType{wasm.I32}, nil)
	fb := b.Func("g", []wasm.ValueType{wasm.F64}, []wasm.ValueType{wasm.F64})
	fb.LocalGet(0)
	fb.End()
	m := b.MustBuild()
	imp, err := m.FuncTypeAt(0)
	if err != nil || len(imp.Params) != 1 || imp.Params[0] != wasm.I32 {
		t.Errorf("import type: %v %v", imp, err)
	}
	def, err := m.FuncTypeAt(1)
	if err != nil || def.Params[0] != wasm.F64 {
		t.Errorf("defined type: %v %v", def, err)
	}
	if _, err := m.FuncTypeAt(2); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := wasm.NewModule("orig")
	b.Memory(1, 1)
	b.Global("g", wasm.I64, true, wasm.ConstI64(1))
	f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
	f.I32Const(7)
	b.ExportFunc("f", f.End())
	b.Data(0, []byte{1, 2, 3})
	m := b.MustBuild()
	c := m.Clone()
	if !reflect.DeepEqual(m, c) {
		t.Fatal("clone differs from original")
	}
	c.Funcs[0].Body[0] = wasm.ConstI32(9)
	c.Data[0].Bytes[0] = 42
	c.Globals[0].Name = "h"
	if m.Funcs[0].Body[0].I32Val() != 7 {
		t.Error("mutating clone body changed original")
	}
	if m.Data[0].Bytes[0] != 1 {
		t.Error("mutating clone data changed original")
	}
	if m.Globals[0].Name != "g" {
		t.Error("mutating clone global changed original")
	}
}

func TestValidateStructure(t *testing.T) {
	cases := []struct {
		name string
		body []wasm.Instr
		ok   bool
	}{
		{"empty-end", []wasm.Instr{{Op: wasm.OpEnd}}, true},
		{"missing-end", []wasm.Instr{{Op: wasm.OpNop}}, false},
		{"unbalanced", []wasm.Instr{{Op: wasm.OpBlock, BT: wasm.BlockEmpty}, {Op: wasm.OpEnd}}, false},
		{"balanced", []wasm.Instr{
			{Op: wasm.OpBlock, BT: wasm.BlockEmpty}, {Op: wasm.OpEnd}, {Op: wasm.OpEnd},
		}, true},
	}
	for _, tc := range cases {
		err := wasm.ValidateStructure(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestGlobalNames(t *testing.T) {
	b := wasm.NewModule("m")
	b.Global("alpha", wasm.I64, true, wasm.ConstI64(0))
	b.Global("", wasm.I32, false, wasm.ConstI32(0))
	m := b.MustBuild()
	names := m.GlobalNames()
	if !names["alpha"] || len(names) != 1 {
		t.Errorf("names = %v", names)
	}
}

func TestCountBodyInstrs(t *testing.T) {
	body := []wasm.Instr{
		{Op: wasm.OpBlock, BT: wasm.BlockEmpty},
		wasm.ConstI32(1),
		{Op: wasm.OpDrop},
		{Op: wasm.OpEnd},
		{Op: wasm.OpEnd},
	}
	// block, const, drop count; the two ends do not.
	if n := wasm.CountBodyInstrs(body); n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}

func TestOpcodeNamesRoundTrip(t *testing.T) {
	for _, op := range wasm.AllOpcodes() {
		name := op.String()
		back, ok := wasm.OpcodeByName(name)
		if !ok || back != op {
			t.Errorf("opcode %#x name %q did not round-trip", byte(op), name)
		}
	}
	if len(wasm.AllOpcodes()) != 172 {
		t.Errorf("expected 172 MVP opcodes, got %d", len(wasm.AllOpcodes()))
	}
}

func TestBuilderRejectsLateImports(t *testing.T) {
	b := wasm.NewModule("m")
	f := b.Func("f", nil, nil)
	f.End()
	b.ImportFunc("env", "late", nil, nil)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for import after defined function")
	}
}

// TestInstrIs16Bytes pins the size of a flat instruction: every deployed
// body keeps one per instruction, and a pointer-free Instr keeps bodies out
// of the collector's scan.
func TestInstrIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(wasm.Instr{}); got != 16 {
		t.Errorf("unsafe.Sizeof(wasm.Instr{}) = %d, want 16", got)
	}
}

func TestBrTableSideTable(t *testing.T) {
	b := wasm.NewModule("")
	f := b.Func("", []wasm.ValueType{wasm.I32}, nil)
	f.Block(wasm.BlockEmpty, func() {
		f.Block(wasm.BlockEmpty, func() {
			f.LocalGet(0).BrTable(0, 1, 1)
		})
		f.LocalGet(0).BrTable(0, 0)
	})
	f.End()
	m := b.MustBuild()
	fn := &m.Funcs[0]
	var got [][]uint32
	for _, in := range fn.Body {
		if in.Op == wasm.OpBrTable {
			got = append(got, fn.BrTable(in))
		}
	}
	if want := [][]uint32{{0, 1, 1}, {0, 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("br_table targets %v, want %v", got, want)
	}
	if fn.BrTable(wasm.Instr{Op: wasm.OpBrTable, Idx: 2}) != nil {
		t.Error("an index past BrTables resolves to targets")
	}

	c := m.Clone()
	c.Funcs[0].BrTables[0][0] = 7
	if fn.BrTables[0][0] != 0 {
		t.Error("Clone shares br_table targets with the original")
	}
}
