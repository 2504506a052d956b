package validate_test

import (
	"fmt"
	"strings"
	"testing"

	"acctee/internal/wasm"
	"acctee/internal/wasm/validate"
)

// mod builds a single-function module from raw instructions.
func mod(params, results []wasm.ValueType, locals []wasm.ValueType, body ...wasm.Instr) *wasm.Module {
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Params: params, Results: results})
	m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: ti, Locals: locals, Body: append(body, wasm.Op1(wasm.OpEnd))})
	m.Memories = append(m.Memories, wasm.Memory{Limits: wasm.Limits{Min: 1}})
	return m
}

func TestAcceptsWellTyped(t *testing.T) {
	cases := map[string]*wasm.Module{
		"arith": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.ConstI32(1), wasm.ConstI32(2), wasm.Op1(wasm.OpI32Add)),
		"block-result": mod(nil, []wasm.ValueType{wasm.I64}, nil,
			wasm.Instr{Op: wasm.OpBlock, BT: wasm.BlockOf(wasm.I64)},
			wasm.ConstI64(7),
			wasm.Op1(wasm.OpEnd)),
		"if-else": mod([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
			wasm.WithIdx(wasm.OpLocalGet, 0),
			wasm.Instr{Op: wasm.OpIf, BT: wasm.BlockOf(wasm.I32)},
			wasm.ConstI32(1),
			wasm.Op1(wasm.OpElse),
			wasm.ConstI32(2),
			wasm.Op1(wasm.OpEnd)),
		"unreachable-polymorphic": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.Op1(wasm.OpUnreachable),
			wasm.Op1(wasm.OpI32Add)), // allowed: stack is polymorphic
		"memory": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.ConstI32(0),
			wasm.Instr{Op: wasm.OpI32Load, Align: 2},
		),
		"br-with-value": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.Instr{Op: wasm.OpBlock, BT: wasm.BlockOf(wasm.I32)},
			wasm.ConstI32(5),
			wasm.WithIdx(wasm.OpBr, 0),
			wasm.Op1(wasm.OpEnd)),
	}
	for name, m := range cases {
		if err := validate.Module(m); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestRejectsIllTyped(t *testing.T) {
	cases := map[string]*wasm.Module{
		"type-mismatch": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.ConstI64(1), wasm.ConstI32(2), wasm.Op1(wasm.OpI32Add)),
		"underflow": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.ConstI32(1), wasm.Op1(wasm.OpI32Add)),
		"missing-result": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.ConstI32(1), wasm.Op1(wasm.OpDrop)),
		"bad-local": mod(nil, nil, nil,
			wasm.WithIdx(wasm.OpLocalGet, 3), wasm.Op1(wasm.OpDrop)),
		"bad-branch-depth": mod(nil, nil, nil,
			wasm.WithIdx(wasm.OpBr, 5)),
		"if-result-no-else": mod([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32}, nil,
			wasm.WithIdx(wasm.OpLocalGet, 0),
			wasm.Instr{Op: wasm.OpIf, BT: wasm.BlockOf(wasm.I32)},
			wasm.ConstI32(1),
			wasm.Op1(wasm.OpEnd)),
		"extra-stack-at-end": mod(nil, nil, nil,
			wasm.ConstI32(1)),
		"bad-alignment": mod(nil, []wasm.ValueType{wasm.I32}, nil,
			wasm.ConstI32(0),
			wasm.Instr{Op: wasm.OpI32Load, Align: 5}),
		"select-mismatch": mod(nil, nil, nil,
			wasm.ConstI32(1), wasm.ConstI64(2), wasm.ConstI32(0),
			wasm.Op1(wasm.OpSelect), wasm.Op1(wasm.OpDrop)),
	}
	for name, m := range cases {
		if err := validate.Module(m); err == nil {
			t.Errorf("%s: invalid module accepted", name)
		}
	}
}

func TestRejectsImmutableGlobalWrite(t *testing.T) {
	m := mod(nil, nil, nil,
		wasm.ConstI64(1), wasm.WithIdx(wasm.OpGlobalSet, 0))
	m.Globals = append(m.Globals, wasm.Global{Type: wasm.I64, Mutable: false, Init: wasm.ConstI64(0)})
	err := validate.Module(m)
	if err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Errorf("immutable global write: %v", err)
	}
}

func TestRejectsBadGlobalInit(t *testing.T) {
	m := &wasm.Module{}
	m.Globals = append(m.Globals, wasm.Global{Type: wasm.I64, Init: wasm.ConstI32(1)})
	if err := validate.Module(m); err == nil {
		t.Error("global init type mismatch accepted")
	}
}

func TestRejectsMemoryOpsWithoutMemory(t *testing.T) {
	m := mod(nil, []wasm.ValueType{wasm.I32}, nil,
		wasm.ConstI32(0), wasm.Instr{Op: wasm.OpI32Load, Align: 2})
	m.Memories = nil
	if err := validate.Module(m); err == nil {
		t.Error("load without memory accepted")
	}
}

func TestRejectsBadStart(t *testing.T) {
	m := mod([]wasm.ValueType{wasm.I32}, nil, nil, wasm.WithIdx(wasm.OpLocalGet, 0), wasm.Op1(wasm.OpDrop))
	idx := uint32(0)
	m.Start = &idx
	if err := validate.Module(m); err == nil {
		t.Error("start function with params accepted")
	}
}

func TestRejectsCallArity(t *testing.T) {
	m := mod(nil, nil, nil, wasm.WithIdx(wasm.OpCall, 0))
	// self-call of a () -> () function is fine; now break it: call with a
	// missing argument
	m2 := &wasm.Module{}
	ti := m2.AddType(wasm.FuncType{Params: []wasm.ValueType{wasm.I32}, Results: nil})
	t0 := m2.AddType(wasm.FuncType{})
	m2.Funcs = append(m2.Funcs,
		wasm.Func{TypeIdx: ti, Body: []wasm.Instr{wasm.Op1(wasm.OpEnd)}},
		wasm.Func{TypeIdx: t0, Body: []wasm.Instr{wasm.WithIdx(wasm.OpCall, 0), wasm.Op1(wasm.OpEnd)}},
	)
	if err := validate.Module(m); err != nil {
		t.Errorf("valid self-call rejected: %v", err)
	}
	if err := validate.Module(m2); err == nil {
		t.Error("call with missing argument accepted")
	}
}

func TestBrTableConsistency(t *testing.T) {
	// br_table whose targets disagree on arity must be rejected.
	m := &wasm.Module{}
	ti := m.AddType(wasm.FuncType{Results: []wasm.ValueType{wasm.I32}})
	body := []wasm.Instr{
		wasm.Instr{Op: wasm.OpBlock, BT: wasm.BlockOf(wasm.I32)},
		wasm.Instr{Op: wasm.OpBlock, BT: wasm.BlockEmpty},
		wasm.ConstI32(0),
		wasm.Instr{Op: wasm.OpBrTable, Idx: 0},
		wasm.Op1(wasm.OpEnd),
		wasm.ConstI32(1),
		wasm.Op1(wasm.OpEnd),
		wasm.Op1(wasm.OpEnd),
	}
	m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: ti, Body: body, BrTables: [][]uint32{{0, 1}}})
	if err := validate.Module(m); err == nil {
		t.Error("br_table with mismatched target arities accepted")
	}
}

// TestBrTableIndexOutOfRange: a br_table's Idx selects its targets from
// Func.BrTables; one past the table is refused with a stable error, before
// the operand stack is looked at.
func TestBrTableIndexOutOfRange(t *testing.T) {
	for _, tables := range [][][]uint32{nil, {{0}}} {
		m := &wasm.Module{}
		ti := m.AddType(wasm.FuncType{})
		body := []wasm.Instr{
			wasm.Instr{Op: wasm.OpBlock, BT: wasm.BlockEmpty},
			wasm.Instr{Op: wasm.OpBrTable, Idx: uint32(len(tables))},
			wasm.Op1(wasm.OpEnd),
			wasm.Op1(wasm.OpEnd),
		}
		m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: ti, Body: body, BrTables: tables})
		want := fmt.Sprintf("validate: func #0: instr 1 (br_table): br_table targets %d out of range (%d tables)",
			len(tables), len(tables))
		if err := validate.Module(m); err == nil || err.Error() != want {
			t.Errorf("%d tables: err = %v, want %q", len(tables), err, want)
		}
	}
}
