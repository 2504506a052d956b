package interp

import (
	"slices"
	"testing"
	"unsafe"

	"acctee/internal/polybench"
	"acctee/internal/wasm"
)

// TestLoweredSidetable pins the lowering pass output (lowerModule: Compile
// drops these tables) on a hand-checked body: branch targets, truncation heights, copy arities, segment leaders
// and the stack high-water mark.
func TestLoweredSidetable(t *testing.T) {
	b := wasm.NewModule("st")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.Block(wasm.BlockOf(wasm.I32), func() {
		f.I32Const(1000)
		f.Block(wasm.BlockEmpty, func() {
			f.LocalGet(0)
			f.BrIf(0)
			f.I32Const(7)
			f.Br(1)
		})
		f.Op(wasm.OpDrop)
		f.I32Const(3)
	})
	b.ExportFunc("f", f.End())
	m := b.MustBuild()

	// Expected body layout (pc: instruction):
	//  0: block (result i32)   1: i32.const 1000   2: block
	//  3: local.get 0          4: br_if 0          5: i32.const 7
	//  6: br 1                 7: end              8: drop
	//  9: i32.const 3         10: end             11: end (function)
	wantOps := []wasm.Opcode{
		wasm.OpBlock, wasm.OpI32Const, wasm.OpBlock, wasm.OpLocalGet,
		wasm.OpBrIf, wasm.OpI32Const, wasm.OpBr, wasm.OpEnd,
		wasm.OpDrop, wasm.OpI32Const, wasm.OpEnd, wasm.OpEnd,
	}
	body := m.Funcs[0].Body
	if len(body) != len(wantOps) {
		t.Fatalf("body length %d, want %d", len(body), len(wantOps))
	}
	for pc, op := range wantOps {
		if body[pc].Op != op {
			t.Fatalf("pc %d: opcode %s, want %s", pc, body[pc].Op, op)
		}
	}

	cm, err := lowerModule(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cf := &cm.funcs[0]

	// br_if 0 (pc 4) targets past the inner block's end, truncating to the
	// operand height at inner-block entry (1: the const 1000), copying
	// nothing.
	if fl := cf.flat[4]; fl.target != 8 || fl.height != 1 || fl.arity != 0 {
		t.Errorf("br_if sidetable = {target %d, height %d, arity %d}, want {8, 1, 0}", fl.target, fl.height, fl.arity)
	}
	// br 1 (pc 6) targets past the outer block's end, truncating to the
	// function-entry height and carrying the block's single result.
	if fl := cf.flat[6]; fl.target != 11 || fl.height != 0 || fl.arity != 1 {
		t.Errorf("br sidetable = {target %d, height %d, arity %d}, want {11, 0, 1}", fl.target, fl.height, fl.arity)
	}

	// Segment leaders partition the body at control boundaries.
	wantSeg := map[int]int32{0: 1, 1: 2, 3: 2, 5: 2, 7: 1, 8: 3, 11: 1}
	for pc := range body {
		want := wantSeg[pc] // zero for non-leaders
		if got := cf.flat[pc].segCnt; got != want {
			t.Errorf("pc %d: segCnt = %d, want %d", pc, got, want)
		}
	}
	// Peak operand height is 2 (const 1000 + local.get / const 7), plus one
	// slot of host-result headroom.
	if cf.maxStack != 3 {
		t.Errorf("maxStack = %d, want 3", cf.maxStack)
	}
}

// TestLoweredIfElseTargets pins the if false-edge and else continuation.
func TestLoweredIfElseTargets(t *testing.T) {
	b := wasm.NewModule("ie")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0)
	f.If(wasm.BlockOf(wasm.I32), func() {
		f.I32Const(1)
	}, func() {
		f.I32Const(2)
	})
	b.ExportFunc("f", f.End())
	m := b.MustBuild()
	// 0: local.get  1: if  2: i32.const 1  3: else  4: i32.const 2
	// 5: end  6: end(function)
	cm, err := lowerModule(m, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cf := &cm.funcs[0]
	if got := cf.flat[1].target; got != 4 {
		t.Errorf("if false-edge target = %d, want 4 (after else)", got)
	}
	if got := cf.flat[3].target; got != 6 {
		t.Errorf("else continuation target = %d, want 6 (after end)", got)
	}

	// Without an else the false edge jumps past the end.
	b2 := wasm.NewModule("ie2")
	g := b2.Func("f", []wasm.ValueType{wasm.I32}, nil)
	g.LocalGet(0)
	g.If(wasm.BlockEmpty, func() {
		g.Op(wasm.OpNop)
	}, nil)
	b2.ExportFunc("f", g.End())
	// 0: local.get  1: if  2: nop  3: end  4: end(function)
	cm2, err := lowerModule(b2.MustBuild(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cm2.funcs[0].flat[1].target; got != 4 {
		t.Errorf("if-without-else false-edge target = %d, want 4", got)
	}
}

// brTableModule is a caller that splices an inlinable leaf in ahead of a
// br_table, so the inliner moves the table's edges:
//
//	0: block  1: local.get 0  2: call leaf  3: br_table 0 1
//	4: end    5: nop          6: end (function)
//
// Depth 0 continues at pc 5, depth 1 leaves the function (pc 7).
func brTableModule() *wasm.Module {
	b := wasm.NewModule("bt")
	leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	leaf.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	leafIdx := leaf.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, nil)
	f.Block(wasm.BlockEmpty, func() {
		f.LocalGet(0).Call(leafIdx).BrTable(0, 1)
	})
	f.Op(wasm.OpNop)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

// TestLoweredBrTableEdges pins a br_table's edges in the function's brEdges
// slab, before and after the inliner splices the leaf's four instructions
// in at pc 3: every continuation pc moves by four, the exit with the body.
func TestLoweredBrTableEdges(t *testing.T) {
	for _, tc := range []struct {
		opts CompileOptions
		pc   int
		want []flatTarget
	}{
		{CompileOptions{DisableInline: true}, 3, []flatTarget{{pc: 5}, {pc: 7}}},
		{CompileOptions{}, 7, []flatTarget{{pc: 9}, {pc: 11}}},
	} {
		cm, err := lowerModule(brTableModule(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		cf := &cm.funcs[1]
		if op := cf.body[tc.pc].Op; op != wasm.OpBrTable {
			t.Fatalf("inline %v: pc %d is %s, want br_table", !tc.opts.DisableInline, tc.pc, op)
		}
		fl := cf.flat[tc.pc]
		if got := cf.brEdges[fl.target : fl.target+fl.height]; !slices.Equal(got, tc.want) {
			t.Errorf("inline %v: br_table edges %+v, want %+v", !tc.opts.DisableInline, got, tc.want)
		}
	}
}

// funcID is the identity of a func value: the closure object it points to.
// Every use of one top-level function shares one; two closures made by the
// same literal do not.
func funcID(f regFn) uintptr { return *(*uintptr)(unsafe.Pointer(&f)) }

// TestFlatOpSize pins the per-pc row of the flat sidetable at four int32s
// and a flag byte: a br_table's edges live in the function's brEdges slab,
// not in the row.
func TestFlatOpSize(t *testing.T) {
	if got := unsafe.Sizeof(flatOp{}); got != 20 {
		t.Errorf("flatOp is %d bytes, want 20", got)
	}
}

// TestCompileTrimsLoweringTables checks what a compiled artifact keeps: no
// function retains the lowering passes' flat sidetable, br_table edges or
// reachability map, the oracle's views are left to be built on demand, and
// every statement-interior pc holds the one shared guard rather than a
// closure of its own.
func TestCompileTrimsLoweringTables(t *testing.T) {
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	gemm, err := k.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*wasm.Module{"wb": wbModule(), "gemm": gemm, "br_table": brTableModule()} {
		cm, err := Compile(m, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cm.oracle != nil {
			t.Errorf("%s: the oracle's views built", name)
		}
		interior := 0
		for fi := range cm.funcs {
			cf := &cm.funcs[fi]
			if cf.flat != nil || cf.preDead != nil || cf.brEdges != nil {
				t.Errorf("%s func %d: lowering tables kept (flat %v, preDead %v, brEdges %v)",
					name, fi, cf.flat != nil, cf.preDead != nil, cf.brEdges != nil)
			}
			for pc := range cf.body {
				if cf.reg.wid[pc] != 0 {
					continue
				}
				interior++
				if funcID(cf.reg.ops[pc]) != funcID(regInterior) {
					t.Errorf("%s func %d pc %d: interior pc holds its own closure", name, fi, pc)
				}
			}
		}
		if interior == 0 {
			t.Errorf("%s: no statement-interior pc: nothing checked", name)
		}
	}
}
