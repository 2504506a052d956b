package interp_test

import (
	"errors"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// This file pins the call-path optimization layer (inline.go and the
// residual-call fast paths) to the structured reference engine, which always
// executes real calls over the module's pre-inline bodies: every observation —
// results, trap identity, InstrCount, weighted Cost, remaining fuel, memory,
// globals — must be bit-identical whether a callee was spliced into its
// caller or not, including traps raised *inside* inlined frames and fuel
// exhaustion mid-inlined-body. The call_indirect inline cache gets the same
// treatment over multi-call sequences (hit, miss, refill, type mismatch)
// plus its invalidation rules (SetTableEntry, Reset after mutation).

// buildLeafCalls builds a caller combining two inlinable straight-line
// leaves; double has a non-param local the marker must zero.
func buildLeafCalls() *wasm.Module {
	b := wasm.NewModule("leaf")
	dbl := b.Func("double", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	tmp := dbl.Local(wasm.I32)
	dbl.LocalGet(0).I32Const(2).Op(wasm.OpI32Mul).LocalSet(tmp)
	dbl.LocalGet(tmp)
	dblIdx := dbl.End()
	add := b.Func("add", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	add.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add)
	addIdx := add.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).Call(dblIdx)
	f.LocalGet(1).Call(dblIdx)
	f.Call(addIdx)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

// buildChainCalls builds a transitive chain f -> mid -> leaf of inlinable
// bodies, collapsed over multiple inlining rounds.
func buildChainCalls() *wasm.Module {
	b := wasm.NewModule("chain")
	leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	leaf.LocalGet(0).I32Const(3).Op(wasm.OpI32Add)
	leafIdx := leaf.End()
	mid := b.Func("mid", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	mid.LocalGet(0).Call(leafIdx).I32Const(10).Op(wasm.OpI32Mul)
	midIdx := mid.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).Call(midIdx).Call(midIdx)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

// buildLoopedCalls wraps an inlined leaf call and a residual (loop-bearing,
// hence ineligible) call in a counted loop, so segment charges, the marker
// and the residual fast path all run hot.
func buildLoopedCalls() *wasm.Module {
	b := wasm.NewModule("loopcall")
	leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	leaf.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	leafIdx := leaf.End()
	work := b.Func("work", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := work.Local(wasm.I32)
	acc := work.Local(wasm.I32)
	work.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		work.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Add).LocalSet(acc)
	})
	work.LocalGet(acc)
	workIdx := work.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	j := f.Local(wasm.I32)
	sum := f.Local(wasm.I32)
	f.ForI32(j, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(sum).Call(leafIdx).LocalSet(sum)
		f.LocalGet(j).I32Const(3).Op(wasm.OpI32And).Call(workIdx).LocalGet(sum).Op(wasm.OpI32Add).LocalSet(sum)
	})
	f.LocalGet(sum)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

func TestInlineLeafValues(t *testing.T) {
	got := diffEngines(t, buildLeafCalls(), interp.Config{CostModel: weights.Calibrated()}, "f", 5, 7)
	if got.res[0] != 24 {
		t.Errorf("f(5,7) = %d, want 24", got.res[0])
	}
}

func TestInlineTransitiveChain(t *testing.T) {
	got := diffEngines(t, buildChainCalls(), interp.Config{CostModel: weights.Calibrated()}, "f", 4)
	// mid(4) = (4+3)*10 = 70; mid(70) = (70+3)*10 = 730
	if got.res[0] != 730 {
		t.Errorf("f(4) = %d, want 730", got.res[0])
	}
}

func TestInlineLoopedCalls(t *testing.T) {
	diffEngines(t, buildLoopedCalls(), interp.Config{CostModel: weights.Calibrated()}, "f", 17)
}

// TestInlineMatchesDisableInline pins the accounting-exactness claim from
// the other side: the same engine with and without the inlining pass must
// agree on every counter, not just with the structured oracle.
func TestInlineMatchesDisableInline(t *testing.T) {
	for _, m := range []*wasm.Module{buildLeafCalls(), buildChainCalls(), buildLoopedCalls()} {
		cmOn, err := interp.Compile(m, interp.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cmOff, err := interp.Compile(m, interp.CompileOptions{DisableInline: true})
		if err != nil {
			t.Fatal(err)
		}
		if cmOn.InlineStats.SitesInlined == 0 {
			t.Fatalf("module %s: inliner fired on no sites", m.Name)
		}
		cfg := interp.Config{CostModel: weights.Calibrated(), Fuel: 1 << 20}
		vmOn, err := cmOn.Instantiate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vmOff, err := cmOff.Instantiate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rOn, errOn := vmOn.InvokeExport("f", 9, 9)
		rOff, errOff := vmOff.InvokeExport("f", 9, 9)
		if (errOn == nil) != (errOff == nil) {
			t.Fatalf("%s: err %v vs %v", m.Name, errOn, errOff)
		}
		if len(rOn) != len(rOff) || (len(rOn) > 0 && rOn[0] != rOff[0]) {
			t.Errorf("%s: result %v vs %v", m.Name, rOn, rOff)
		}
		if vmOn.InstrCount() != vmOff.InstrCount() {
			t.Errorf("%s: InstrCount %d vs %d", m.Name, vmOn.InstrCount(), vmOff.InstrCount())
		}
		if vmOn.Cost() != vmOff.Cost() {
			t.Errorf("%s: Cost %d vs %d", m.Name, vmOn.Cost(), vmOff.Cost())
		}
		if vmOn.FuelRemaining() != vmOff.FuelRemaining() {
			t.Errorf("%s: fuel %d vs %d", m.Name, vmOn.FuelRemaining(), vmOff.FuelRemaining())
		}
	}
}

// TestInlineTrapsInInlinedFrames drives traps that fire *inside* a spliced
// callee body: the rollback must use the callee's own segment bounds within
// the caller's flat IR and every counter must match the structured engine,
// which executed a real call frame.
func TestInlineTrapsInInlinedFrames(t *testing.T) {
	t.Run("div_by_zero", func(t *testing.T) {
		b := wasm.NewModule("idiv")
		div := b.Func("div", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
		div.LocalGet(0).LocalGet(1).Op(wasm.OpI32DivU).I32Const(1).Op(wasm.OpI32Add)
		divIdx := div.End()
		f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
		f.LocalGet(0).LocalGet(1).Call(divIdx)
		f.I32Const(100).Op(wasm.OpI32Add) // suffix the trap must roll back
		b.ExportFunc("f", f.End())
		got := diffEngines(t, b.MustBuild(), interp.Config{CostModel: weights.Calibrated()}, "f", 6, 0)
		if !errors.Is(got.err, interp.ErrDivByZero) {
			t.Errorf("err = %v, want ErrDivByZero", got.err)
		}
	})
	t.Run("oob_load", func(t *testing.T) {
		b := wasm.NewModule("ioob")
		b.Memory(1, 1)
		ld := b.Func("ld", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		ld.LocalGet(0).Load(wasm.OpI32Load, 0).I32Const(7).Op(wasm.OpI32Mul)
		ldIdx := ld.End()
		f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		f.LocalGet(0).Call(ldIdx).I32Const(1).Op(wasm.OpI32Add)
		b.ExportFunc("f", f.End())
		m := b.MustBuild()
		if got := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", 0); got.err != nil {
			t.Errorf("in-bounds err = %v", got.err)
		}
		got := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", 1<<20)
		if !errors.Is(got.err, interp.ErrOutOfBounds) {
			t.Errorf("err = %v, want ErrOutOfBounds", got.err)
		}
	})
	t.Run("nested_chain_trap", func(t *testing.T) {
		// The trap fires in a callee inlined through two rounds.
		b := wasm.NewModule("inest")
		leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		leaf.I32Const(100).LocalGet(0).Op(wasm.OpI32RemU)
		leafIdx := leaf.End()
		mid := b.Func("mid", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		mid.LocalGet(0).Call(leafIdx).I32Const(2).Op(wasm.OpI32Mul)
		midIdx := mid.End()
		f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		f.LocalGet(0).Call(midIdx)
		b.ExportFunc("f", f.End())
		m := b.MustBuild()
		if got := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", 7); got.err != nil || got.res[0] != 4 {
			t.Errorf("f(7) = %v, %v; want 4", got.res, got.err)
		}
		got := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", 0)
		if !errors.Is(got.err, interp.ErrDivByZero) {
			t.Errorf("err = %v, want ErrDivByZero", got.err)
		}
	})
	t.Run("call_stack_exhaustion_at_marker", func(t *testing.T) {
		// Recursion with an inlined leaf on every level: the exhaustion
		// trap fires at the inline marker's logical depth bump.
		b := wasm.NewModule("idepth")
		leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		leaf.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
		leafIdx := leaf.End()
		f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
		f.LocalGet(0)
		f.If(wasm.BlockOf(wasm.I32), func() {
			f.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(1).Call(leafIdx)
		}, func() {
			f.LocalGet(0).Call(leafIdx)
		})
		b.ExportFunc("f", f.End())
		m := b.MustBuild()
		got := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated(), MaxCallDepth: 8}, "f", 4)
		if got.err != nil {
			t.Errorf("within depth: %v", got.err)
		}
		got = diffEngines(t, m, interp.Config{CostModel: weights.Calibrated(), MaxCallDepth: 8}, "f", 64)
		if !errors.Is(got.err, interp.ErrCallStackExhausted) {
			t.Errorf("err = %v, want ErrCallStackExhausted", got.err)
		}
	})
}

// TestInlineFuelSweep exhausts fuel at every possible point of a run whose
// hot path crosses inline markers, inlined bodies and residual calls; the
// per-instruction deopt tail must interpret the spliced bodies (shifted
// local indices against the full frame) with exactly the reference totals.
func TestInlineFuelSweep(t *testing.T) {
	m := buildLoopedCalls()
	for fuel := uint64(1); fuel < 420; fuel++ {
		diffEngines(t, m, interp.Config{Fuel: fuel, CostModel: weights.Calibrated()}, "f", 6)
	}
}

// buildDispatch builds the inline-cache exercise module: table slots 0/1
// hold compatible functions, slot 2 a signature-incompatible one.
func buildDispatch() *wasm.Module {
	b := wasm.NewModule("disp")
	add := b.Func("add", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	add.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add)
	addIdx := add.End()
	sub := b.Func("sub", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	sub.LocalGet(0).LocalGet(1).Op(wasm.OpI32Sub)
	subIdx := sub.End()
	neg := b.Func("neg", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	neg.I32Const(0).LocalGet(0).Op(wasm.OpI32Sub)
	negIdx := neg.End()
	b.Table(addIdx, subIdx, negIdx)
	disp := b.Func("dispatch", []wasm.ValueType{wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	disp.LocalGet(1).LocalGet(2).LocalGet(0)
	ti := b.TypeIndex([]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	disp.Emit(wasm.Instr{Op: wasm.OpCallIndirect, Idx: ti})
	b.ExportFunc("dispatch", disp.End())
	return b.MustBuild()
}

// TestCallIndirectCacheDifferential runs a hit/miss/refill/trap sequence on
// ONE VM per engine, so cache state carries across calls, and requires the
// cached path to be observationally identical to the cacheless structured
// engine call by call.
func TestCallIndirectCacheDifferential(t *testing.T) {
	seq := []struct {
		elem uint32
		a, b uint64
		want uint64
		trap error
	}{
		{0, 7, 5, 12, nil}, // miss -> fill
		{0, 9, 4, 13, nil}, // hit
		{1, 9, 4, 5, nil},  // miss -> refill
		{0, 2, 2, 4, nil},  // miss again (monomorphic slot was retargeted)
		{5, 1, 1, 0, interp.ErrUndefinedElement},
		{2, 1, 1, 0, interp.ErrIndirectTypeBad}, // full path catches mismatch
		{0, 3, 4, 7, nil},                       // cache still sound after traps
	}
	m := buildDispatch()
	cfgBase := interp.Config{CostModel: weights.Calibrated()}

	type step struct {
		res   []uint64
		err   error
		count uint64
		cost  uint64
	}
	run := func(eng interp.Engine) []step {
		cfg := cfgBase
		cfg.Engine = eng
		vm, err := interp.Instantiate(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []step
		for _, c := range seq {
			res, err := vm.InvokeExport("dispatch", uint64(c.elem), c.a, c.b)
			out = append(out, step{res: res, err: err, count: vm.InstrCount(), cost: vm.Cost()})
		}
		return out
	}

	ref := run(interp.EngineStructured)
	for i, c := range seq {
		if c.trap == nil {
			if ref[i].err != nil || ref[i].res[0] != c.want {
				t.Fatalf("structured step %d: got %v, %v", i, ref[i].res, ref[i].err)
			}
		} else if !errors.Is(ref[i].err, c.trap) {
			t.Fatalf("structured step %d: err %v, want %v", i, ref[i].err, c.trap)
		}
	}
	got := run(interp.EngineReg)
	for i := range seq {
		if (got[i].err == nil) != (ref[i].err == nil) || (ref[i].err != nil && !errors.Is(got[i].err, ref[i].err)) {
			t.Errorf("step %d: err %v, structured %v", i, got[i].err, ref[i].err)
		}
		if ref[i].err == nil && got[i].res[0] != ref[i].res[0] {
			t.Errorf("step %d: res %d, structured %d", i, got[i].res[0], ref[i].res[0])
		}
		if got[i].count != ref[i].count || got[i].cost != ref[i].cost {
			t.Errorf("step %d: count/cost %d/%d, structured %d/%d",
				i, got[i].count, got[i].cost, ref[i].count, ref[i].cost)
		}
	}
}

// TestCallIndirectCacheInvalidation pins the two invalidation rules: a
// SetTableEntry mutation must flush the caches immediately, and a Reset
// after a mutated run must flush them again (the restored table image no
// longer matches what the cache vouched for).
func TestCallIndirectCacheInvalidation(t *testing.T) {
	m := buildDispatch()
	for _, eng := range []interp.Engine{interp.EngineReg, interp.EngineStructured} {
		cfg := interp.Config{Engine: eng}
		vm, err := interp.Instantiate(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		call := func(elem uint32, a, b uint64) uint64 {
			res, err := vm.InvokeExport("dispatch", uint64(elem), a, b)
			if err != nil {
				t.Fatalf("%v dispatch(%d): %v", eng, elem, err)
			}
			return res[0]
		}
		if got := call(0, 7, 5); got != 12 {
			t.Fatalf("%v: add = %d", eng, got)
		}
		// Retarget slot 0 to sub; a stale cache would still answer 12.
		if err := vm.SetTableEntry(0, 1); err != nil {
			t.Fatal(err)
		}
		if got := call(0, 7, 5); got != 2 {
			t.Errorf("%v after SetTableEntry: = %d, want 2", eng, got)
		}
		// Reset restores the table image; a cache surviving the mutated
		// run would still answer 2.
		if err := vm.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if got := call(0, 7, 5); got != 12 {
			t.Errorf("%v after Reset: = %d, want 12", eng, got)
		}
		// Reset with NO preceding mutation keeps the (still valid) cache.
		if err := vm.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if got := call(0, 8, 5); got != 13 {
			t.Errorf("%v after clean Reset: = %d, want 13", eng, got)
		}
	}
}

// TestZeroAllocCallPaths pins the per-call allocation count of the hot
// paths at zero: a full invoke whose body crosses inline markers and
// residual defined calls (frame slab reuse), and the pooled Get/Invoke/Put
// cycle. Regression guard: future PRs must not add per-call allocations.
func TestZeroAllocCallPaths(t *testing.T) {
	b := wasm.NewModule("zalloc")
	leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	leaf.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	leafIdx := leaf.End()
	work := b.Func("work", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := work.Local(wasm.I32)
	acc := work.Local(wasm.I32)
	work.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		work.LocalGet(acc).I32Const(3).Op(wasm.OpI32Add).LocalSet(acc)
	})
	work.LocalGet(acc)
	workIdx := work.End()
	f := b.Func("spin", []wasm.ValueType{wasm.I32}, nil)
	j := f.Local(wasm.I32)
	s := f.Local(wasm.I32)
	f.ForI32(j, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(s).I32Const(7).Op(wasm.OpI32And).Call(leafIdx).Call(workIdx).LocalSet(s)
	})
	b.ExportFunc("spin", f.End())
	m := b.MustBuild()

	args := []uint64{64}
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.InvokeExport("spin", args...); err != nil { // warm the frame slabs
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := vm.InvokeExport("spin", args...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%v allocs per invoke, want 0", n)
	}

	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{}
	pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ { // warm the pool cycle
		vm, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.InvokeExport("spin", args...); err != nil {
			t.Fatal(err)
		}
		pool.Put(vm)
	}
	if n := testing.AllocsPerRun(100, func() {
		vm, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.InvokeExport("spin", args...); err != nil {
			t.Fatal(err)
		}
		pool.Put(vm)
	}); n != 0 {
		t.Errorf("pooled reset+invoke: %v allocs per cycle, want 0", n)
	}
}
