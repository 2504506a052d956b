package interp_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// This file pins the compile-once/run-many split: a VM recycled through
// Reset (directly or via an InstancePool) must be observationally identical
// to a fresh Instantiate — results, traps, InstrCount, weighted Cost,
// remaining fuel, final memory and globals — on every program, after being
// arbitrarily dirtied by previous runs.

// collectObs runs entry on an existing VM and captures the observation
// (the pooled-path counterpart of observe in differential_test.go).
func collectObs(t *testing.T, vm *interp.VM, entry string, args ...uint64) obs {
	t.Helper()
	res, err := vm.InvokeExport(entry, args...)
	o := obs{
		res:    res,
		err:    err,
		count:  vm.InstrCount(),
		cost:   vm.Cost(),
		fuel:   vm.FuelRemaining(),
		memory: bytes.Clone(vm.Memory()),
	}
	for i := range vm.Module().Globals {
		g, _ := vm.Global(uint32(i))
		o.global = append(o.global, g)
	}
	return o
}

// compareObs requires two observations to be bit-identical.
func compareObs(t *testing.T, label string, got, want obs) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) || (want.err != nil && !errors.Is(got.err, want.err)) {
		t.Errorf("%s: error diverged: reused=%v fresh=%v", label, got.err, want.err)
	}
	if len(got.res) != len(want.res) {
		t.Errorf("%s: result arity diverged: reused=%v fresh=%v", label, got.res, want.res)
	} else {
		for i := range got.res {
			if got.res[i] != want.res[i] {
				t.Errorf("%s: result[%d] diverged: reused=%d fresh=%d", label, i, got.res[i], want.res[i])
			}
		}
	}
	if got.count != want.count {
		t.Errorf("%s: InstrCount diverged: reused=%d fresh=%d", label, got.count, want.count)
	}
	if got.cost != want.cost {
		t.Errorf("%s: Cost diverged: reused=%d fresh=%d", label, got.cost, want.cost)
	}
	if got.fuel != want.fuel {
		t.Errorf("%s: FuelRemaining diverged: reused=%d fresh=%d", label, got.fuel, want.fuel)
	}
	if !bytes.Equal(got.memory, want.memory) {
		t.Errorf("%s: final memory diverged", label)
	}
	for i := range want.global {
		if got.global[i] != want.global[i] {
			t.Errorf("%s: global %d diverged: reused=%d fresh=%d", label, i, got.global[i], want.global[i])
		}
	}
}

// reusedObs dirties a pool-managed instance with one throwaway run,
// recycles it through Put/Get (a tracked, page-granular reset), and
// observes a second run on the recycled instance.
func reusedObs(t *testing.T, cm *interp.CompiledModule, cfg interp.Config, entry string, args ...uint64) obs {
	t.Helper()
	pool, err := cm.NewPool(cfg, interp.PoolConfig{})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	vm, err := pool.Get(cfg)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	_, _ = vm.InvokeExport(entry, args...) // dirty memory/globals/counters
	pool.Put(vm)
	vm2, err := pool.Get(cfg)
	if err != nil {
		t.Fatalf("re-get: %v", err)
	}
	// sync.Pool may in principle drop the instance across a GC; either way
	// the observation must match a fresh instantiation.
	return collectObs(t, vm2, entry, args...)
}

// diffReuse pins a reused instance against a fresh instantiation.
func diffReuse(t *testing.T, m *wasm.Module, cfg interp.Config, entry string, args ...uint64) obs {
	t.Helper()
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	fresh := observe(t, m, cfg, entry, args...)
	reused := reusedObs(t, cm, cfg, entry, args...)
	compareObs(t, "reset-reuse", reused, fresh)
	return reused
}

// TestPoolReuseBranchShapes covers the branch-table corpus on recycled
// instances.
func TestPoolReuseBranchShapes(t *testing.T) {
	cfg := interp.Config{CostModel: weights.Calibrated()}
	for _, arg := range []uint64{0, 1, 2, 0xFFFFFFFF} {
		o := diffReuse(t, buildBrTableModule(), cfg, "f", arg)
		if o.err != nil {
			t.Fatalf("arg %d: unexpected trap: %v", arg, o.err)
		}
	}
}

// TestPoolReuseStatefulModule pins the pieces Reset must restore: data
// segments, mutable globals, the indirect-call table and grown memory.
func TestPoolReuseStatefulModule(t *testing.T) {
	b := wasm.NewModule("state")
	b.Memory(1, 4)
	b.Data(8, []byte("seed-bytes"))
	g := b.Global("acc", wasm.I64, true, wasm.ConstI64(5))
	callee := b.Func("callee", nil, []wasm.ValueType{wasm.I32})
	callee.I32Const(31)
	ci := callee.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	// mutate the global, overwrite the data segment, grow memory, then
	// read everything back through an indirect call.
	f.GlobalGet(g).I64ConstV(3).Op(wasm.OpI64Add).GlobalSet(g)
	f.I32Const(8).I32Const(0x61626364).Store(wasm.OpI32Store, 0)
	f.I32Const(1).Op(wasm.OpMemoryGrow).Op(wasm.OpDrop)
	f.I32Const(8).Load(wasm.OpI32Load, 0)
	f.LocalGet(0).Emit(wasm.Instr{Op: wasm.OpCallIndirect, Idx: callee.Index})
	f.Op(wasm.OpI32Add)
	b.ExportFunc("f", f.End())
	b.Table(ci)
	m := b.MustBuild()
	// CallIndirect's Idx immediate is a type index; patch it to callee's type.
	for pc, in := range m.Funcs[1].Body {
		if in.Op == wasm.OpCallIndirect {
			m.Funcs[1].Body[pc].Idx = m.Funcs[0].TypeIdx
		}
	}

	cfg := interp.Config{CostModel: weights.Calibrated()}
	o := diffReuse(t, m, cfg, "f", 0)
	if o.err != nil {
		t.Fatalf("unexpected trap: %v", o.err)
	}
}

// TestPoolReuseTraps covers mid-segment traps: the rolled-back accounting
// must survive recycling.
func TestPoolReuseTraps(t *testing.T) {
	cases := []struct {
		name  string
		build func() *wasm.Module
		args  []uint64
		trap  error
	}{
		{
			name: "div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("dz")
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul)
				f.LocalGet(1).Op(wasm.OpI32DivS)
				f.I32Const(100).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{6, 0}, trap: interp.ErrDivByZero,
		},
		{
			name: "oob_store",
			build: func() *wasm.Module {
				b := wasm.NewModule("ob")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).I32Const(7).Store(wasm.OpI32Store, 0)
				f.I32Const(1).I32Const(2).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{70000}, trap: interp.ErrOutOfBounds,
		},
		{
			name: "unreachable",
			build: func() *wasm.Module {
				b := wasm.NewModule("ur")
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				f.I32Const(1).I32Const(2).Op(wasm.OpI32Add).Op(wasm.OpDrop)
				f.Op(wasm.OpUnreachable)
				f.I32Const(9)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			trap: interp.ErrUnreachable,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := diffReuse(t, tc.build(), interp.Config{CostModel: weights.Calibrated()}, "f", tc.args...)
			if !errors.Is(o.err, tc.trap) {
				t.Errorf("trap = %v, want %v", o.err, tc.trap)
			}
		})
	}
}

// buildFuelSweepModule is the branching/calling/memory-touching program of
// TestFuelDifferentialSweep.
func buildFuelSweepModule() *wasm.Module {
	b := wasm.NewModule("fs")
	b.Memory(1, 2)
	helper := b.Func("h", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	helper.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul)
	hi := helper.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	acc := f.Local(wasm.I32)
	i := f.Local(wasm.I32)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(acc).LocalGet(i).Call(hi).Op(wasm.OpI32Add).LocalSet(acc)
		f.LocalGet(i).I32Const(1).Op(wasm.OpI32And)
		f.If(wasm.BlockEmpty, func() {
			f.I32Const(16).LocalGet(acc).Store(wasm.OpI32Store, 0)
		}, func() {
			f.I32Const(16).Load(wasm.OpI32Load, 0).Op(wasm.OpDrop)
		})
	})
	f.LocalGet(acc)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

// TestPoolReuseFuelSweep recycles one instance across every fuel budget:
// the fuel-exhaustion tail and trap rollback must stay exact after Reset.
func TestPoolReuseFuelSweep(t *testing.T) {
	m := buildFuelSweepModule()
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := cm.Instantiate(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for fuel := uint64(1); fuel < 260; fuel++ {
		cfg := interp.Config{Fuel: fuel, CostModel: weights.Calibrated()}
		fresh := observe(t, m, cfg, "f", 4)
		if err := vm.Reset(cfg); err != nil {
			t.Fatalf("fuel %d: reset: %v", fuel, err)
		}
		reused := collectObs(t, vm, "f", 4)
		compareObs(t, fmt.Sprintf("fuel=%d", fuel), reused, fresh)
	}
}

// TestPoolReuseRandomPrograms recycles instances across random structured
// programs.
func TestPoolReuseRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9007))
	for trial := 0; trial < 30; trial++ {
		m := randomFlatProgram(rng)
		arg := uint64(rng.Intn(30))
		cfg := interp.Config{CostModel: weights.Calibrated(), Fuel: 1 << 20}
		diffReuse(t, m, cfg, "main", arg)
	}
}

// TestPoolReusePolybench pins real kernels on recycled instances.
func TestPoolReusePolybench(t *testing.T) {
	for _, name := range []string{"gemm", "atax", "jacobi-2d", "cholesky"} {
		t.Run(name, func(t *testing.T) {
			k, err := polybench.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := k.Build(8)
			if err != nil {
				t.Fatal(err)
			}
			o := diffReuse(t, m, interp.Config{CostModel: weights.Calibrated()}, "run")
			if o.err != nil {
				t.Fatalf("run: %v", o.err)
			}
		})
	}
}

// TestPoolGetPutCycles drives many Get/run/Put cycles through one pool;
// every cycle must match the fresh observation, including cycles that never
// take the conservative whole-memory path (no Memory() call in between).
func TestPoolGetPutCycles(t *testing.T) {
	m := buildFuelSweepModule()
	cfg := interp.Config{CostModel: weights.Calibrated()}
	fresh := observe(t, m, cfg, "f", 6)
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 20; cycle++ {
		vm, err := pool.Get(cfg)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if cycle%2 == 0 {
			// Light check: results and counters only, so the next Reset
			// exercises the page-granular dirty path, not the conservative
			// full clear that Memory() forces.
			res, err := vm.InvokeExport("f", 6)
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			if res[0] != fresh.res[0] || vm.InstrCount() != fresh.count || vm.Cost() != fresh.cost {
				t.Fatalf("cycle %d diverged: res=%d count=%d cost=%d", cycle, res[0], vm.InstrCount(), vm.Cost())
			}
		} else {
			compareObs(t, fmt.Sprintf("cycle %d", cycle), collectObs(t, vm, "f", 6), fresh)
		}
		pool.Put(vm)
	}
}

// TestPoolConcurrentGetPut hammers one pool from many goroutines (run under
// -race in CI): every concurrent run must observe the fresh-instantiation
// results.
func TestPoolConcurrentGetPut(t *testing.T) {
	m := buildFuelSweepModule()
	cfg := interp.Config{CostModel: weights.Calibrated()}
	fresh := observe(t, m, cfg, "f", 5)
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 4})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, runs = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runs)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				vm, err := pool.Get(cfg)
				if err != nil {
					errs <- err
					return
				}
				res, err := vm.InvokeExport("f", 5)
				if err != nil {
					errs <- err
					return
				}
				if res[0] != fresh.res[0] || vm.InstrCount() != fresh.count || vm.Cost() != fresh.cost {
					errs <- fmt.Errorf("diverged: res=%d count=%d cost=%d", res[0], vm.InstrCount(), vm.Cost())
					return
				}
				pool.Put(vm)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolGetMatchesFreshInstantiate: whatever a pool hands out — a
// prewarmed instance, a recycled one after Reset, or one Get built because
// the pool ran empty — must behave like cm.Instantiate on the same artifact.
func TestPoolGetMatchesFreshInstantiate(t *testing.T) {
	m := buildFuelSweepModule()
	cfg := interp.Config{CostModel: weights.Calibrated()}
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		freshVM, err := cm.Instantiate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh := collectObs(t, freshVM, "f", 4)
		// Two Gets against one owned slot: the first is prewarmed (i == 0) or
		// recycled, the second finds the owned list empty.
		var held []*interp.VM
		for j := 0; j < 2; j++ {
			vm, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareObs(t, fmt.Sprintf("round %d get %d", i, j), collectObs(t, vm, "f", 4), fresh)
			held = append(held, vm)
		}
		for _, vm := range held {
			pool.Put(vm)
		}
	}
}

// TestPoolReuseStartFunction is the regression test for start-function
// stores: the first instantiation's start runs before any user code, and
// its writes must be dirty-tracked from the very first Reset — a recycled
// instance whose start does mem[0]++ must observe mem[0] == 1 on every
// cycle, not an accumulating counter over stale memory.
func TestPoolReuseStartFunction(t *testing.T) {
	b := wasm.NewModule("st")
	b.Memory(1, 1)
	f := b.Func("init", nil, nil)
	f.I32Const(0)
	f.I32Const(0).Load(wasm.OpI32Load, 0).I32Const(1).Op(wasm.OpI32Add)
	f.Store(wasm.OpI32Store, 0)
	si := f.End()
	g := b.Func("get", nil, []wasm.ValueType{wasm.I32})
	g.I32Const(0).Load(wasm.OpI32Load, 0)
	b.ExportFunc("get", g.End())
	m := b.MustBuild()
	m.Start = &si

	cfg := interp.Config{CostModel: weights.Calibrated()}
	fresh := observe(t, m, cfg, "get")
	if fresh.res[0] != 1 {
		t.Fatalf("fresh instance: start ran %d times, want 1", fresh.res[0])
	}
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		vm, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareObs(t, fmt.Sprintf("start cycle %d", cycle), collectObs(t, vm, "get"), fresh)
		pool.Put(vm)
	}
}

// TestPoolPrewarmSurvivesGC: prewarmed instances live on an owned
// free-list, so a GC between construction and first use must not evict
// them.
func TestPoolPrewarmSurvivesGC(t *testing.T) {
	m := buildFuelSweepModule()
	cfg := interp.Config{}
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	vm1, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vm1 == vm2 {
		t.Fatal("pool handed out the same instance twice")
	}
	pool.Put(vm1)
	pool.Put(vm2)
	runtime.GC()
	vm3, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vm3 != vm1 && vm3 != vm2 {
		t.Error("prewarmed instance was evicted by GC despite the owned free-list")
	}
}

// runState stands in for what one run binds into its instance: a stateful
// cost model, and the state its host closures and grow hook capture.
type runState struct{ pad [256]byte }

func (*runState) InstrCost(wasm.Opcode) uint64                 { return 1 }
func (*runState) MemCost(_, _ uint32, _ bool, _ uint32) uint64 { return 0 }

// TestPoolPutReleasesRunBindings: an idle pooled instance must not keep its
// last run's cost model, host closures, grow hook or interrupt flag alive.
func TestPoolPutReleasesRunBindings(t *testing.T) {
	cm, err := interp.Compile(interruptModule(), interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(*interp.VM, []uint64) ([]uint64, error) { return nil, nil }
	pool, err := cm.NewPool(interp.Config{Imports: map[string]interp.HostFunc{"env.tick": tick}},
		interp.PoolConfig{Prewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	track := func() *runState {
		s := new(runState)
		runtime.AddCleanup(s, func(struct{}) { collected.Add(1) }, struct{}{})
		return s
	}
	func() {
		model, host, hook := track(), track(), track()
		vm, err := pool.Get(interp.Config{
			CostModel: model,
			Interrupt: new(atomic.Bool),
			GrowHook:  func(*interp.VM, uint32, uint32) { hook.pad[0]++ },
			Imports: map[string]interp.HostFunc{"env.tick": func(*interp.VM, []uint64) ([]uint64, error) {
				host.pad[0]++
				return nil, nil
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.InvokeExport("run", 3); err != nil {
			t.Fatal(err)
		}
		pool.Put(vm)
	}()
	for i := 0; i < 50 && collected.Load() < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != 3 {
		t.Errorf("%d of 3 per-run objects collected while the instance sits idle in the pool", n)
	}
	// The parked instance is still the prewarmed one, and rebinds cleanly.
	vm, err := pool.Get(interp.Config{Imports: map[string]interp.HostFunc{"env.tick": tick}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.InvokeExport("run", 3); err != nil {
		t.Fatal(err)
	}
}

// TestPoolGetPutAllocFree: a pooled Get/Put cycle with a cost model — the
// fingerprint lookup included — allocates nothing.
func TestPoolGetPutAllocFree(t *testing.T) {
	cm, err := interp.Compile(buildFuelSweepModule(), interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two fingerprints cached, so the lookup walks past a mismatch too.
	for _, model := range []interp.CostModel{weights.Unit(), weights.Calibrated()} {
		cfg := interp.Config{CostModel: model}
		pool, err := cm.NewPool(cfg, interp.PoolConfig{Prewarm: 1})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			vm, err := pool.Get(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pool.Put(vm)
		}); allocs != 0 {
			t.Errorf("Get/Put with a cost model makes %v allocations, want 0", allocs)
		}
	}
}
