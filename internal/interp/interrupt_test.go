package interp_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// interruptModule builds a counted loop that calls the host import env.tick
// once per iteration and does a little arithmetic between calls. Host calls
// end accounting segments, so when tick sets the interrupt flag every engine
// observes it at the same next segment leader — the natural deterministic
// trigger for the cross-engine bit-identity test.
func interruptModule() *wasm.Module {
	b := wasm.NewModule("intr")
	tick := b.ImportFunc("env", "tick", nil, nil)
	f := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	acc := f.Local(wasm.I32)
	i := f.Local(wasm.I32)
	f.ForI32(i,
		[]wasm.Instr{wasm.ConstI32(0)},
		[]wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)},
		1,
		func() {
			f.Call(tick)
			f.LocalGet(acc).I32Const(3).Op(wasm.OpI32Mul).LocalGet(i).Op(wasm.OpI32Add).LocalSet(acc)
		})
	f.LocalGet(acc)
	b.ExportFunc("run", f.End())
	return b.MustBuild()
}

type intrObs struct {
	err               error
	count, cost, fuel uint64
	calls             int
}

// runInterrupted invokes m's "run" export on the given engine with a host
// tick that sets the interrupt flag on its fireAt-th call (0 = pre-set the
// flag before invoking, so not a single instruction may be charged).
func runInterrupted(t *testing.T, m *wasm.Module, eng interp.Engine, fireAt int, iters uint64) intrObs {
	t.Helper()
	var flag atomic.Bool
	calls := 0
	cfg := interp.Config{
		Engine:    eng,
		Fuel:      1 << 20,
		CostModel: weights.Calibrated(),
		Interrupt: &flag,
		Imports: map[string]interp.HostFunc{
			"env.tick": func(vm *interp.VM, args []uint64) ([]uint64, error) {
				calls++
				if calls == fireAt {
					flag.Store(true)
				}
				return nil, nil
			},
		},
	}
	if fireAt == 0 {
		flag.Store(true)
	}
	vm, err := interp.Instantiate(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := vm.InvokeExport("run", iters)
	return intrObs{err: rerr, count: vm.InstrCount(), cost: vm.Cost(), fuel: vm.FuelRemaining(), calls: calls}
}

var interruptEngines = []struct {
	name   string
	engine interp.Engine
}{
	{"structured", interp.EngineStructured},
	{"reg", interp.EngineReg},
}

// TestInterruptBitIdenticalAcrossEngines is the acceptance check for
// cooperative cancellation: an interrupted run must charge exactly the work
// done up to the interrupt, bit-identical across both engines.
func TestInterruptBitIdenticalAcrossEngines(t *testing.T) {
	m := interruptModule()
	for _, fireAt := range []int{1, 5, 50} {
		ref := runInterrupted(t, m, interp.EngineStructured, fireAt, 1000)
		if !errors.Is(ref.err, interp.ErrInterrupted) {
			t.Fatalf("fireAt=%d structured: err=%v, want ErrInterrupted", fireAt, ref.err)
		}
		if ref.count == 0 {
			t.Fatalf("fireAt=%d structured: zero instructions charged before interrupt", fireAt)
		}
		if ref.calls != fireAt {
			t.Errorf("fireAt=%d structured: host ran %d times after flag set, want exactly %d", fireAt, ref.calls, fireAt)
		}
		for _, eng := range interruptEngines[1:] {
			got := runInterrupted(t, m, eng.engine, fireAt, 1000)
			if !errors.Is(got.err, interp.ErrInterrupted) {
				t.Errorf("fireAt=%d %s: err=%v, want ErrInterrupted", fireAt, eng.name, got.err)
			}
			if got.count != ref.count || got.cost != ref.cost || got.fuel != ref.fuel {
				t.Errorf("fireAt=%d %s diverged: count=%d cost=%d fuel=%d, structured count=%d cost=%d fuel=%d",
					fireAt, eng.name, got.count, got.cost, got.fuel, ref.count, ref.cost, ref.fuel)
			}
			if got.calls != fireAt {
				t.Errorf("fireAt=%d %s: host ran %d times, want exactly %d", fireAt, eng.name, got.calls, fireAt)
			}
		}
	}
}

// TestInterruptBeforeEntry pre-sets the flag: the function-entry segment
// leader must observe it before charging anything at all.
func TestInterruptBeforeEntry(t *testing.T) {
	m := interruptModule()
	for _, eng := range interruptEngines {
		got := runInterrupted(t, m, eng.engine, 0, 1000)
		if !errors.Is(got.err, interp.ErrInterrupted) {
			t.Errorf("%s: err=%v, want ErrInterrupted", eng.name, got.err)
		}
		if got.count != 0 || got.cost != 0 {
			t.Errorf("%s: charged count=%d cost=%d before entry, want 0", eng.name, got.count, got.cost)
		}
	}
}

// TestInterruptChargesPrefixOnly: the interrupted counters must be a strict
// prefix of the uninterrupted run's (never over-charged, never negative).
func TestInterruptChargesPrefixOnly(t *testing.T) {
	m := interruptModule()
	for _, eng := range interruptEngines {
		full := runInterrupted(t, m, eng.engine, -1, 1000) // never fires
		if full.err != nil {
			t.Fatalf("%s: uninterrupted run failed: %v", eng.name, full.err)
		}
		cut := runInterrupted(t, m, eng.engine, 5, 1000)
		if !errors.Is(cut.err, interp.ErrInterrupted) {
			t.Fatalf("%s: err=%v, want ErrInterrupted", eng.name, cut.err)
		}
		if cut.count == 0 || cut.count >= full.count {
			t.Errorf("%s: interrupted count=%d not a strict non-empty prefix of full count=%d", eng.name, cut.count, full.count)
		}
		if cut.cost >= full.cost {
			t.Errorf("%s: interrupted cost=%d >= full cost=%d", eng.name, cut.cost, full.cost)
		}
	}
}

// TestInterruptFlagUnboundOnReset: a pooled instance configured with an
// interrupt flag on one Get must not observe it after a Reset without one.
func TestInterruptFlagUnboundOnReset(t *testing.T) {
	m := interruptModule()
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noop := map[string]interp.HostFunc{
		"env.tick": func(vm *interp.VM, args []uint64) ([]uint64, error) { return nil, nil },
	}
	pool, err := cm.NewPool(interp.Config{Imports: noop}, interp.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var flag atomic.Bool
	flag.Store(true)
	vm, err := pool.Get(interp.Config{Imports: noop, Interrupt: &flag})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.InvokeExport("run", 10); !errors.Is(err, interp.ErrInterrupted) {
		t.Fatalf("interrupt-bound instance: err=%v, want ErrInterrupted", err)
	}
	pool.Put(vm)
	vm, err = pool.Get(interp.Config{Imports: noop}) // no Interrupt: stale flag must be unbound
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.InvokeExport("run", 10); err != nil {
		t.Fatalf("reset instance still interrupted: %v", err)
	}
	pool.Put(vm)
}
