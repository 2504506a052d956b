package interp_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// This file pins what moved out of the closure stream and into the driver:
// the per-leader step (interrupt poll, fuel test, batched charge) that
// execReg now performs itself, and the two mixed operand layouts of the
// hand-inlined binary operators. The oracle is the structured engine
// throughout.

// tripConfig is a per-instance configuration whose interrupt flag is raised
// by the cost model's trip-th memory access (0: never) — tripModel's
// deterministic host-side trigger (instrumented_test.go).
func tripConfig(eng interp.Engine, fuel uint64, trip int) interp.Config {
	flag := new(atomic.Bool)
	return interp.Config{Engine: eng, Fuel: fuel, Interrupt: flag,
		CostModel: &tripModel{Table: weights.Calibrated(), at: trip, flag: flag}}
}

// diffTripped is diffEngines with per-instance interrupt state: it runs
// entry on both engines under tripConfig and requires identical
// observations, returning the register engine's.
func diffTripped(t *testing.T, m *wasm.Module, fuel uint64, trip int, entry string, args ...uint64) obs {
	t.Helper()
	ref := observe(t, m, tripConfig(interp.EngineStructured, fuel, trip), entry, args...)
	got := observe(t, m, tripConfig(interp.EngineReg, fuel, trip), entry, args...)
	if (got.err == nil) != (ref.err == nil) || (ref.err != nil && !errors.Is(got.err, ref.err)) {
		t.Fatalf("error: reg %v, structured %v", got.err, ref.err)
	}
	gerr := got.err
	got.err, ref.err = nil, nil
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("fuel %d trip %d: reg and structured differ (err %v):\n reg        results %v InstrCount %d Cost %d fuel %d globals %v\n structured results %v InstrCount %d Cost %d fuel %d globals %v",
			fuel, trip, gerr, got.res, got.count, got.cost, got.fuel, got.global, ref.res, ref.count, ref.cost, ref.fuel, ref.global)
	}
	got.err = gerr
	return got
}

// FuzzEngineDifferential runs a generated program on both engines under a
// fuel budget (0: unlimited) and an interrupt point (the trip-th memory
// access; 0: none) and requires equal results, error, InstrCount, Cost,
// remaining fuel, globals and memory. The generators are the differential
// suites' own; a large argument reaches their one trapping shape (the f64
// detour's truncation overflows).
func FuzzEngineDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, flat bool, arg uint32, fuel uint16, trip uint8) {
		rng := rand.New(rand.NewSource(seed))
		var m *wasm.Module
		if flat {
			m = randomFlatProgram(rng)
		} else {
			m = randomProgram(rng)
		}
		diffTripped(t, m, uint64(fuel), int(trip), "main", uint64(arg))
	})
}

// definedIndex is the defined-function index (TraceReg's) of an export.
func definedIndex(t *testing.T, m *wasm.Module, name string) int {
	t.Helper()
	idx, ok := m.ExportedFunc(name)
	if !ok {
		t.Fatalf("no export %q", name)
	}
	return int(idx) - m.NumImportedFuncs()
}

// TestTraceRegAccountingMatchesExec holds TraceReg, the white-box driver the
// dispatch-count tests read, to execReg: both run the same leader step, so a
// traced run and a plain Invoke must end with identical totals on return, at
// a fuel value inside the run and at an interrupt.
func TestTraceRegAccountingMatchesExec(t *testing.T) {
	for _, p := range instrPrograms {
		for _, lv := range instrLevels {
			t.Run(p.name+"/"+lv.name, func(t *testing.T) {
				inst := instrumented(t, p, lv.level)
				cm, err := interp.Compile(inst.Module, interp.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fi := definedIndex(t, inst.Module, "run")
				for _, sc := range []struct {
					name string
					fuel uint64
					trip int
					want error
				}{
					{"return", 0, 0, nil},
					{"fuel", 1017, 0, interp.ErrFuelExhausted},
					{"interrupt", 1 << 40, 40, interp.ErrInterrupted},
				} {
					plain, err := cm.Instantiate(tripConfig(interp.EngineReg, sc.fuel, sc.trip))
					if err != nil {
						t.Fatal(err)
					}
					_, perr := plain.InvokeExport("run", p.args...)
					traced, err := cm.Instantiate(tripConfig(interp.EngineReg, sc.fuel, sc.trip))
					if err != nil {
						t.Fatal(err)
					}
					_, terr := traced.TraceReg(fi, p.args...)
					want := sc.want
					if p.name == "MSieve" && sc.trip != 0 {
						want = nil // it touches no memory: nothing raises the flag
					}
					if !errors.Is(perr, want) || !errors.Is(terr, want) {
						t.Fatalf("%s: Invoke err %v, TraceReg err %v, want %v", sc.name, perr, terr, want)
					}
					if traced.InstrCount() != plain.InstrCount() || traced.Cost() != plain.Cost() ||
						traced.FuelRemaining() != plain.FuelRemaining() {
						t.Errorf("%s: traced InstrCount %d Cost %d fuel %d, Invoke %d %d %d", sc.name,
							traced.InstrCount(), traced.Cost(), traced.FuelRemaining(),
							plain.InstrCount(), plain.Cost(), plain.FuelRemaining())
					}
					for g := range inst.Module.Globals {
						a, _ := traced.Global(uint32(g))
						b, _ := plain.Global(uint32(g))
						if a != b {
							t.Errorf("%s: global %d: traced %d, Invoke %d", sc.name, g, a, b)
						}
					}
				}
			})
		}
	}
}

// mixedOps are the operators regBinEvalSpec hand-inlines over the two mixed
// layouts (register ⊕ subtree, subtree ⊕ register), with their operand type
// and its natural-width load.
var mixedOps = []struct {
	op   wasm.Opcode
	vt   wasm.ValueType
	load wasm.Opcode
}{
	{wasm.OpI32Add, wasm.I32, wasm.OpI32Load}, {wasm.OpI32Sub, wasm.I32, wasm.OpI32Load},
	{wasm.OpI32Mul, wasm.I32, wasm.OpI32Load}, {wasm.OpI32And, wasm.I32, wasm.OpI32Load},
	{wasm.OpI32Or, wasm.I32, wasm.OpI32Load}, {wasm.OpI32Xor, wasm.I32, wasm.OpI32Load},
	{wasm.OpI64Add, wasm.I64, wasm.OpI64Load}, {wasm.OpI64Sub, wasm.I64, wasm.OpI64Load},
	{wasm.OpI64Mul, wasm.I64, wasm.OpI64Load},
	{wasm.OpF64Add, wasm.F64, wasm.OpF64Load}, {wasm.OpF64Sub, wasm.F64, wasm.OpF64Load},
	{wasm.OpF64Mul, wasm.F64, wasm.OpF64Load}, {wasm.OpF64Div, wasm.F64, wasm.OpF64Load},
	{wasm.OpF32Add, wasm.F32, wasm.OpF32Load}, {wasm.OpF32Mul, wasm.F32, wasm.OpF32Load},
}

// valueBits boxes the small integer v as a value of type vt.
func valueBits(vt wasm.ValueType, v int) uint64 {
	switch vt {
	case wasm.F64:
		return math.Float64bits(float64(v))
	case wasm.F32:
		return uint64(math.Float32bits(float32(v)))
	}
	return uint64(v)
}

// constOf is `vt.const v`.
func constOf(vt wasm.ValueType, v int) wasm.Instr {
	switch vt {
	case wasm.I32:
		return wasm.ConstI32(int32(v))
	case wasm.I64:
		return wasm.ConstI64(int64(v))
	case wasm.F32:
		return wasm.ConstF32(float32(v))
	}
	return wasm.ConstF64(float64(v))
}

// TestMixedLayoutOperandOrder: a local.tee inside the subtree operand writes
// the very register the other operand reads. Program order decides which
// value the register read sees — the old one when it is the left operand,
// the new one when it is the right — for every operator the mixed layouts
// inline. Called with 9 and teeing 6, every operator tells `9 op 6` and
// `6 op 9` from `6 op 6`.
func TestMixedLayoutOperandOrder(t *testing.T) {
	for _, o := range mixedOps {
		for _, regLeft := range []bool{true, false} {
			b := wasm.NewModule("order")
			f := b.Func("f", []wasm.ValueType{o.vt}, []wasm.ValueType{o.vt})
			if regLeft {
				f.LocalGet(0).Emit(constOf(o.vt, 6)).LocalTee(0)
			} else {
				f.Emit(constOf(o.vt, 6)).LocalTee(0).LocalGet(0)
			}
			f.Op(o.op)
			b.ExportFunc("f", f.End())
			got := diffEngines(t, b.MustBuild(), interp.Config{CostModel: weights.Calibrated()}, "f", valueBits(o.vt, 9))
			if got.err != nil {
				t.Fatalf("%v regLeft=%v: %v", o.op, regLeft, got.err)
			}
			// The same operator on two parameters, no tee: the expected value.
			l, r := 6, 6
			if regLeft {
				l = 9
			}
			if want := call1(t, binop(t, o.op, o.vt, o.vt), valueBits(o.vt, l), valueBits(o.vt, r)); got.res[0] != want {
				t.Errorf("%v regLeft=%v: %#x, want %#x (%d op %d)", o.op, regLeft, got.res[0], want, l, r)
			}
		}
	}
}

// TestMixedLayoutBesideFaultingLoad puts an out-of-bounds load in the
// subtree operand: the load latches the fault, the mixed-layout closure
// still returns a value and the statement's commit converts the latch into
// the trap, leaving the set undone and InstrCount/Cost equal to the
// oracle's — at every fuel value of the run as well.
func TestMixedLayoutBesideFaultingLoad(t *testing.T) {
	for _, o := range mixedOps {
		for _, regLeft := range []bool{true, false} {
			b := wasm.NewModule("fault")
			b.Memory(1, 1)
			g := b.Global("g", o.vt, true, constOf(o.vt, 0))
			f := b.Func("f", []wasm.ValueType{o.vt, wasm.I32}, []wasm.ValueType{o.vt})
			if regLeft {
				f.LocalGet(0).LocalGet(1).Load(o.load, 0)
			} else {
				f.LocalGet(1).Load(o.load, 0).LocalGet(0)
			}
			f.Op(o.op).GlobalSet(g).GlobalGet(g)
			b.ExportFunc("f", f.End())
			m := b.MustBuild()
			cfg := interp.Config{CostModel: weights.Calibrated()}
			if got := diffEngines(t, m, cfg, "f", valueBits(o.vt, 9), 16); got.err != nil {
				t.Fatalf("%v regLeft=%v in bounds: %v", o.op, regLeft, got.err)
			}
			full := diffEngines(t, m, cfg, "f", valueBits(o.vt, 9), 0x7fff0000)
			if !errors.Is(full.err, interp.ErrOutOfBounds) {
				t.Fatalf("%v regLeft=%v: err %v, want out of bounds", o.op, regLeft, full.err)
			}
			if full.global[0] != 0 {
				t.Errorf("%v regLeft=%v: the global was set to %#x before the trap", o.op, regLeft, full.global[0])
			}
			for fuel := uint64(1); fuel <= full.count+1; fuel++ {
				cfg.Fuel = fuel
				diffEngines(t, m, cfg, "f", valueBits(o.vt, 9), 0x7fff0000)
			}
		}
	}
}

// spanAt returns function fi's span starting at pc.
func spanAt(t *testing.T, cm *interp.CompiledModule, fi, pc int) interp.RegSpan {
	t.Helper()
	for _, sp := range cm.RegSpans(fi) {
		if sp.PC == pc {
			return sp
		}
	}
	t.Fatalf("func %d: no span starts at pc %d", fi, pc)
	return interp.RegSpan{}
}

// TestLeaderChargeOnlyAtEntry: a function whose first instruction is `loop`
// has a charge-only leader at pc 0 — the driver charges the entry segment
// there and the closure only returns the threaded index. Every fuel value
// of the run, and an interrupt flag already raised at entry.
func TestLeaderChargeOnlyAtEntry(t *testing.T) {
	b := wasm.NewModule("loopfirst")
	b.Memory(1, 1)
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := f.Local(wasm.I32)
	f.Loop(wasm.BlockEmpty, func() {
		f.LocalGet(i).LocalGet(i).Store(wasm.OpI32Store8, 0)
		f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalTee(i)
		f.LocalGet(0).Op(wasm.OpI32LtU).BrIf(0)
	})
	f.LocalGet(i)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sp := spanAt(t, cm, 0, 0); !sp.Leader || sp.Op != wasm.OpLoop || sp.Width != 1 {
		t.Fatalf("pc 0 is %+v, want a one-instruction leader `loop`", sp)
	}
	vm, err := cm.Instantiate(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pcs, err := vm.TraceReg(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, pc := range pcs {
		if pc == 0 {
			entries++
		}
	}
	if entries != 1 {
		t.Errorf("pc 0 dispatched %d times in %v, want once", entries, pcs)
	}
	full := diffTripped(t, m, 0, 0, "f", 5)
	if full.err != nil || full.res[0] != 5 {
		t.Fatalf("f(5) = %v, %v", full.res, full.err)
	}
	for fuel := uint64(1); fuel < full.count; fuel++ {
		if got := diffTripped(t, m, fuel, 0, "f", 5); !errors.Is(got.err, interp.ErrFuelExhausted) {
			t.Fatalf("fuel %d of %d: err %v", fuel, full.count, got.err)
		}
	}
	// The second store raises the flag; the next leader is the loop's.
	if got := diffTripped(t, m, 0, 2, "f", 5); !errors.Is(got.err, interp.ErrInterrupted) {
		t.Errorf("interrupt: err %v", got.err)
	}
	for _, eng := range interruptEngines {
		cfg := tripConfig(eng.engine, 0, 0)
		cfg.Interrupt.Store(true)
		o := observe(t, m, cfg, "f", 5)
		if !errors.Is(o.err, interp.ErrInterrupted) || o.count != 0 || o.cost != 0 {
			t.Errorf("%s, flag raised before entry: err %v, InstrCount %d, Cost %d", eng.name, o.err, o.count, o.cost)
		}
	}
}

// TestLeaderInsideInlinedCallee: the callee is spliced into its caller, its
// call to a loop-bearing helper stays residual, and the instruction after
// that call is a leader inside the inlined region whose segment reads and
// writes the callee's own locals — frame slots above the caller's numLoc,
// which the fuel tail must address through the full frame. Every fuel value
// of a 64-instruction window well inside the run.
func TestLeaderInsideInlinedCallee(t *testing.T) {
	b := wasm.NewModule("inl")
	spin := b.Func("spin", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	k := spin.Local(wasm.I32)
	spin.ForI32(k, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.ConstI32(2)}, 1, func() {
		spin.LocalGet(0).I32Const(3).Op(wasm.OpI32Add).LocalSet(0)
	})
	spin.LocalGet(0)
	spinIdx := spin.End()
	mix := b.Func("mix", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	u, v := mix.Local(wasm.I32), mix.Local(wasm.I32)
	mix.LocalGet(0).I32Const(5).Op(wasm.OpI32Mul).LocalSet(u)
	mix.LocalGet(u).Call(spinIdx).LocalSet(v)
	mix.LocalGet(v).LocalGet(u).Op(wasm.OpI32Xor).LocalSet(u)
	mix.LocalGet(u).LocalGet(v).Op(wasm.OpI32Add).I32Const(7).Op(wasm.OpI32Mul).LocalSet(v)
	mix.LocalGet(v).LocalGet(u).Op(wasm.OpI32Sub)
	mixIdx := mix.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	j, acc := f.Local(wasm.I32), f.Local(wasm.I32)
	f.ForI32(j, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(acc).LocalGet(j).Op(wasm.OpI32Add).Call(mixIdx).LocalSet(acc)
	})
	f.LocalGet(acc)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()

	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := cm.InlineStats; s.SitesInlined != 1 {
		t.Fatalf("InlineStats %+v: want exactly mix spliced into f", s)
	}
	fi := definedIndex(t, m, "f")
	body := cm.RegBody(fi)
	inside := 0
	for _, sp := range cm.RegSpans(fi) {
		if sp.Leader && sp.PC > 0 && body[sp.PC-1].Op == wasm.OpCall && body[sp.PC-1].Idx == spinIdx {
			inside++
		}
	}
	if inside != 1 {
		t.Fatalf("%d leaders follow the residual call inside the inlined region, want 1", inside)
	}
	full := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", 12)
	if full.err != nil || full.count < 400 {
		t.Fatalf("f(12): err %v, %d instructions", full.err, full.count)
	}
	for fuel := uint64(200); fuel < 264; fuel++ { // an iteration is 59 instructions
		got := diffEngines(t, m, interp.Config{Fuel: fuel, CostModel: weights.Calibrated()}, "f", 12)
		if !errors.Is(got.err, interp.ErrFuelExhausted) {
			t.Fatalf("fuel %d: err %v", fuel, got.err)
		}
	}
}

// TestInterruptAtCalleeEntryLeader: fib stores its argument in the segment
// that ends in its first recursive call, so the store that raises the flag
// is followed by no leader of the same activation: the flag is first
// observed at the entry leader of the callee, two or more residual calls
// below the export. The error climbs through every activation without
// rollback (the call is the last instruction of its segment) and the totals
// equal the oracle's.
func TestInterruptAtCalleeEntryLeader(t *testing.T) {
	b := wasm.NewModule("fibstore")
	b.Memory(1, 1)
	fib := b.Func("fib", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	fib.LocalGet(0).I32Const(2).Op(wasm.OpI32LtU)
	fib.If(wasm.BlockOf(wasm.I32), func() {
		fib.LocalGet(0)
	}, func() {
		fib.I32Const(0).LocalGet(0).Store(wasm.OpI32Store, 0)
		fib.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(fib.Index)
		fib.LocalGet(0).I32Const(2).Op(wasm.OpI32Sub).Call(fib.Index)
		fib.Op(wasm.OpI32Add)
	})
	fib.End()
	run := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	run.LocalGet(0).Call(fib.Index)
	b.ExportFunc("run", run.End())
	m := b.MustBuild()

	full := diffTripped(t, m, 0, 0, "run", 10)
	if full.err != nil || full.res[0] != 55 {
		t.Fatalf("fib(10) = %v, %v", full.res, full.err)
	}
	// The trip-th store is made by fib(11-trip), trip calls below run; the
	// flag is seen on entry to fib(10-trip), before it charges anything.
	for _, trip := range []int{1, 2, 7} {
		for _, fuel := range []uint64{0, 1 << 30} {
			got := diffTripped(t, m, fuel, trip, "run", 10)
			if !errors.Is(got.err, interp.ErrInterrupted) {
				t.Fatalf("trip %d fuel %d: err %v", trip, fuel, got.err)
			}
			if got.count == 0 || got.count >= full.count {
				t.Errorf("trip %d: InstrCount %d of %d", trip, got.count, full.count)
			}
			if fuel != 0 && got.fuel != fuel-got.count {
				t.Errorf("trip %d: %d fuel left of %d after %d instructions", trip, got.fuel, fuel, got.count)
			}
		}
	}
}
