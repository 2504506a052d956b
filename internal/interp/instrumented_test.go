package interp_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/wasm"
	"acctee/internal/weights"
	"acctee/internal/workloads"
)

// This file pins the register engine to the structured oracle on
// *instrumented* modules — the programs the rest of this package's suites
// run carry no injected counter. The lowering threads continuations past
// pure jumps and carries `counter += k` inside the statement it lands in
// (regalloc.go); neither may move a result, a trap, InstrCount, Cost,
// remaining fuel, memory or the counter global, at any instrumentation
// level, on return, at a trap, at any fuel value or at an interrupt.
// (The package's own tests cannot import the instrumenter — weights imports
// interp — so these live in the external test package, with the white-box
// views of export_test.go.)

// instrProgram is one program of the instrumented differential.
type instrProgram struct {
	name  string
	build func() (*wasm.Module, error)
	args  []uint64
	// trapArgs make the program trap quickly (nil: it has no such input).
	trapArgs []uint64
	trap     error
	// input bytes are seeded at workloads.InBase through a data segment.
	input int
}

func polyProgram(name string) instrProgram {
	return instrProgram{name: name, build: func() (*wasm.Module, error) {
		k, err := polybench.Get(name)
		if err != nil {
			return nil, err
		}
		return k.Build(8)
	}}
}

var instrPrograms = []instrProgram{
	// A 1<<20-pixel-wide image puts the third source row of the first box
	// past the end of memory: an out-of-bounds load in the inner loop.
	{name: "resize", build: workloads.BuildResize, args: []uint64{64, 64}, input: 64 * 64 * 4,
		trapArgs: []uint64{1 << 20, 256}, trap: interp.ErrOutOfBounds},
	{name: "echo", build: workloads.BuildEcho, args: []uint64{4096}, input: 4096},
	{name: "MSieve", build: workloads.BuildMSieve, args: []uint64{1_000_003, 2}},
	// A target past the DP bitset's four pages: the zeroing loop stores out
	// of bounds.
	{name: "SubsetSum", build: workloads.BuildSubsetSum, args: []uint64{12, 2000},
		trapArgs: []uint64{4, 1 << 24}, trap: interp.ErrOutOfBounds},
	polyProgram("gemm"), polyProgram("jacobi-2d"), polyProgram("cholesky"), polyProgram("doitgen"),
}

var instrLevels = []struct {
	name  string
	level instrument.Level
}{{"naive", instrument.Naive}, {"flow", instrument.FlowBased}, {"loop", instrument.LoopBased}}

// instrumented builds p at the given level, with its seeded input in place.
func instrumented(t *testing.T, p instrProgram, level instrument.Level) *instrument.Result {
	t.Helper()
	m, err := p.build()
	if err != nil {
		t.Fatal(err)
	}
	if p.input > 0 {
		in := make([]byte, p.input)
		rand.New(rand.NewSource(7)).Read(in)
		m.Data = append(m.Data, wasm.Data{Offset: wasm.ConstI32(workloads.InBase), Bytes: in})
	}
	res, err := instrument.Instrument(m, instrument.Options{Level: level})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tripModel is the calibrated cost model with a host-side trigger: its
// at-th MemCost call raises the interrupt flag. MemCost runs once per
// access in program order on both engines, so both observe the flag at the
// same next segment leader — a deterministic interrupt from a host callback
// in programs that import nothing.
type tripModel struct {
	*weights.Table
	n, at int
	flag  *atomic.Bool
}

func (m *tripModel) MemCost(addr, width uint32, store bool, memSize uint32) uint64 {
	if m.n++; m.n == m.at {
		m.flag.Store(true)
	}
	return m.Table.MemCost(addr, width, store, memSize)
}

// execution is one finished run, its instance kept for comparison.
type execution struct {
	vm  *interp.VM
	res []uint64
	err error
}

// runPair runs the export on one artifact under both engines and fails on
// the first observable that differs: error, results, InstrCount, Cost,
// remaining fuel, every global (the counter among them) and memory. The
// 8 MiB gateway memories are compared in place, not copied. cfg builds each
// engine's configuration (interrupt flags and triggers are per instance).
func runPair(t *testing.T, cm *interp.CompiledModule, cfg func(interp.Engine) interp.Config, args ...uint64) execution {
	t.Helper()
	var ex [2]execution
	for i, eng := range []interp.Engine{interp.EngineStructured, interp.EngineReg} {
		vm, err := cm.Instantiate(cfg(eng))
		if err != nil {
			t.Fatal(err)
		}
		ex[i].vm = vm
		ex[i].res, ex[i].err = vm.InvokeExport("run", args...)
	}
	ref, got := ex[0], ex[1]
	switch {
	case (got.err == nil) != (ref.err == nil) || (ref.err != nil && !errors.Is(got.err, ref.err)):
		t.Fatalf("error: reg %v, structured %v", got.err, ref.err)
	case fmt.Sprint(got.res) != fmt.Sprint(ref.res):
		t.Fatalf("results: reg %v, structured %v", got.res, ref.res)
	case got.vm.InstrCount() != ref.vm.InstrCount():
		t.Fatalf("InstrCount: reg %d, structured %d", got.vm.InstrCount(), ref.vm.InstrCount())
	case got.vm.Cost() != ref.vm.Cost():
		t.Fatalf("Cost: reg %d, structured %d", got.vm.Cost(), ref.vm.Cost())
	case got.vm.FuelRemaining() != ref.vm.FuelRemaining():
		t.Fatalf("FuelRemaining: reg %d, structured %d", got.vm.FuelRemaining(), ref.vm.FuelRemaining())
	case !bytes.Equal(got.vm.Memory(), ref.vm.Memory()):
		t.Fatalf("memory differs")
	}
	for i := range cm.Module().Globals {
		g, _ := got.vm.Global(uint32(i))
		r, _ := ref.vm.Global(uint32(i))
		if g != r {
			t.Fatalf("global %d: reg %d, structured %d", i, g, r)
		}
	}
	return got
}

// TestInstrumentedDifferential runs every program at every level through
// both engines: to completion, into a trap, at every fuel value across a
// window wider than one inner-loop iteration, and into an interrupt.
func TestInstrumentedDifferential(t *testing.T) {
	for _, p := range instrPrograms {
		for _, lv := range instrLevels {
			t.Run(p.name+"/"+lv.name, func(t *testing.T) {
				inst := instrumented(t, p, lv.level)
				cm, err := interp.Compile(inst.Module, interp.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				plain := func(fuel uint64) func(interp.Engine) interp.Config {
					return func(eng interp.Engine) interp.Config {
						return interp.Config{Engine: eng, Fuel: fuel, CostModel: weights.Calibrated()}
					}
				}

				full := runPair(t, cm, plain(0), p.args...)
				if full.err != nil {
					t.Fatalf("run%v: %v", p.args, full.err)
				}
				if c, _ := full.vm.Global(inst.CounterGlobal); c == 0 {
					t.Errorf("counter global is 0 after a full run")
				}

				if p.trapArgs != nil {
					if got := runPair(t, cm, plain(0), p.trapArgs...); !errors.Is(got.err, p.trap) {
						t.Errorf("run%v: err %v, want %v", p.trapArgs, got.err, p.trap)
					}
				}

				// Every fuel value across 64 instructions, from well inside
				// the run's loops: more than one inner-loop iteration of any
				// of the programs, so every statement of it, every leader and
				// every counter update is where the fuel runs out once.
				if n := full.vm.InstrCount(); n < 1200 {
					t.Fatalf("run is %d instructions, too short for the fuel window", n)
				}
				window := uint64(64)
				if testing.Short() {
					window = 16
				}
				for fuel := uint64(1000); fuel < 1000+window; fuel++ {
					if got := runPair(t, cm, plain(fuel), p.args...); !errors.Is(got.err, interp.ErrFuelExhausted) {
						t.Fatalf("fuel %d: err %v, want fuel exhaustion", fuel, got.err)
					}
				}

				// Interrupt from the cost model's 40th memory access; each
				// instance gets its own flag and trigger. MSieve touches no
				// memory, so nothing raises its flag and it runs to the end.
				got := runPair(t, cm, func(eng interp.Engine) interp.Config {
					flag := new(atomic.Bool)
					return interp.Config{Engine: eng, Fuel: 1 << 40, Interrupt: flag,
						CostModel: &tripModel{Table: weights.Calibrated(), at: 40, flag: flag}}
				}, p.args...)
				if got.err != nil && !errors.Is(got.err, interp.ErrInterrupted) {
					t.Errorf("interrupt: err %v", got.err)
				}
				if got.err == nil && p.name != "MSieve" {
					t.Errorf("the 40th memory access raised no interrupt")
				}
			})
		}
	}
}

// update emits the four-instruction window `g += k` the way the
// instrumenter does.
func update(f *wasm.FuncBuilder, g uint32, k int64) {
	f.GlobalGet(g).I64ConstV(k).Op(wasm.OpI64Add).GlobalSet(g)
}

// TestInlineUpdateHandBuilt drives the update window through every shape
// the lowering distinguishes: the ones it carries inside the statement
// (RegStats.InlineUpdates counts them) and every bail-out, where the update
// must stay the statement sink it always was. Each program runs on both
// engines with each argument (some trap) and at every fuel value of its
// first argument's run.
func TestInlineUpdateHandBuilt(t *testing.T) {
	i32, i64 := wasm.I32, wasm.I64
	const big = 0x7fff0000 // an address far outside the one-page memory
	cases := []struct {
		name    string
		inline  int // RegStats.InlineUpdates
		cmpBr   int // conditional branches testing their compare directly
		args    []uint64
		results []wasm.ValueType
		body    func(f *wasm.FuncBuilder, g, h, g32 uint32)
	}{
		{
			// The instrumented loop header: compare, update, br_if — one
			// statement whose branch tests the relation directly; and an
			// update in front of the back edge.
			name: "cmp_update_brif", inline: 3, cmpBr: 1, args: []uint64{0, 1, 9}, results: []wasm.ValueType{i64},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				i := f.Local(i32)
				f.Block(wasm.BlockEmpty, func() {
					f.Loop(wasm.BlockEmpty, func() {
						f.LocalGet(i).LocalGet(0).Op(wasm.OpI32GeS)
						update(f, g, 7)
						f.BrIf(1)
						f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
						update(f, g, 3)
						f.Br(0)
					})
				})
				update(f, g, 1)
				f.GlobalGet(g)
			},
		},
		{
			// An update in front of an if: the eqz still reaches the branch.
			name: "eqz_update_if", inline: 1, cmpBr: 1, args: []uint64{0, 5}, results: []wasm.ValueType{i64},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.LocalGet(0).Op(wasm.OpI32Eqz)
				update(f, g, 11)
				f.If(wasm.BlockEmpty, func() { f.I64ConstV(-1).GlobalSet(h) }, nil)
				f.GlobalGet(g).GlobalGet(h).Op(wasm.OpI64Add)
			},
		},
		{
			// A trap after the update, in the same statement: the load runs
			// after `g += 5`, so both engines leave g at 105 when it traps.
			name: "trap_after_update", inline: 1, args: []uint64{64, big}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				r := f.Local(i32)
				update(f, g, 5)
				f.LocalGet(0).Load(wasm.OpI32Load, 0).LocalSet(r)
				f.LocalGet(r).I32Const(1).Op(wasm.OpI32Add)
			},
		},
		{
			// Two updates and a later global.get in one statement: effects
			// run in order, and the get (pushed after them) sees both.
			name: "two_updates_then_get", inline: 2, args: []uint64{3}, results: []wasm.ValueType{i64},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.LocalGet(0).Op(wasm.OpI64ExtendI32U)
				update(f, g, 5)
				update(f, h, 6)
				f.GlobalGet(g).Op(wasm.OpI64Add).GlobalGet(h).Op(wasm.OpI64Add)
			},
		},
		{
			// Division by a non-zero constant cannot trap, so it does not
			// stop an update that follows it.
			name: "const_div_before", inline: 1, args: []uint64{100, 0x80000000}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.LocalGet(0).I32Const(3).Op(wasm.OpI32DivS)
				update(f, g, 5)
			},
		},
		// --- bail-outs: the update stays a sink -------------------------
		{
			// A load pending in the statement can trap before the update
			// that program order puts after it: g must stay 100 on the trap.
			name: "bail_load_before", args: []uint64{64, big}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.LocalGet(0).Load(wasm.OpI32Load, 0)
				update(f, g, 5)
			},
		},
		{
			// So can a division by a variable.
			name: "bail_div_before", args: []uint64{7, 0}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.I32Const(100).LocalGet(0).Op(wasm.OpI32DivU)
				update(f, g, 5)
			},
		},
		{
			// A pending read of the same global must see the old value.
			name: "bail_get_same_global_before", args: []uint64{0}, results: []wasm.ValueType{i64},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.GlobalGet(g)
				update(f, g, 5)
				f.GlobalGet(g).Op(wasm.OpI64Sub) // old - new = -5
			},
		},
		{
			name: "bail_tee_before", args: []uint64{42}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				r := f.Local(i32)
				f.LocalGet(0).LocalTee(r)
				update(f, g, 5)
				f.LocalGet(r).Op(wasm.OpI32Add)
			},
		},
		{
			name: "bail_memory_size_before", args: []uint64{0}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.Op(wasm.OpMemorySize)
				update(f, g, 5)
			},
		},
		{
			// g read, h written: not an update of one counter.
			name: "bail_different_global", args: []uint64{0}, results: []wasm.ValueType{i64},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.GlobalGet(g).I64ConstV(5).Op(wasm.OpI64Add).GlobalSet(h)
				f.GlobalGet(g).GlobalGet(h).Op(wasm.OpI64Mul)
			},
		},
		{
			// The i32 look-alike.
			name: "bail_i32_lookalike", args: []uint64{0}, results: []wasm.ValueType{i32},
			body: func(f *wasm.FuncBuilder, g, h, g32 uint32) {
				f.GlobalGet(g32).I32Const(5).Op(wasm.OpI32Add).GlobalSet(g32)
				f.GlobalGet(g32)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := wasm.NewModule(tc.name)
			b.Memory(1, 1)
			g := b.Global("g", i64, true, wasm.ConstI64(100))
			h := b.Global("h", i64, true, wasm.ConstI64(1000))
			g32 := b.Global("g32", i32, true, wasm.ConstI32(10))
			f := b.Func("run", []wasm.ValueType{i32}, tc.results)
			tc.body(f, g, h, g32)
			b.ExportFunc("run", f.End())
			cm, err := interp.Compile(b.MustBuild(), interp.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := cm.RegStats().InlineUpdates; got != tc.inline {
				t.Errorf("InlineUpdates = %d, want %d", got, tc.inline)
			}
			if got := cm.RegCmpBranches(); got != tc.cmpBr {
				t.Errorf("compare-and-branch closures = %d, want %d", got, tc.cmpBr)
			}
			cfg := func(fuel uint64) func(interp.Engine) interp.Config {
				return func(eng interp.Engine) interp.Config {
					return interp.Config{Engine: eng, Fuel: fuel, CostModel: weights.Calibrated()}
				}
			}
			var first uint64
			for i, a := range tc.args {
				got := runPair(t, cm, cfg(0), a)
				if i == 0 {
					if got.err != nil {
						t.Fatalf("run(%d): %v", a, got.err)
					}
					first = got.vm.InstrCount()
				}
			}
			for fuel := uint64(1); fuel < first; fuel++ {
				if got := runPair(t, cm, cfg(fuel), tc.args[0]); !errors.Is(got.err, interp.ErrFuelExhausted) {
					t.Fatalf("fuel %d of %d: err %v", fuel, first, got.err)
				}
			}
		})
	}
}

// pureJumpOp reports whether an instruction's closure would only return an
// index (resize has no calls and every br of it carries no results).
func pureJumpOp(body []wasm.Instr, pc int) bool {
	switch body[pc].Op {
	case wasm.OpNop, wasm.OpBlock, wasm.OpLoop, wasm.OpBr:
		return true
	case wasm.OpEnd:
		return pc != len(body)-1
	}
	return false
}

// TestRegSeesThroughInstrumentation pins, on the instrumented resize module
// at every level, what the two lowering changes buy: every `compare;
// update; br_if/if` is one statement, as many branches test their compare
// directly as in the plain module, and a whole run never dispatches a
// closure that would only have returned another index. It logs the
// dispatches per output channel (128x128 in: 16,384 channels).
func TestRegSeesThroughInstrumentation(t *testing.T) {
	plainM, err := workloads.BuildResize()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := interp.Compile(plainM, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s := plain.RegStats(); s.InlineUpdates != 0 || s.Threaded == 0 {
		t.Errorf("plain resize: %+v, want no inline updates and some threaded continuations", s)
	}
	for _, lv := range instrLevels {
		t.Run(lv.name, func(t *testing.T) {
			inst := instrumented(t, instrProgram{build: workloads.BuildResize}, lv.level)
			cm, err := interp.Compile(inst.Module, interp.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			body := cm.RegBody(0)
			headers := 0
			for _, sp := range cm.RegSpans(0) {
				for pc := sp.PC; pc < sp.PC+sp.Width; pc++ {
					// A window directly in front of a conditional branch...
					if op := body[pc].Op; (op != wasm.OpBrIf && op != wasm.OpIf) || pc < 4 ||
						body[pc-1].Op != wasm.OpGlobalSet || body[pc-1].Idx != inst.CounterGlobal ||
						body[pc-4].Op != wasm.OpGlobalGet {
						continue
					}
					// ...shares its statement with the condition before it.
					headers++
					if sp.PC > pc-5 {
						t.Errorf("pc %d: %v after an update starts its statement at pc %d, behind the condition", pc, body[pc].Op, sp.PC)
					}
				}
			}
			if headers == 0 {
				t.Errorf("no update in front of a conditional branch: nothing checked")
			}
			if got, want := cm.RegCmpBranches(), plain.RegCmpBranches(); got != want || want == 0 {
				t.Errorf("%d branches test their compare directly, the plain module has %d", got, want)
			}
			if s := cm.RegStats(); s.InlineUpdates == 0 || s.Threaded == 0 {
				t.Errorf("RegStats %+v: want inline updates and threaded continuations", s)
			}
			// What still reads a register through a leaf evaluator: the
			// div/rem by a variable, the box-size divisions' operands and
			// the store's value. The inner loop's 21-instruction address-
			// and-accumulate statement — five register operands beside
			// subtrees — builds none.
			if got := cm.RegStats().LeafOperands; got != 8 {
				t.Errorf("LeafOperands = %d, want 8", got)
			}
			inner := 0
			for _, sp := range cm.RegSpans(0) {
				if sp.Width == 21 {
					inner++
					if got := cm.RegLeafOperands(0, sp.PC); got != 0 {
						t.Errorf("the inner-loop statement at pc %d builds %d leaf evaluators", sp.PC, got)
					}
				}
			}
			if inner != 1 {
				t.Errorf("%d statements of 21 instructions, want the inner loop's one", inner)
			}

			vm, err := cm.Instantiate(interp.Config{})
			if err != nil {
				t.Fatal(err)
			}
			pcs, err := vm.TraceReg(0, 128, 128)
			if err != nil {
				t.Fatal(err)
			}
			leader := map[int]bool{}
			for _, sp := range cm.RegSpans(0) {
				leader[sp.PC] = sp.Leader
			}
			for _, pc := range pcs {
				if pureJumpOp(body, pc) && !leader[pc] {
					t.Fatalf("dispatched pc %d (%v): a non-leader pure jump", pc, body[pc].Op)
				}
			}
			t.Logf("%d headers in one statement, %.1f dispatches per output channel", headers, float64(len(pcs))/16384)
		})
	}
}
