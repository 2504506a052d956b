package interp_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// This file pins the default register engine to the structured reference
// engine: the lowering passes (branch sidetable, stack heights, segment
// accounting, statement compilation) must be observationally identical —
// results, traps, InstrCount, weighted Cost, remaining fuel, and final
// memory/global state — on every program.

// obs is everything observable about one execution.
type obs struct {
	res    []uint64
	err    error
	count  uint64
	cost   uint64
	fuel   uint64
	memory []byte
	global []uint64
}

func observe(t *testing.T, m *wasm.Module, cfg interp.Config, entry string, args ...uint64) obs {
	t.Helper()
	vm, err := interp.Instantiate(m, cfg)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := vm.InvokeExport(entry, args...)
	o := obs{
		res:    res,
		err:    err,
		count:  vm.InstrCount(),
		cost:   vm.Cost(),
		fuel:   vm.FuelRemaining(),
		memory: memoryOf(t, vm),
	}
	for i := range vm.Module().Globals {
		g, _ := vm.Global(uint32(i))
		o.global = append(o.global, g)
	}
	return o
}

// memoryOf copies vm's whole linear memory.
func memoryOf(t *testing.T, vm *interp.VM) []byte {
	t.Helper()
	view, err := vm.MemoryView(0, vm.MemorySize())
	if err != nil {
		t.Fatalf("MemoryView: %v", err)
	}
	return bytes.Clone(view)
}

// diffEngines runs entry under the structured reference engine and the
// default register engine and requires identical observations; it returns
// the register engine's observation.
func diffEngines(t *testing.T, m *wasm.Module, cfg interp.Config, entry string, args ...uint64) obs {
	t.Helper()
	cfg.Engine = interp.EngineStructured
	ref := observe(t, m, cfg, entry, args...)
	cfg.Engine = interp.EngineReg
	got := observe(t, m, cfg, entry, args...)

	if (got.err == nil) != (ref.err == nil) || (ref.err != nil && !errors.Is(got.err, ref.err)) {
		t.Errorf("error diverged: reg=%v structured=%v", got.err, ref.err)
	}
	if len(got.res) != len(ref.res) {
		t.Errorf("result arity diverged: reg=%v structured=%v", got.res, ref.res)
	} else {
		for i := range got.res {
			if got.res[i] != ref.res[i] {
				t.Errorf("result[%d] diverged: reg=%d structured=%d", i, got.res[i], ref.res[i])
			}
		}
	}
	if got.count != ref.count {
		t.Errorf("InstrCount diverged: reg=%d structured=%d", got.count, ref.count)
	}
	if got.cost != ref.cost {
		t.Errorf("Cost diverged: reg=%d structured=%d", got.cost, ref.cost)
	}
	if got.fuel != ref.fuel {
		t.Errorf("FuelRemaining diverged: reg=%d structured=%d", got.fuel, ref.fuel)
	}
	if !bytes.Equal(got.memory, ref.memory) {
		t.Errorf("final memory diverged (reg vs structured)")
	}
	for i := range ref.global {
		if got.global[i] != ref.global[i] {
			t.Errorf("global %d diverged: reg=%d structured=%d", i, got.global[i], ref.global[i])
		}
	}
	return got
}

// TestBranchTargetPrecompilation drives every branch shape the lowering
// pass precompiles through both engines and checks the expected values.
func TestBranchTargetPrecompilation(t *testing.T) {
	cases := []struct {
		name  string
		build func() *wasm.Module
		args  []uint64
		want  uint64
	}{
		{
			// br_table: in-range, edge (last non-default) and default index.
			name: "br_table_edge0",
			build: func() *wasm.Module {
				return buildBrTableModule()
			},
			args: []uint64{0}, want: 10,
		},
		{name: "br_table_edge1", build: buildBrTableModule, args: []uint64{1}, want: 20},
		{name: "br_table_default_first_oob", build: buildBrTableModule, args: []uint64{2}, want: 99},
		{name: "br_table_default_large", build: buildBrTableModule, args: []uint64{0xFFFFFFFF}, want: 99},
		{
			// if without else, both arms of the condition.
			name: "if_no_else_taken",
			build: func() *wasm.Module {
				b := wasm.NewModule("ine")
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				r := f.Local(wasm.I32)
				f.I32Const(5).LocalSet(r)
				f.LocalGet(0)
				f.If(wasm.BlockEmpty, func() {
					f.I32Const(42).LocalSet(r)
				}, nil)
				f.LocalGet(r)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{1}, want: 42,
		},
		{name: "if_no_else_skipped", build: func() *wasm.Module {
			b := wasm.NewModule("ine")
			f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
			r := f.Local(wasm.I32)
			f.I32Const(5).LocalSet(r)
			f.LocalGet(0)
			f.If(wasm.BlockEmpty, func() {
				f.I32Const(42).LocalSet(r)
			}, nil)
			f.LocalGet(r)
			b.ExportFunc("f", f.End())
			return b.MustBuild()
		}, args: []uint64{0}, want: 5},
		{
			// branch with a result value out of nested blocks: the sidetable
			// must copy the label result down to the precomputed height.
			name: "br_value_nested_blocks",
			build: func() *wasm.Module {
				b := wasm.NewModule("bv")
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.Block(wasm.BlockOf(wasm.I32), func() {
					f.I32Const(1000) // clutter below the branch value
					f.Block(wasm.BlockEmpty, func() {
						f.LocalGet(0)
						f.BrIf(0)
						f.I32Const(7)
						f.Br(1) // carries 7 out of both blocks
					})
					f.Op(wasm.OpDrop)
					f.I32Const(3)
				})
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{0}, want: 7,
		},
		{name: "br_value_nested_blocks_other_arm", build: func() *wasm.Module {
			b := wasm.NewModule("bv")
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
			return b.MustBuild()
		}, args: []uint64{1}, want: 3},
		{
			// branch out of two nested loops from the inner body.
			name: "br_out_of_nested_loops",
			build: func() *wasm.Module {
				b := wasm.NewModule("nl")
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				n := f.Local(wasm.I32)
				f.Block(wasm.BlockEmpty, func() {
					f.Loop(wasm.BlockEmpty, func() { // outer
						f.Loop(wasm.BlockEmpty, func() { // inner
							f.LocalGet(n).I32Const(1).Op(wasm.OpI32Add).LocalSet(n)
							// escape both loops and the block once n == arg
							f.LocalGet(n).LocalGet(0).Op(wasm.OpI32Eq).BrIf(2)
							f.Br(0) // back to inner header
						})
					})
				})
				f.LocalGet(n)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{23}, want: 23,
		},
		{
			// backward branch target: continue the outer loop from the inner.
			name: "continue_outer_loop",
			build: func() *wasm.Module {
				b := wasm.NewModule("co")
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				i := f.Local(wasm.I32)
				total := f.Local(wasm.I32)
				f.Block(wasm.BlockEmpty, func() {
					f.Loop(wasm.BlockEmpty, func() { // outer
						f.LocalGet(i).I32Const(1).Op(wasm.OpI32Add).LocalSet(i)
						f.LocalGet(i).I32Const(5).Op(wasm.OpI32GtS).BrIf(1) // done
						f.Loop(wasm.BlockEmpty, func() {                    // inner
							f.LocalGet(total).LocalGet(i).Op(wasm.OpI32Add).LocalSet(total)
							f.Br(1) // continue outer: backward branch across inner
						})
					})
				})
				f.LocalGet(total)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			want: 1 + 2 + 3 + 4 + 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := diffEngines(t, tc.build(), interp.Config{CostModel: weights.Calibrated()}, "f", tc.args...)
			if o.err != nil {
				t.Fatalf("unexpected trap: %v", o.err)
			}
			if o.res[0] != tc.want {
				t.Errorf("result = %d, want %d", o.res[0], tc.want)
			}
		})
	}
}

func buildBrTableModule() *wasm.Module {
	b := wasm.NewModule("bt")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	r := f.Local(wasm.I32)
	f.I32Const(99).LocalSet(r) // default branch leaves this value
	f.Block(wasm.BlockEmpty, func() {
		f.Block(wasm.BlockEmpty, func() {
			f.Block(wasm.BlockEmpty, func() {
				f.LocalGet(0)
				f.BrTable(0, 1, 2)
			})
			f.I32Const(10).LocalSet(r).Br(1)
		})
		f.I32Const(20).LocalSet(r)
	})
	f.LocalGet(r)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

// TestBrToFunctionLevel: a branch whose depth addresses the implicit
// function label acts as a return carrying the result, on both engines.
func TestBrToFunctionLevel(t *testing.T) {
	b := wasm.NewModule("bf")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.Block(wasm.BlockEmpty, func() {
		f.I32Const(77)
		f.Br(1) // depth 1 inside one block = the function label
	})
	f.I32Const(1)
	b.ExportFunc("f", f.End())
	o := diffEngines(t, b.MustBuild(), interp.Config{CostModel: weights.Calibrated()}, "f", 0)
	if o.err != nil {
		t.Fatalf("invoke: %v", o.err)
	}
	if o.res[0] != 77 {
		t.Errorf("br-to-function result = %d, want 77", o.res[0])
	}
}

// TestTrapAccountingDifferential traps mid-segment in several ways; the
// batched accounting must roll back to exactly the per-instruction totals.
func TestTrapAccountingDifferential(t *testing.T) {
	cases := []struct {
		name  string
		build func() *wasm.Module
		args  []uint64
		trap  error
	}{
		{
			name: "div_by_zero_mid_block",
			build: func() *wasm.Module {
				b := wasm.NewModule("dz")
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).I32Const(3).Op(wasm.OpI32Mul)
				f.LocalGet(1).Op(wasm.OpI32DivS)
				f.I32Const(100).Op(wasm.OpI32Add) // suffix that must be rolled back
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{6, 0}, trap: interp.ErrDivByZero,
		},
		{
			name: "oob_store_mid_block",
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
			name: "trunc_overflow_mid_block",
			build: func() *wasm.Module {
				b := wasm.NewModule("tr")
				f := b.Func("f", []wasm.ValueType{wasm.F64}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).Op(wasm.OpI32TruncF64S)
				f.I32Const(5).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{0x43E0000000000000 /* 2^63 */}, trap: interp.ErrIntOverflow,
		},
		{
			name: "unreachable_after_work",
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
		{
			name: "trap_inside_callee",
			build: func() *wasm.Module {
				b := wasm.NewModule("tc")
				g := b.Func("g", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				g.I32Const(1).LocalGet(0).Op(wasm.OpI32DivU)
				gi := g.End()
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).Call(gi)
				f.I32Const(11).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{0}, trap: interp.ErrDivByZero,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := diffEngines(t, tc.build(), interp.Config{CostModel: weights.Calibrated()}, "f", tc.args...)
			if !errors.Is(o.err, tc.trap) {
				t.Errorf("trap = %v, want %v", o.err, tc.trap)
			}
		})
	}
}

// TestFuelDifferentialSweep runs a branching, calling, memory-touching
// program under every fuel budget from 0 to beyond completion. Each budget
// must trap (or complete) with the same counts, cost and remaining fuel on
// both engines — this exercises the batched-fuel fast path, the
// per-instruction fuel tail, and the trap rollback at every segment offset.
func TestFuelDifferentialSweep(t *testing.T) {
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
	m := b.MustBuild()

	// Completion needs ~180 fuel for arg 4; sweep well past it.
	for fuel := uint64(1); fuel < 260; fuel++ {
		cfg := interp.Config{Fuel: fuel, CostModel: weights.Calibrated()}
		diffEngines(t, m, cfg, "f", 4)
	}
}

// TestRandomProgramDifferential generates random structured programs
// (loops, if/else, br_table, calls, memory traffic, i64/f64 arithmetic) and
// requires identical observations from both engines.
func TestRandomProgramDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xF1A7))
	for trial := 0; trial < 60; trial++ {
		m := randomFlatProgram(rng)
		arg := uint64(rng.Intn(30))
		cfg := interp.Config{CostModel: weights.Calibrated(), Fuel: 1 << 20}
		diffEngines(t, m, cfg, "main", arg)
	}
}

func randomFlatProgram(rng *rand.Rand) *wasm.Module {
	b := wasm.NewModule("r")
	b.Memory(1, 2)
	helper := b.Func("h", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	helper.LocalGet(0).LocalGet(1).Op(wasm.OpI32Xor).I32Const(1).Op(wasm.OpI32Add)
	hi := helper.End()

	f := b.Func("main", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	x := f.Local(wasm.I32)
	f.LocalGet(0).LocalSet(x)
	n := rng.Intn(8) + 3
	for k := 0; k < n; k++ {
		switch rng.Intn(7) {
		case 0:
			f.LocalGet(x).I32Const(int32(rng.Intn(19) + 1)).Op(wasm.OpI32Mul).LocalSet(x)
		case 1:
			i := f.Local(wasm.I32)
			f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.ConstI32(int32(rng.Intn(7)))}, 1, func() {
				f.LocalGet(x).I32Const(3).Op(wasm.OpI32Add).LocalSet(x)
			})
		case 2:
			f.LocalGet(x).I32Const(1).Op(wasm.OpI32And)
			f.If(wasm.BlockEmpty, func() {
				f.LocalGet(x).I32Const(5).Op(wasm.OpI32Add).LocalSet(x)
			}, func() {
				f.LocalGet(x).I32Const(1).Op(wasm.OpI32ShrU).LocalSet(x)
			})
		case 3:
			f.LocalGet(x).I32Const(255).Op(wasm.OpI32And)
			f.LocalGet(x)
			f.Store(wasm.OpI32Store, 64)
			f.LocalGet(x).I32Const(255).Op(wasm.OpI32And)
			f.Load(wasm.OpI32Load, 64)
			f.LocalSet(x)
		case 4:
			f.LocalGet(x).I32Const(int32(rng.Intn(9))).Call(hi).LocalSet(x)
		case 5:
			// br_table over x mod 3 inside nested blocks
			r := f.Local(wasm.I32)
			f.Block(wasm.BlockEmpty, func() {
				f.Block(wasm.BlockEmpty, func() {
					f.Block(wasm.BlockEmpty, func() {
						f.LocalGet(x).I32Const(3).Op(wasm.OpI32RemU)
						f.BrTable(0, 1, 2)
					})
					f.I32Const(2).LocalSet(r).Br(1)
				})
				f.LocalGet(r).I32Const(13).Op(wasm.OpI32Add).LocalSet(r)
			})
			f.LocalGet(x).LocalGet(r).Op(wasm.OpI32Add).LocalSet(x)
		case 6:
			// f64 detour
			f.LocalGet(x).Op(wasm.OpF64ConvertI32U)
			f.F64ConstV(1.5).Op(wasm.OpF64Mul).Op(wasm.OpF64Floor)
			f.Op(wasm.OpI32TruncF64U) // x*1.5 floor always in range
			f.I32Const(0x7FFF).Op(wasm.OpI32And).LocalSet(x)
		}
	}
	f.LocalGet(x)
	b.ExportFunc("main", f.End())
	return b.MustBuild()
}

// TestHostObservationExactness: counters read by a host function mid-call
// and by the grow hook mid-grow must already be settled to the exact
// per-instruction totals (segments are split at every host-visible point).
func TestHostObservationExactness(t *testing.T) {
	build := func() *wasm.Module {
		b := wasm.NewModule("ho")
		b.Memory(1, 4)
		probe := b.ImportFunc("env", "probe", nil, nil)
		f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
		f.I32Const(1).I32Const(2).Op(wasm.OpI32Add).Op(wasm.OpDrop)
		f.Call(probe)
		f.I32Const(3).I32Const(4).Op(wasm.OpI32Mul).Op(wasm.OpDrop)
		f.I32Const(1).Op(wasm.OpMemoryGrow).Op(wasm.OpDrop)
		f.I32Const(7)
		b.ExportFunc("f", f.End())
		return b.MustBuild()
	}
	run := func(engine interp.Engine) (snaps [][2]uint64) {
		cfg := interp.Config{
			Engine:    engine,
			CostModel: weights.Calibrated(),
			Imports: map[string]interp.HostFunc{
				"env.probe": func(vm *interp.VM, args []uint64) ([]uint64, error) {
					snaps = append(snaps, [2]uint64{vm.InstrCount(), vm.Cost()})
					return nil, nil
				},
			},
			GrowHook: func(vm *interp.VM, oldPages, newPages uint32) {
				snaps = append(snaps, [2]uint64{vm.InstrCount(), vm.Cost()})
			},
		}
		vm, err := interp.Instantiate(build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.InvokeExport("f"); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	ref := run(interp.EngineStructured)
	got := run(interp.EngineReg)
	if len(got) != len(ref) {
		t.Fatalf("snapshot count diverged: reg=%d structured=%d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Errorf("observation %d diverged: reg=%v structured=%v", i, got[i], ref[i])
		}
	}
}

// TestHostResultArityChecked: a host function returning a different result
// count than its declared signature is a defined error on both engines, not
// stack corruption.
func TestHostResultArityChecked(t *testing.T) {
	b := wasm.NewModule("ha")
	bad := b.ImportFunc("env", "bad", nil, []wasm.ValueType{wasm.I32})
	f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
	f.Call(bad)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()
	for _, engine := range []interp.Engine{interp.EngineReg, interp.EngineStructured} {
		vm, err := interp.Instantiate(m, interp.Config{
			Engine: engine,
			Imports: map[string]interp.HostFunc{
				"env.bad": func(vm *interp.VM, args []uint64) ([]uint64, error) {
					return []uint64{1, 2}, nil // declared: one result
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.InvokeExport("f"); err == nil {
			t.Errorf("%s: excess host results not rejected", engine)
		}
	}
}

// TestPolybenchDifferential pins engine equivalence on real kernels
// (small problem sizes keep the structured engine affordable).
func TestPolybenchDifferential(t *testing.T) {
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
			o := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "run")
			if o.err != nil {
				t.Fatalf("run: %v", o.err)
			}
		})
	}
}
