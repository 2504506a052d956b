package interp_test

import (
	"errors"
	"math"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// This file pins the deoptimization paths of multi-instruction execution
// units: a trap landing in the middle of one, and a fuel shortfall inside a
// segment made only of them, must roll accounting back to exactly the
// per-instruction totals of the structured reference engine (diffEngines
// compares results, trap identity, InstrCount, weighted Cost, remaining
// fuel, memory and globals). The programs were shaped after the
// superinstruction idioms of the removed fused tier (the test names keep
// that vocabulary); the register engine compiles each idiom into one
// statement closure, so the same programs now land their traps and fuel
// shortfalls mid-statement.

// TestFusedTrapMidSuperinstruction drives a trap into every trap-capable
// idiom (producer/operator/sink at each operand layout), each with a suffix
// behind the trap that the batched accounting must roll back.
func TestFusedTrapMidSuperinstruction(t *testing.T) {
	cases := []struct {
		name  string
		build func() *wasm.Module
		args  []uint64
		trap  error
	}{
		{
			// get get div, trapping at the binop (offset 2).
			name: "getgetbin_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f1")
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).LocalGet(1).Op(wasm.OpI32DivS)
				f.I32Const(100).Op(wasm.OpI32Add) // rolled-back suffix
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{6, 0}, trap: interp.ErrDivByZero,
		},
		{
			name: "getgetbin_div_overflow",
			build: func() *wasm.Module {
				b := wasm.NewModule("f2")
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).LocalGet(1).Op(wasm.OpI32DivS)
				f.I32Const(1).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{0x80000000, 0xFFFFFFFF}, trap: interp.ErrIntOverflow,
		},
		{
			// get const div with a zero constant divisor.
			name: "getconstbin_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f3")
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).I32Const(0).Op(wasm.OpI32DivU)
				f.I32Const(2).Op(wasm.OpI32Mul)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{9}, trap: interp.ErrDivByZero,
		},
		{
			// get get rem set, trapping before the set
			// writes the local.
			name: "getgetbinset_rem_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f4")
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
				r := f.Local(wasm.I32)
				f.I32Const(41).LocalSet(r)
				f.LocalGet(0).LocalGet(1).Op(wasm.OpI32RemU).LocalSet(r)
				f.LocalGet(r)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{13, 0}, trap: interp.ErrDivByZero,
		},
		{
			// i64 division inside the same shape.
			name: "getgetbin_i64_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f5")
				f := b.Func("f", []wasm.ValueType{wasm.I64, wasm.I64}, []wasm.ValueType{wasm.I64})
				f.LocalGet(0).LocalGet(1).Op(wasm.OpI64DivS)
				f.I64ConstV(5).Op(wasm.OpI64Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{100, 0}, trap: interp.ErrDivByZero,
		},
		{
			// const load (compile-time-known effective address) OOB.
			name: "constload_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f6")
				b.Memory(1, 1)
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				f.I32Const(70000).Load(wasm.OpI32Load, 0)
				f.I32Const(3).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			trap: interp.ErrOutOfBounds,
		},
		{
			// folded address overflows only through the memarg offset.
			name: "constload_offset_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f7")
				b.Memory(1, 1)
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				f.I32Const(wasm.PageSize-2).Load(wasm.OpI32Load, 4)
				f.I32Const(3).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			trap: interp.ErrOutOfBounds,
		},
		{
			// get load OOB through the local's value.
			name: "getload_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f8")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.F64})
				f.LocalGet(0).Load(wasm.OpF64Load, 0)
				f.F64ConstV(1).Op(wasm.OpF64Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{65530}, trap: interp.ErrOutOfBounds,
		},
		{
			// scaled-index load OOB at the load (offset 2).
			name: "scaleload_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f9")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.F64})
				f.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add)
				f.I32Const(8).Op(wasm.OpI32Mul).Load(wasm.OpF64Load, 0)
				f.F64ConstV(2).Op(wasm.OpF64Mul)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{8000, 192}, trap: interp.ErrOutOfBounds,
		},
		{
			// bin store trapping in the binop (offset 0): the
			// operands come from const-loads of zeroed memory, so the
			// division is 0/0.
			name: "binstore_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f10")
				b.Memory(1, 1)
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				f.I32Const(16)
				f.I32Const(0).Load(wasm.OpI32Load, 0)
				f.I32Const(4).Load(wasm.OpI32Load, 0)
				f.Op(wasm.OpI32DivU).Store(wasm.OpI32Store, 0)
				f.I32Const(1)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			trap: interp.ErrDivByZero,
		},
		{
			// bin store trapping in the store (offset 1).
			name: "binstore_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f11")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0)
				f.I32Const(0).Load(wasm.OpI32Load, 0)
				f.I32Const(4).Load(wasm.OpI32Load, 8)
				f.Op(wasm.OpI32Add).Store(wasm.OpI32Store, 0)
				f.I32Const(1)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{70000}, trap: interp.ErrOutOfBounds,
		},
		{
			// get store OOB.
			name: "getstore_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f12")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).LocalGet(1).Store(wasm.OpI32Store, 0)
				f.I32Const(1)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{1 << 20, 7}, trap: interp.ErrOutOfBounds,
		},
		{
			// const store OOB.
			name: "conststore_oob",
			build: func() *wasm.Module {
				b := wasm.NewModule("f13")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.LocalGet(0).I32Const(0xBEEF).Store(wasm.OpI32Store16, 0)
				f.I32Const(1)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{0xFFFFFFFF}, trap: interp.ErrOutOfBounds,
		},
		{
			// get bin with the stack operand produced by a load, trapping
			// at the binop (offset 1).
			name: "getbin_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f14")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.I32Const(0).Load(wasm.OpI32Load, 0)
				f.LocalGet(0).Op(wasm.OpI32DivS)
				f.I32Const(9).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{0}, trap: interp.ErrDivByZero,
		},
		{
			// bin br_if trapping in the binop (offset 0): both
			// operands come from const-loads of zeroed memory, so the
			// branch condition is 0/0.
			name: "binbr_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("fbb")
				b.Memory(1, 1)
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				f.Block(wasm.BlockEmpty, func() {
					f.I32Const(0).Load(wasm.OpI32Load, 0)
					f.I32Const(4).Load(wasm.OpI32Load, 0)
					f.Op(wasm.OpI32DivU).BrIf(0)
				})
				f.I32Const(1)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			trap: interp.ErrDivByZero,
		},
		{
			// bin br_if trapping with the division-overflow
			// flavour: MinInt32 / -1 assembled in memory by stores.
			name: "binbr_div_overflow",
			build: func() *wasm.Module {
				b := wasm.NewModule("fbbov")
				b.Memory(1, 1)
				f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
				f.I32Const(0).I32Const(math.MinInt32).Store(wasm.OpI32Store, 0)
				f.I32Const(4).I32Const(-1).Store(wasm.OpI32Store, 0)
				f.Block(wasm.BlockEmpty, func() {
					f.I32Const(0).Load(wasm.OpI32Load, 0)
					f.I32Const(4).Load(wasm.OpI32Load, 0)
					f.Op(wasm.OpI32DivS).BrIf(0)
				})
				f.I32Const(1)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			trap: interp.ErrIntOverflow,
		},
		{
			// const bin with a zero constant divisor.
			name: "constbin_div_by_zero",
			build: func() *wasm.Module {
				b := wasm.NewModule("f15")
				b.Memory(1, 1)
				f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
				f.I32Const(0).Load(wasm.OpI32Load, 0)
				f.I32Const(0).Op(wasm.OpI32RemU)
				f.I32Const(9).Op(wasm.OpI32Add)
				b.ExportFunc("f", f.End())
				return b.MustBuild()
			},
			args: []uint64{3}, trap: interp.ErrDivByZero,
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

// TestFusedFuelSweepMemoryLoop sweeps every fuel budget over a counted loop
// whose body is dominated by memory statements (scaled-index load, bin
// store) and whose control overhead folds into its sinks (compare+br_if
// exit, get/const/add/set increment). Every budget must deoptimize to the
// per-instruction tail at the same instruction as the reference engine,
// with identical counters.
func TestFusedFuelSweepMemoryLoop(t *testing.T) {
	b := wasm.NewModule("fm")
	b.Memory(1, 1)
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.F64})
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.F64)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		// mem[i] = mem[i] * 1.5 + 2.25 ; acc += mem[i]
		f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul)
		f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul).Load(wasm.OpF64Load, 64)
		f.F64ConstV(1.5).Op(wasm.OpF64Mul)
		f.F64ConstV(2.25).Op(wasm.OpF64Add).Store(wasm.OpF64Store, 64)
		f.LocalGet(acc)
		f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul).Load(wasm.OpF64Load, 64)
		f.Op(wasm.OpF64Add).LocalSet(acc)
	})
	f.LocalGet(acc)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()

	// One full run of f(5) takes ~160 instructions; sweep well past it.
	for fuel := uint64(1); fuel < 240; fuel++ {
		cfg := interp.Config{Fuel: fuel, CostModel: weights.Calibrated()}
		diffEngines(t, m, cfg, "f", 5)
	}
}

// TestFusedBranchValueCarry exercises a compare folded into its br_if whose
// taken edge carries a block result value: the copy-down must behave exactly
// as a plain br_if.
func TestFusedBranchValueCarry(t *testing.T) {
	b := wasm.NewModule("bv")
	f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	f.Block(wasm.BlockOf(wasm.I32), func() {
		f.I32Const(777) // result if the branch is taken
		f.LocalGet(0).LocalGet(1).Op(wasm.OpI32LtS).BrIf(0)
		f.Op(wasm.OpDrop)
		f.I32Const(333)
	})
	b.ExportFunc("f", f.End())
	m := b.MustBuild()
	for _, tc := range []struct {
		a, b, want uint64
	}{{1, 2, 777}, {2, 1, 333}, {5, 5, 333}} {
		o := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", tc.a, tc.b)
		if o.err != nil {
			t.Fatalf("f(%d,%d): %v", tc.a, tc.b, o.err)
		}
		if o.res[0] != tc.want {
			t.Errorf("f(%d,%d) = %d, want %d", tc.a, tc.b, o.res[0], tc.want)
		}
	}
}

// TestFusedEqzBranch covers the inverted branch from the While shape
// (cond; eqz; br_if).
func TestFusedEqzBranch(t *testing.T) {
	b := wasm.NewModule("wz")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	n := f.Local(wasm.I32)
	f.LocalGet(0).LocalSet(n)
	f.While(func() {
		f.LocalGet(n)
	}, func() {
		f.LocalGet(n).I32Const(1).Op(wasm.OpI32Sub).LocalSet(n)
	})
	f.LocalGet(n)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()
	for _, arg := range []uint64{0, 1, 7} {
		o := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", arg)
		if o.err != nil {
			t.Fatalf("f(%d): %v", arg, o.err)
		}
		if o.res[0] != 0 {
			t.Errorf("f(%d) = %d, want 0", arg, o.res[0])
		}
	}
}

// TestFusedBinBrLoopDifferential drives a loop whose back-edge condition is
// an arithmetic result (memory countdown times itself) consumed directly by
// br_if, including a fuel sweep across that branch: results, counters and
// deopt points must be bit-identical to the structured reference.
func TestFusedBinBrLoopDifferential(t *testing.T) {
	b := wasm.NewModule("bbl")
	b.Memory(1, 1)
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	acc := f.Local(wasm.I32)
	// mem[0] = n; do { acc += mem[0]; mem[0]--; } while (mem[0]*mem[0] != 0)
	f.I32Const(0).LocalGet(0).Store(wasm.OpI32Store, 0)
	f.Block(wasm.BlockEmpty, func() {
		f.LocalGet(0).Op(wasm.OpI32Eqz).BrIf(0) // n == 0: skip the do-while
		f.Loop(wasm.BlockEmpty, func() {
			f.LocalGet(acc)
			f.I32Const(0).Load(wasm.OpI32Load, 0)
			f.Op(wasm.OpI32Add).LocalSet(acc)
			f.I32Const(0)
			f.I32Const(0).Load(wasm.OpI32Load, 0)
			f.I32Const(1).Op(wasm.OpI32Sub)
			f.Store(wasm.OpI32Store, 0)
			// The back-edge: product of two loads drives br_if.
			f.I32Const(0).Load(wasm.OpI32Load, 0)
			f.I32Const(0).Load(wasm.OpI32Load, 0)
			f.Op(wasm.OpI32Mul).BrIf(0)
		})
	})
	f.LocalGet(acc)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()

	for _, n := range []uint64{0, 1, 2, 9} {
		o := diffEngines(t, m, interp.Config{CostModel: weights.Calibrated()}, "f", n)
		if o.err != nil {
			t.Fatalf("f(%d): %v", n, o.err)
		}
		want := n * (n + 1) / 2
		if o.res[0] != want {
			t.Errorf("f(%d) = %d, want %d", n, o.res[0], want)
		}
	}
	// Fuel sweep: every budget must deoptimize at the same instruction as
	// the reference engine, with identical remaining fuel and counters.
	for fuel := uint64(1); fuel < 120; fuel++ {
		diffEngines(t, m, interp.Config{Fuel: fuel, CostModel: weights.Calibrated()}, "f", 4)
	}
}
