package interp

import (
	"errors"
	"math"
	"testing"

	"acctee/internal/wasm"
)

// buildSumModule returns a module with sum(n) = 0+1+...+(n-1) via a loop.
func buildSumModule(t *testing.T) *wasm.Module {
	t.Helper()
	b := wasm.NewModule("sum")
	f := b.Func("sum", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Add).LocalSet(acc)
	})
	f.LocalGet(acc)
	b.ExportFunc("sum", f.End())
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m
}

func TestLoopSum(t *testing.T) {
	m := buildSumModule(t)
	vm, err := Instantiate(m, Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	for _, n := range []int32{0, 1, 2, 10, 100} {
		res, err := vm.InvokeExport("sum", uint64(uint32(n)))
		if err != nil {
			t.Fatalf("sum(%d): %v", n, err)
		}
		want := uint64(uint32(n * (n - 1) / 2))
		if res[0] != want {
			t.Errorf("sum(%d) = %d, want %d", n, res[0], want)
		}
	}
}

func TestRecursiveFib(t *testing.T) {
	b := wasm.NewModule("fib")
	f := b.Func("fib", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).I32Const(2).Op(wasm.OpI32LtS)
	f.If(wasm.BlockOf(wasm.I32), func() {
		f.LocalGet(0)
	}, func() {
		f.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(f.Index)
		f.LocalGet(0).I32Const(2).Op(wasm.OpI32Sub).Call(f.Index)
		f.Op(wasm.OpI32Add)
	})
	b.ExportFunc("fib", f.End())
	m := b.MustBuild()
	vm, err := Instantiate(m, Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	want := []uint64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55}
	for n, w := range want {
		res, err := vm.InvokeExport("fib", uint64(n))
		if err != nil {
			t.Fatalf("fib(%d): %v", n, err)
		}
		if res[0] != w {
			t.Errorf("fib(%d) = %d, want %d", n, res[0], w)
		}
	}
}

func TestMemoryLoadStore(t *testing.T) {
	b := wasm.NewModule("mem")
	b.Memory(1, 2)
	f := b.Func("roundtrip", []wasm.ValueType{wasm.I32, wasm.I64}, []wasm.ValueType{wasm.I64})
	f.LocalGet(0).LocalGet(1).Store(wasm.OpI64Store, 0)
	f.LocalGet(0).Load(wasm.OpI64Load, 0)
	b.ExportFunc("roundtrip", f.End())
	m := b.MustBuild()
	vm, err := Instantiate(m, Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := vm.InvokeExport("roundtrip", 1024, 0xDEADBEEFCAFE)
	if err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	if res[0] != 0xDEADBEEFCAFE {
		t.Errorf("roundtrip = %x", res[0])
	}
	// out-of-bounds must trap
	if _, err := vm.InvokeExport("roundtrip", 65536-4, 1); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("oob store: got %v, want ErrOutOfBounds", err)
	}
}

func TestMemoryGrowAndSize(t *testing.T) {
	b := wasm.NewModule("grow")
	b.Memory(1, 4)
	f := b.Func("grow", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).Op(wasm.OpMemoryGrow)
	b.ExportFunc("grow", f.End())
	g := b.Func("size", nil, []wasm.ValueType{wasm.I32})
	g.Op(wasm.OpMemorySize)
	b.ExportFunc("size", g.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, _ := vm.InvokeExport("grow", 2)
	if int32(uint32(res[0])) != 1 {
		t.Errorf("grow(2) returned %d, want old size 1", int32(uint32(res[0])))
	}
	res, _ = vm.InvokeExport("size")
	if res[0] != 3 {
		t.Errorf("size = %d, want 3", res[0])
	}
	// beyond max must fail with -1
	res, _ = vm.InvokeExport("grow", 100)
	if int32(uint32(res[0])) != -1 {
		t.Errorf("grow beyond max = %d, want -1", int32(uint32(res[0])))
	}
}

func TestBrTable(t *testing.T) {
	// classify(x): 0->10, 1->20, else->99
	b := wasm.NewModule("brtable")
	f := b.Func("classify", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	r := f.Local(wasm.I32)
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
	b.ExportFunc("classify", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	cases := map[uint64]uint64{0: 10, 1: 20, 2: 0, 7: 0}
	for in, want := range cases {
		res, err := vm.InvokeExport("classify", in)
		if err != nil {
			t.Fatalf("classify(%d): %v", in, err)
		}
		if res[0] != want {
			t.Errorf("classify(%d) = %d, want %d", in, res[0], want)
		}
	}
}

func TestCallIndirect(t *testing.T) {
	b := wasm.NewModule("indirect")
	add := b.Func("add", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	add.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add)
	addIdx := add.End()
	sub := b.Func("sub", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	sub.LocalGet(0).LocalGet(1).Op(wasm.OpI32Sub)
	subIdx := sub.End()
	b.Table(addIdx, subIdx)
	disp := b.Func("dispatch", []wasm.ValueType{wasm.I32, wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	disp.LocalGet(1).LocalGet(2).LocalGet(0)
	ti := b.TypeIndex([]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	disp.Emit(wasm.Instr{Op: wasm.OpCallIndirect, Idx: ti})
	b.ExportFunc("dispatch", disp.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := vm.InvokeExport("dispatch", 0, 7, 5)
	if err != nil {
		t.Fatalf("dispatch add: %v", err)
	}
	if res[0] != 12 {
		t.Errorf("dispatch add = %d", res[0])
	}
	res, err = vm.InvokeExport("dispatch", 1, 7, 5)
	if err != nil {
		t.Fatalf("dispatch sub: %v", err)
	}
	if res[0] != 2 {
		t.Errorf("dispatch sub = %d", res[0])
	}
	if _, err := vm.InvokeExport("dispatch", 5, 1, 1); !errors.Is(err, ErrUndefinedElement) {
		t.Errorf("dispatch oob = %v, want ErrUndefinedElement", err)
	}
}

func TestHostImportAndIO(t *testing.T) {
	b := wasm.NewModule("host")
	logIdx := b.ImportFunc("env", "emit", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).Call(logIdx)
	b.ExportFunc("run", f.End())
	var got []uint64
	vm, err := Instantiate(b.MustBuild(), Config{Imports: map[string]HostFunc{
		"env.emit": func(vm *VM, args []uint64) ([]uint64, error) {
			got = append(got, args[0])
			vm.AddIOBytes(4)
			return []uint64{args[0] * 2}, nil
		},
	}})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := vm.InvokeExport("run", 21)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res[0] != 42 || len(got) != 1 || got[0] != 21 {
		t.Errorf("host call mismatch: res=%v got=%v", res, got)
	}
	if vm.IOBytes() != 4 {
		t.Errorf("io bytes = %d, want 4", vm.IOBytes())
	}
}

func TestFuelExhaustion(t *testing.T) {
	m := buildSumModule(t)
	vm, err := Instantiate(m, Config{Fuel: 50})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := vm.InvokeExport("sum", 1_000_000); !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("got %v, want ErrFuelExhausted", err)
	}
}

func TestDivTraps(t *testing.T) {
	b := wasm.NewModule("div")
	f := b.Func("div", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).LocalGet(1).Op(wasm.OpI32DivS)
	b.ExportFunc("div", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := vm.InvokeExport("div", 1, 0); !errors.Is(err, ErrDivByZero) {
		t.Errorf("div by zero: %v", err)
	}
	if _, err := vm.InvokeExport("div", uint64(uint32(1)<<31), uint64(uint32(0xFFFFFFFF))); !errors.Is(err, ErrIntOverflow) {
		t.Errorf("overflow: %v", err)
	}
	res, err := vm.InvokeExport("div", uint64(uint32(0xFFFFFFF9)), 2) // -7/2 = -3
	if err != nil {
		t.Fatalf("div: %v", err)
	}
	if int32(uint32(res[0])) != -3 {
		t.Errorf("-7/2 = %d, want -3", int32(uint32(res[0])))
	}
}

func TestFloatOps(t *testing.T) {
	b := wasm.NewModule("float")
	f := b.Func("hyp", []wasm.ValueType{wasm.F64, wasm.F64}, []wasm.ValueType{wasm.F64})
	f.LocalGet(0).LocalGet(0).Op(wasm.OpF64Mul)
	f.LocalGet(1).LocalGet(1).Op(wasm.OpF64Mul)
	f.Op(wasm.OpF64Add).Op(wasm.OpF64Sqrt)
	b.ExportFunc("hyp", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	res, err := vm.InvokeExport("hyp", math.Float64bits(3), math.Float64bits(4))
	if err != nil {
		t.Fatalf("hyp: %v", err)
	}
	if got := math.Float64frombits(res[0]); got != 5 {
		t.Errorf("hyp(3,4) = %g, want 5", got)
	}
}

func TestTruncTraps(t *testing.T) {
	b := wasm.NewModule("trunc")
	f := b.Func("t", []wasm.ValueType{wasm.F64}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).Op(wasm.OpI32TruncF64S)
	b.ExportFunc("t", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := vm.InvokeExport("t", math.Float64bits(math.NaN())); !errors.Is(err, ErrInvalidConversion) {
		t.Errorf("nan: %v", err)
	}
	if _, err := vm.InvokeExport("t", math.Float64bits(3e10)); !errors.Is(err, ErrIntOverflow) {
		t.Errorf("overflow: %v", err)
	}
	res, err := vm.InvokeExport("t", math.Float64bits(-3.9))
	if err != nil {
		t.Fatalf("t(-3.9): %v", err)
	}
	if int32(uint32(res[0])) != -3 {
		t.Errorf("trunc(-3.9) = %d, want -3", int32(uint32(res[0])))
	}
}

func TestGlobals(t *testing.T) {
	b := wasm.NewModule("globals")
	g := b.Global("counter", wasm.I64, true, wasm.ConstI64(5))
	f := b.Func("bump", nil, []wasm.ValueType{wasm.I64})
	f.GlobalGet(g).I64ConstV(1).Op(wasm.OpI64Add).GlobalSet(g)
	f.GlobalGet(g)
	b.ExportFunc("bump", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	for want := uint64(6); want <= 8; want++ {
		res, err := vm.InvokeExport("bump")
		if err != nil {
			t.Fatalf("bump: %v", err)
		}
		if res[0] != want {
			t.Errorf("bump = %d, want %d", res[0], want)
		}
	}
}

func TestInstrCountDeterminism(t *testing.T) {
	m := buildSumModule(t)
	counts := make([]uint64, 3)
	for i := range counts {
		vm, err := Instantiate(m, Config{})
		if err != nil {
			t.Fatalf("instantiate: %v", err)
		}
		if _, err := vm.InvokeExport("sum", 1000); err != nil {
			t.Fatalf("sum: %v", err)
		}
		counts[i] = vm.InstrCount()
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("instruction count not deterministic: %v", counts)
	}
	if counts[0] < 1000 {
		t.Errorf("suspiciously low count %d", counts[0])
	}
}

func TestCallStackExhaustion(t *testing.T) {
	b := wasm.NewModule("rec")
	f := b.Func("inf", nil, nil)
	f.Call(f.Index)
	b.ExportFunc("inf", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{MaxCallDepth: 100})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := vm.InvokeExport("inf"); !errors.Is(err, ErrCallStackExhausted) {
		t.Errorf("got %v, want ErrCallStackExhausted", err)
	}
}

func TestUnreachableTrap(t *testing.T) {
	b := wasm.NewModule("ur")
	f := b.Func("boom", nil, nil)
	f.Op(wasm.OpUnreachable)
	b.ExportFunc("boom", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	if _, err := vm.InvokeExport("boom"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("got %v, want ErrUnreachable", err)
	}
}
