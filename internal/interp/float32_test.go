package interp_test

import (
	"math"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
)

func f32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }

func f32from(v uint64) float32 { return math.Float32frombits(uint32(v)) }

func TestF32Arithmetic(t *testing.T) {
	add := binop(t, wasm.OpF32Add, wasm.F32, wasm.F32)
	mul := binop(t, wasm.OpF32Mul, wasm.F32, wasm.F32)
	div := binop(t, wasm.OpF32Div, wasm.F32, wasm.F32)
	if got := f32from(call1(t, add, f32bits(1.5), f32bits(2.25))); got != 3.75 {
		t.Errorf("f32.add = %v", got)
	}
	if got := f32from(call1(t, mul, f32bits(3), f32bits(-0.5))); got != -1.5 {
		t.Errorf("f32.mul = %v", got)
	}
	if got := f32from(call1(t, div, f32bits(1), f32bits(0))); !math.IsInf(float64(got), 1) {
		t.Errorf("f32 1/0 = %v, want +inf", got)
	}
	// f32 rounding: results are rounded to single precision, not kept double
	if got := f32from(call1(t, add, f32bits(1), f32bits(1e-10))); got != 1 {
		t.Errorf("f32 precision: 1 + 1e-10 = %v, want exactly 1", got)
	}
}

func TestF32UnaryOps(t *testing.T) {
	cases := []struct {
		op   wasm.Opcode
		in   float32
		want float32
	}{
		{wasm.OpF32Abs, -2.5, 2.5},
		{wasm.OpF32Neg, 1.25, -1.25},
		{wasm.OpF32Ceil, 1.1, 2},
		{wasm.OpF32Floor, -1.1, -2},
		{wasm.OpF32Trunc, -1.9, -1},
		{wasm.OpF32Nearest, 2.5, 2}, // round-to-even
		{wasm.OpF32Nearest, 3.5, 4},
		{wasm.OpF32Sqrt, 9, 3},
	}
	for _, c := range cases {
		vm := unop(t, c.op, wasm.F32, wasm.F32)
		if got := f32from(call1(t, vm, f32bits(c.in))); got != c.want {
			t.Errorf("%s(%v) = %v, want %v", c.op, c.in, got, c.want)
		}
	}
}

func TestDemotePromote(t *testing.T) {
	dem := unop(t, wasm.OpF32DemoteF64, wasm.F64, wasm.F32)
	pro := unop(t, wasm.OpF64PromoteF32, wasm.F32, wasm.F64)
	// demote loses precision
	got := f32from(call1(t, dem, math.Float64bits(1.0000000001)))
	if got != 1 {
		t.Errorf("demote(1.0000000001) = %v", got)
	}
	// promote is exact
	back := math.Float64frombits(call1(t, pro, f32bits(1.5)))
	if back != 1.5 {
		t.Errorf("promote(1.5) = %v", back)
	}
}

func TestReinterpret(t *testing.T) {
	i2f := unop(t, wasm.OpF64ReinterpretI, wasm.I64, wasm.F64)
	f2i := unop(t, wasm.OpI64ReinterpretF, wasm.F64, wasm.I64)
	bits := math.Float64bits(3.14159)
	if got := call1(t, i2f, bits); got != bits {
		t.Errorf("reinterpret changed bits: %#x vs %#x", got, bits)
	}
	if got := call1(t, f2i, bits); got != bits {
		t.Errorf("reinterpret back changed bits")
	}
}

func TestConvertUnsigned(t *testing.T) {
	// u32 max converts to ~4.29e9, not -1
	c := unop(t, wasm.OpF64ConvertI32U, wasm.I32, wasm.F64)
	got := math.Float64frombits(call1(t, c, uint64(uint32(0xFFFFFFFF))))
	if got != 4294967295 {
		t.Errorf("convert_i32_u(max) = %v", got)
	}
	// u64 high-bit value converts positive
	c64 := unop(t, wasm.OpF64ConvertI64U, wasm.I64, wasm.F64)
	got64 := math.Float64frombits(call1(t, c64, 1<<63))
	if got64 != 9.223372036854776e18 {
		t.Errorf("convert_i64_u(2^63) = %v", got64)
	}
}

func TestTruncUnsignedBoundaries(t *testing.T) {
	tr := unop(t, wasm.OpI32TruncF64U, wasm.F64, wasm.I32)
	// -0.5 truncates toward zero to 0 — legal for unsigned
	if got := call1(t, tr, math.Float64bits(-0.5)); got != 0 {
		t.Errorf("trunc_u(-0.5) = %d, want 0", got)
	}
	if got := call1(t, tr, math.Float64bits(4294967295)); got != 0xFFFFFFFF {
		t.Errorf("trunc_u(u32max) = %#x", got)
	}
	// 2^32 exactly must trap
	if _, err := tr.InvokeExport("f", math.Float64bits(4294967296)); err == nil {
		t.Error("trunc_u(2^32) did not trap")
	}
}

func TestSelectKeepsTypes(t *testing.T) {
	b := wasm.NewModule("sel")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.F64})
	f.F64ConstV(1.5).F64ConstV(2.5).LocalGet(0).Op(wasm.OpSelect)
	b.ExportFunc("f", f.End())
	vm, err := interp.Instantiate(b.MustBuild(), interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.InvokeExport("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64frombits(res[0]) != 1.5 {
		t.Errorf("select(1) = %v, want first operand", math.Float64frombits(res[0]))
	}
	res, _ = vm.InvokeExport("f", 0)
	if math.Float64frombits(res[0]) != 2.5 {
		t.Errorf("select(0) = %v, want second operand", math.Float64frombits(res[0]))
	}
}

func TestCopysign(t *testing.T) {
	cs := binop(t, wasm.OpF64Copysign, wasm.F64, wasm.F64)
	got := math.Float64frombits(call1(t, cs, math.Float64bits(3), math.Float64bits(-1)))
	if got != -3 {
		t.Errorf("copysign(3,-1) = %v", got)
	}
}

// TestF32DifferentialAllEngines drives the f32 instruction family through
// both engines (structured oracle, register) and requires bit-identical
// results and accounting. The register lowering specialises
// f32.add/mul and routes the rest through its generic applyBin/applyUn
// arms, so this exercises both paths.
func TestF32DifferentialAllEngines(t *testing.T) {
	binops := []wasm.Opcode{
		wasm.OpF32Add, wasm.OpF32Sub, wasm.OpF32Mul, wasm.OpF32Div,
		wasm.OpF32Min, wasm.OpF32Max, wasm.OpF32Copysign,
		wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt,
		wasm.OpF32Le, wasm.OpF32Ge,
	}
	unops := []wasm.Opcode{
		wasm.OpF32Abs, wasm.OpF32Neg, wasm.OpF32Ceil, wasm.OpF32Floor,
		wasm.OpF32Trunc, wasm.OpF32Nearest, wasm.OpF32Sqrt,
	}
	inputs := []float32{0, 1.5, -2.25, 0.1, float32(math.Inf(1)), float32(math.NaN()), 9, -0.5}
	for _, op := range binops {
		out := wasm.F32
		switch op {
		case wasm.OpF32Eq, wasm.OpF32Ne, wasm.OpF32Lt, wasm.OpF32Gt,
			wasm.OpF32Le, wasm.OpF32Ge:
			out = wasm.I32
		}
		b := wasm.NewModule("f32bin")
		f := b.Func("f", []wasm.ValueType{wasm.F32, wasm.F32}, []wasm.ValueType{out})
		f.LocalGet(0).LocalGet(1).Op(op)
		b.ExportFunc("f", f.End())
		m := b.MustBuild()
		for _, x := range inputs {
			for _, y := range inputs {
				diffEngines(t, m, interp.Config{}, "f", f32bits(x), f32bits(y))
			}
		}
	}
	for _, op := range unops {
		b := wasm.NewModule("f32un")
		f := b.Func("f", []wasm.ValueType{wasm.F32}, []wasm.ValueType{wasm.F32})
		f.LocalGet(0).Op(op)
		b.ExportFunc("f", f.End())
		m := b.MustBuild()
		for _, x := range inputs {
			diffEngines(t, m, interp.Config{}, "f", f32bits(x))
		}
	}
	// Constant operands exercise the register lowering's compile-time
	// folding and const-normalisation paths.
	b := wasm.NewModule("f32c")
	f := b.Func("f", []wasm.ValueType{wasm.F32}, []wasm.ValueType{wasm.F32})
	f.F32ConstV(2.5).LocalGet(0).Op(wasm.OpF32Mul).F32ConstV(1.25).Op(wasm.OpF32Add)
	b.ExportFunc("f", f.End())
	m := b.MustBuild()
	for _, x := range inputs {
		diffEngines(t, m, interp.Config{}, "f", f32bits(x))
	}
}
