package interp

import (
	"math"
	"math/bits"

	"acctee/internal/wasm"
)

// This file holds the slice-based single-instruction step shared by the
// structured reference engine and the register engine's fuel-exhaustion tail,
// plus the memory and float helpers both engines use.

// ---------------------------------------------------------------------------
// memory access helpers

func (vm *VM) loadBits(base, off, width uint32) (uint64, error) {
	ea := uint64(base) + uint64(off)
	p := vm.at(ea, uint64(width))
	if p == nil {
		if v, ok := vm.loadMiss(ea, width); ok {
			return v, nil
		}
		return 0, ErrOutOfBounds
	}
	if vm.cost != nil {
		vm.costAcc += vm.cost.MemCost(uint32(ea), width, false, vm.memSize())
	}
	var v uint64
	for i := int(width) - 1; i >= 0; i-- {
		v = v<<8 | uint64(p[i])
	}
	return v, nil
}

func (vm *VM) storeBits(base, off, width uint32, v uint64) error {
	ea := uint64(base) + uint64(off)
	p := vm.at(ea, uint64(width))
	if p == nil {
		if vm.storeMiss(ea, width, v) {
			return nil
		}
		return ErrOutOfBounds
	}
	if vm.cost != nil {
		vm.costAcc += vm.cost.MemCost(uint32(ea), width, true, vm.memSize())
	}
	vm.markDirty(int(ea), int(width))
	for i := 0; i < int(width); i++ {
		p[i] = byte(v)
		v >>= 8
	}
	return nil
}

// ---------------------------------------------------------------------------
// numeric / memory instruction execution

func (vm *VM) numeric(in *wasm.Instr, stack []uint64) ([]uint64, error) {
	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	pushI32 := func(v int32) { push(uint64(uint32(v))) }
	pushBool := func(b bool) {
		if b {
			push(1)
		} else {
			push(0)
		}
	}
	popI32 := func() int32 { return int32(uint32(pop())) }
	popU32 := func() uint32 { return uint32(pop()) }
	popI64 := func() int64 { return int64(pop()) }
	popF32 := func() float32 { return math.Float32frombits(uint32(pop())) }
	popF64 := func() float64 { return math.Float64frombits(pop()) }
	pushF32 := func(f float32) { push(uint64(math.Float32bits(f))) }
	pushF64 := func(f float64) { push(math.Float64bits(f)) }

	op := in.Op
	if op.IsMemAccess() {
		if op.IsStore() {
			val := pop()
			base := popU32()
			var width uint32
			switch op {
			case wasm.OpI32Store8, wasm.OpI64Store8:
				width = 1
			case wasm.OpI32Store16, wasm.OpI64Store16:
				width = 2
			case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
				width = 4
			default:
				width = 8
			}
			if err := vm.storeBits(base, in.Offset(), width, val); err != nil {
				return stack, err
			}
			return stack, nil
		}
		base := popU32()
		var v uint64
		var err error
		switch op {
		case wasm.OpI32Load, wasm.OpF32Load:
			v, err = vm.loadBits(base, in.Offset(), 4)
		case wasm.OpI64Load, wasm.OpF64Load:
			v, err = vm.loadBits(base, in.Offset(), 8)
		case wasm.OpI32Load8U, wasm.OpI64Load8U:
			v, err = vm.loadBits(base, in.Offset(), 1)
		case wasm.OpI32Load8S:
			v, err = vm.loadBits(base, in.Offset(), 1)
			v = uint64(uint32(int32(int8(v))))
		case wasm.OpI64Load8S:
			v, err = vm.loadBits(base, in.Offset(), 1)
			v = uint64(int64(int8(v)))
		case wasm.OpI32Load16U, wasm.OpI64Load16U:
			v, err = vm.loadBits(base, in.Offset(), 2)
		case wasm.OpI32Load16S:
			v, err = vm.loadBits(base, in.Offset(), 2)
			v = uint64(uint32(int32(int16(v))))
		case wasm.OpI64Load16S:
			v, err = vm.loadBits(base, in.Offset(), 2)
			v = uint64(int64(int16(v)))
		case wasm.OpI64Load32U:
			v, err = vm.loadBits(base, in.Offset(), 4)
		case wasm.OpI64Load32S:
			v, err = vm.loadBits(base, in.Offset(), 4)
			v = uint64(int64(int32(uint32(v))))
		}
		if err != nil {
			return stack, err
		}
		push(v)
		return stack, nil
	}

	switch op {
	// --- i32 comparison
	case wasm.OpI32Eqz:
		pushBool(popU32() == 0)
	case wasm.OpI32Eq:
		b, a := popU32(), popU32()
		pushBool(a == b)
	case wasm.OpI32Ne:
		b, a := popU32(), popU32()
		pushBool(a != b)
	case wasm.OpI32LtS:
		b, a := popI32(), popI32()
		pushBool(a < b)
	case wasm.OpI32LtU:
		b, a := popU32(), popU32()
		pushBool(a < b)
	case wasm.OpI32GtS:
		b, a := popI32(), popI32()
		pushBool(a > b)
	case wasm.OpI32GtU:
		b, a := popU32(), popU32()
		pushBool(a > b)
	case wasm.OpI32LeS:
		b, a := popI32(), popI32()
		pushBool(a <= b)
	case wasm.OpI32LeU:
		b, a := popU32(), popU32()
		pushBool(a <= b)
	case wasm.OpI32GeS:
		b, a := popI32(), popI32()
		pushBool(a >= b)
	case wasm.OpI32GeU:
		b, a := popU32(), popU32()
		pushBool(a >= b)

	// --- i64 comparison
	case wasm.OpI64Eqz:
		pushBool(pop() == 0)
	case wasm.OpI64Eq:
		b, a := pop(), pop()
		pushBool(a == b)
	case wasm.OpI64Ne:
		b, a := pop(), pop()
		pushBool(a != b)
	case wasm.OpI64LtS:
		b, a := popI64(), popI64()
		pushBool(a < b)
	case wasm.OpI64LtU:
		b, a := pop(), pop()
		pushBool(a < b)
	case wasm.OpI64GtS:
		b, a := popI64(), popI64()
		pushBool(a > b)
	case wasm.OpI64GtU:
		b, a := pop(), pop()
		pushBool(a > b)
	case wasm.OpI64LeS:
		b, a := popI64(), popI64()
		pushBool(a <= b)
	case wasm.OpI64LeU:
		b, a := pop(), pop()
		pushBool(a <= b)
	case wasm.OpI64GeS:
		b, a := popI64(), popI64()
		pushBool(a >= b)
	case wasm.OpI64GeU:
		b, a := pop(), pop()
		pushBool(a >= b)

	// --- f32 comparison
	case wasm.OpF32Eq:
		b, a := popF32(), popF32()
		pushBool(a == b)
	case wasm.OpF32Ne:
		b, a := popF32(), popF32()
		pushBool(a != b)
	case wasm.OpF32Lt:
		b, a := popF32(), popF32()
		pushBool(a < b)
	case wasm.OpF32Gt:
		b, a := popF32(), popF32()
		pushBool(a > b)
	case wasm.OpF32Le:
		b, a := popF32(), popF32()
		pushBool(a <= b)
	case wasm.OpF32Ge:
		b, a := popF32(), popF32()
		pushBool(a >= b)

	// --- f64 comparison
	case wasm.OpF64Eq:
		b, a := popF64(), popF64()
		pushBool(a == b)
	case wasm.OpF64Ne:
		b, a := popF64(), popF64()
		pushBool(a != b)
	case wasm.OpF64Lt:
		b, a := popF64(), popF64()
		pushBool(a < b)
	case wasm.OpF64Gt:
		b, a := popF64(), popF64()
		pushBool(a > b)
	case wasm.OpF64Le:
		b, a := popF64(), popF64()
		pushBool(a <= b)
	case wasm.OpF64Ge:
		b, a := popF64(), popF64()
		pushBool(a >= b)

	// --- i32 numeric
	case wasm.OpI32Clz:
		pushI32(int32(bits.LeadingZeros32(popU32())))
	case wasm.OpI32Ctz:
		pushI32(int32(bits.TrailingZeros32(popU32())))
	case wasm.OpI32Popcnt:
		pushI32(int32(bits.OnesCount32(popU32())))
	case wasm.OpI32Add:
		b, a := popU32(), popU32()
		push(uint64(a + b))
	case wasm.OpI32Sub:
		b, a := popU32(), popU32()
		push(uint64(a - b))
	case wasm.OpI32Mul:
		b, a := popU32(), popU32()
		push(uint64(a * b))
	case wasm.OpI32DivS:
		b, a := popI32(), popI32()
		if b == 0 {
			return stack, ErrDivByZero
		}
		if a == math.MinInt32 && b == -1 {
			return stack, ErrIntOverflow
		}
		pushI32(a / b)
	case wasm.OpI32DivU:
		b, a := popU32(), popU32()
		if b == 0 {
			return stack, ErrDivByZero
		}
		push(uint64(a / b))
	case wasm.OpI32RemS:
		b, a := popI32(), popI32()
		if b == 0 {
			return stack, ErrDivByZero
		}
		if a == math.MinInt32 && b == -1 {
			pushI32(0)
		} else {
			pushI32(a % b)
		}
	case wasm.OpI32RemU:
		b, a := popU32(), popU32()
		if b == 0 {
			return stack, ErrDivByZero
		}
		push(uint64(a % b))
	case wasm.OpI32And:
		b, a := popU32(), popU32()
		push(uint64(a & b))
	case wasm.OpI32Or:
		b, a := popU32(), popU32()
		push(uint64(a | b))
	case wasm.OpI32Xor:
		b, a := popU32(), popU32()
		push(uint64(a ^ b))
	case wasm.OpI32Shl:
		b, a := popU32(), popU32()
		push(uint64(a << (b & 31)))
	case wasm.OpI32ShrS:
		b, a := popU32(), popI32()
		pushI32(a >> (b & 31))
	case wasm.OpI32ShrU:
		b, a := popU32(), popU32()
		push(uint64(a >> (b & 31)))
	case wasm.OpI32Rotl:
		b, a := popU32(), popU32()
		push(uint64(bits.RotateLeft32(a, int(b&31))))
	case wasm.OpI32Rotr:
		b, a := popU32(), popU32()
		push(uint64(bits.RotateLeft32(a, -int(b&31))))

	// --- i64 numeric
	case wasm.OpI64Clz:
		push(uint64(bits.LeadingZeros64(pop())))
	case wasm.OpI64Ctz:
		push(uint64(bits.TrailingZeros64(pop())))
	case wasm.OpI64Popcnt:
		push(uint64(bits.OnesCount64(pop())))
	case wasm.OpI64Add:
		b, a := pop(), pop()
		push(a + b)
	case wasm.OpI64Sub:
		b, a := pop(), pop()
		push(a - b)
	case wasm.OpI64Mul:
		b, a := pop(), pop()
		push(a * b)
	case wasm.OpI64DivS:
		b, a := popI64(), popI64()
		if b == 0 {
			return stack, ErrDivByZero
		}
		if a == math.MinInt64 && b == -1 {
			return stack, ErrIntOverflow
		}
		push(uint64(a / b))
	case wasm.OpI64DivU:
		b, a := pop(), pop()
		if b == 0 {
			return stack, ErrDivByZero
		}
		push(a / b)
	case wasm.OpI64RemS:
		b, a := popI64(), popI64()
		if b == 0 {
			return stack, ErrDivByZero
		}
		if a == math.MinInt64 && b == -1 {
			push(0)
		} else {
			push(uint64(a % b))
		}
	case wasm.OpI64RemU:
		b, a := pop(), pop()
		if b == 0 {
			return stack, ErrDivByZero
		}
		push(a % b)
	case wasm.OpI64And:
		b, a := pop(), pop()
		push(a & b)
	case wasm.OpI64Or:
		b, a := pop(), pop()
		push(a | b)
	case wasm.OpI64Xor:
		b, a := pop(), pop()
		push(a ^ b)
	case wasm.OpI64Shl:
		b, a := pop(), pop()
		push(a << (b & 63))
	case wasm.OpI64ShrS:
		b, a := pop(), popI64()
		push(uint64(a >> (b & 63)))
	case wasm.OpI64ShrU:
		b, a := pop(), pop()
		push(a >> (b & 63))
	case wasm.OpI64Rotl:
		b, a := pop(), pop()
		push(bits.RotateLeft64(a, int(b&63)))
	case wasm.OpI64Rotr:
		b, a := pop(), pop()
		push(bits.RotateLeft64(a, -int(b&63)))

	// --- f32 numeric
	case wasm.OpF32Abs:
		pushF32(float32(math.Abs(float64(popF32()))))
	case wasm.OpF32Neg:
		pushF32(-popF32())
	case wasm.OpF32Ceil:
		pushF32(float32(math.Ceil(float64(popF32()))))
	case wasm.OpF32Floor:
		pushF32(float32(math.Floor(float64(popF32()))))
	case wasm.OpF32Trunc:
		pushF32(float32(math.Trunc(float64(popF32()))))
	case wasm.OpF32Nearest:
		pushF32(float32(math.RoundToEven(float64(popF32()))))
	case wasm.OpF32Sqrt:
		pushF32(float32(math.Sqrt(float64(popF32()))))
	case wasm.OpF32Add:
		b, a := popF32(), popF32()
		pushF32(a + b)
	case wasm.OpF32Sub:
		b, a := popF32(), popF32()
		pushF32(a - b)
	case wasm.OpF32Mul:
		b, a := popF32(), popF32()
		pushF32(a * b)
	case wasm.OpF32Div:
		b, a := popF32(), popF32()
		pushF32(a / b)
	case wasm.OpF32Min:
		b, a := popF32(), popF32()
		pushF32(float32(fmin(float64(a), float64(b))))
	case wasm.OpF32Max:
		b, a := popF32(), popF32()
		pushF32(float32(fmax(float64(a), float64(b))))
	case wasm.OpF32Copysign:
		b, a := popF32(), popF32()
		pushF32(float32(math.Copysign(float64(a), float64(b))))

	// --- f64 numeric
	case wasm.OpF64Abs:
		pushF64(math.Abs(popF64()))
	case wasm.OpF64Neg:
		pushF64(-popF64())
	case wasm.OpF64Ceil:
		pushF64(math.Ceil(popF64()))
	case wasm.OpF64Floor:
		pushF64(math.Floor(popF64()))
	case wasm.OpF64Trunc:
		pushF64(math.Trunc(popF64()))
	case wasm.OpF64Nearest:
		pushF64(math.RoundToEven(popF64()))
	case wasm.OpF64Sqrt:
		pushF64(math.Sqrt(popF64()))
	case wasm.OpF64Add:
		b, a := popF64(), popF64()
		pushF64(a + b)
	case wasm.OpF64Sub:
		b, a := popF64(), popF64()
		pushF64(a - b)
	case wasm.OpF64Mul:
		b, a := popF64(), popF64()
		pushF64(a * b)
	case wasm.OpF64Div:
		b, a := popF64(), popF64()
		pushF64(a / b)
	case wasm.OpF64Min:
		b, a := popF64(), popF64()
		pushF64(fmin(a, b))
	case wasm.OpF64Max:
		b, a := popF64(), popF64()
		pushF64(fmax(a, b))
	case wasm.OpF64Copysign:
		b, a := popF64(), popF64()
		pushF64(math.Copysign(a, b))

	// --- conversions
	case wasm.OpI32WrapI64:
		push(uint64(uint32(pop())))
	case wasm.OpI32TruncF32S:
		f := float64(popF32())
		v, err := truncS(f, i32Lo, i32Hi)
		if err != nil {
			return stack, err
		}
		pushI32(int32(v))
	case wasm.OpI32TruncF32U:
		f := float64(popF32())
		v, err := truncU(f, u32Hi)
		if err != nil {
			return stack, err
		}
		push(uint64(uint32(v)))
	case wasm.OpI32TruncF64S:
		v, err := truncS(popF64(), i32Lo, i32Hi)
		if err != nil {
			return stack, err
		}
		pushI32(int32(v))
	case wasm.OpI32TruncF64U:
		v, err := truncU(popF64(), u32Hi)
		if err != nil {
			return stack, err
		}
		push(uint64(uint32(v)))
	case wasm.OpI64ExtendI32S:
		push(uint64(int64(popI32())))
	case wasm.OpI64ExtendI32U:
		push(uint64(popU32()))
	case wasm.OpI64TruncF32S:
		v, err := truncS(float64(popF32()), i64Lo, i64Hi)
		if err != nil {
			return stack, err
		}
		push(uint64(v))
	case wasm.OpI64TruncF32U:
		v, err := truncU(float64(popF32()), u64Hi)
		if err != nil {
			return stack, err
		}
		push(v)
	case wasm.OpI64TruncF64S:
		v, err := truncS(popF64(), i64Lo, i64Hi)
		if err != nil {
			return stack, err
		}
		push(uint64(v))
	case wasm.OpI64TruncF64U:
		v, err := truncU(popF64(), u64Hi)
		if err != nil {
			return stack, err
		}
		push(v)
	case wasm.OpF32ConvertI32S:
		pushF32(float32(popI32()))
	case wasm.OpF32ConvertI32U:
		pushF32(float32(popU32()))
	case wasm.OpF32ConvertI64S:
		pushF32(float32(popI64()))
	case wasm.OpF32ConvertI64U:
		pushF32(float32(pop()))
	case wasm.OpF32DemoteF64:
		pushF32(float32(popF64()))
	case wasm.OpF64ConvertI32S:
		pushF64(float64(popI32()))
	case wasm.OpF64ConvertI32U:
		pushF64(float64(popU32()))
	case wasm.OpF64ConvertI64S:
		pushF64(float64(popI64()))
	case wasm.OpF64ConvertI64U:
		pushF64(float64(pop()))
	case wasm.OpF64PromoteF32:
		pushF64(float64(popF32()))
	case wasm.OpI32ReinterpretF, wasm.OpI64ReinterpretF,
		wasm.OpF32ReinterpretI, wasm.OpF64ReinterpretI:
		// bit pattern unchanged
	default:
		return stack, &UnknownOpcodeError{Op: op}
	}
	return stack, nil
}

// UnknownOpcodeError reports execution of an opcode outside the MVP set.
type UnknownOpcodeError struct{ Op wasm.Opcode }

func (e *UnknownOpcodeError) Error() string {
	return "interp: unknown opcode " + e.Op.String()
}

func fmin(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if math.Signbit(a) || math.Signbit(b) {
			return math.Copysign(0, -1)
		}
		return 0
	}
	return math.Min(a, b)
}

func fmax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == 0 && b == 0 {
		if !math.Signbit(a) || !math.Signbit(b) {
			return 0
		}
		return math.Copysign(0, -1)
	}
	return math.Max(a, b)
}

// truncS truncates f toward zero and traps unless lo <= trunc(f) < hi,
// where lo/hi are the exact float bounds of the target integer type.
func truncS(f, lo, hi float64) (int64, error) {
	if math.IsNaN(f) {
		return 0, ErrInvalidConversion
	}
	t := math.Trunc(f)
	if t < lo || t >= hi {
		return 0, ErrIntOverflow
	}
	return int64(t), nil
}

// truncU truncates f toward zero and traps unless 0 <= trunc(f) < hi.
func truncU(f, hi float64) (uint64, error) {
	if math.IsNaN(f) {
		return 0, ErrInvalidConversion
	}
	t := math.Trunc(f)
	if t <= -1 || t >= hi {
		return 0, ErrIntOverflow
	}
	if t < 0 {
		t = 0
	}
	return uint64(t), nil
}

// Exact float bounds for trapping truncations.
const (
	i32Lo = -2147483648.0
	i32Hi = 2147483648.0
	i64Lo = -9223372036854775808.0
	i64Hi = 9223372036854775808.0
	u32Hi = 4294967296.0
	u64Hi = 18446744073709551616.0
)
