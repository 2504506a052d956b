package interp

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sync/atomic"

	"acctee/internal/wasm"
)

// This file is the register engine's runtime: the direct-threaded driver and
// the helpers its closures call. The compile-time half — the stack-to-
// register lowering that builds the closure stream — lives in regalloc.go.
//
// Execution model: a compiled function body is an array of closures,
// ops[i] = func(vm, frame) int, each returning the index of the next closure
// to run, beside an array of segment instruction counts, seg[i], non-zero at
// segment leaders. The driver is the loop
//
//	for uint(pc) < uint(len(ops)) {
//		if n := seg[pc]; n != 0 { poll the interrupt, test fuel, charge n }
//		pc = ops[pc](vm, frame)
//	}
//
// so there is no big-switch dispatch, no decoded instruction stream and —
// because every operand-stack slot has a fixed home register — no runtime
// stack pointer. The accounting is the driver's own step (chargeSeg), not a
// closure around the leader's, so a leader costs one indirect call like any
// other pc. Negative returns (regTrapRet/regErrRet) convert to huge uints and
// exit the loop; regDone is a large positive index past any real stream,
// distinguishing normal completion from a trap.

// regFn is one direct-threaded handler: execute, return the next index.
type regFn func(vm *VM, fr []uint64) int

const (
	// regDone is returned by exit handlers (return / final end / br to the
	// function label) after depositing the result in vm.regRet.
	regDone = 1 << 30
	// regTrapRet signals a trap: vm.regErr and vm.regTrapPC (original
	// body-pc space) are set and the driver performs segment rollback.
	regTrapRet = -1
	// regErrRet signals an error that leaves accounting as it is, with no
	// rollback: the guards on statement-interior and dead pcs.
	regErrRet = -2
)

// regCode is one function's register-form artifact.
type regCode struct {
	ops []regFn
	// seg[pc]: the instruction count the driver charges before ops[pc], the
	// segment pc leads; 0 where pc leads none.
	seg []uint32
	// wid records how many original body instructions the closure at each
	// pc covers (0 at statement-interior pcs).
	wid []int32
	// regs is the register-file size: numLoc locals + maxStack stack homes.
	regs int
	// RegStats' counters, taken while lowering, and the branches cmpBranch
	// built.
	specialised, spans, threaded, inlineUpd, leafOps, cmpBr int
}

// execReg runs a compiled function on the register engine. fi is the
// defined-function index (cost-table lookup); frame is the register file:
// numLoc locals followed by one home register per operand-stack slot.
func (vm *VM) execReg(f *compiledFunc, fi int, frame []uint64) (uint64, error) {
	// Inlined-call markers bump depth mid-stream; restoring the entry depth
	// keeps it right when a trap unwinds past open inline regions.
	d0 := vm.depth
	vm.depth++
	defer func() { vm.depth = d0 }()
	if vm.depth > vm.maxDepth {
		return 0, ErrCallStackExhausted
	}

	ops, seg := f.reg.ops, f.reg.seg
	intr, limited, segCost := vm.segAcct(fi)
	pc := 0
	for uint(pc) < uint(len(ops)) {
		if n := seg[pc]; n != 0 {
			if ok, interrupted := vm.chargeSeg(intr, limited, segCost, pc, uint64(n)); !ok {
				return 0, vm.stopSeg(interrupted, f, frame, pc)
			}
		}
		pc = ops[pc](vm, frame)
	}
	if pc >= 0 {
		if f.nresults > 0 {
			return vm.regRet, nil
		}
		return 0, nil
	}
	if pc == regTrapRet {
		var fc *funcCosts
		if vm.cost != nil {
			fc = &vm.costs[fi]
		}
		vm.rollback(f, fc, int(vm.regTrapPC))
		return 0, vm.regErr
	}
	// regErrRet: nothing to roll back.
	return 0, vm.regErr
}

// segAcct reads what chargeSeg needs and no run changes: the interrupt flag's
// address, whether fuel is limited and function fi's segment costs (nil
// without a cost model). Only Reset, binding a run, and InstancePool.Put,
// after it, write them, so an activation reads them once.
func (vm *VM) segAcct(fi int) (intr *atomic.Bool, limited bool, segCost []uint64) {
	if vm.cost != nil {
		segCost = vm.costs[fi].segCost
	}
	return vm.intr, vm.fuelLimited, segCost
}

// chargeSeg is the driver's step at a segment leader, before the leader's
// closure runs, in a fixed order: poll the interrupt, test fuel — either
// stops the run (stopSeg) with nothing of the segment run or charged — then
// make the segment's batched InstrCount, fuel and cost charge of n
// instructions. It has no calls, so it inlines into the driver loop.
func (vm *VM) chargeSeg(intr *atomic.Bool, limited bool, segCost []uint64, pc int, n uint64) (ok, interrupted bool) {
	if intr != nil && intr.Load() {
		return false, true
	}
	if limited && vm.fuel < n {
		return false, false
	}
	vm.instrCount += n
	if limited {
		vm.fuel -= n
	}
	if segCost != nil {
		vm.costAcc += segCost[pc]
	}
	return true, false
}

// stopSeg ends the run at a leader chargeSeg refused, accounting exact and so
// without rollback. A fuel shortfall deoptimises to the per-instruction tail:
// at a leader every live stack value is in its home register, so the tail
// runs the original body against the frame's home window, and the full frame
// is its locals array (inlined callee bodies address their locals at >= numLoc).
func (vm *VM) stopSeg(interrupted bool, f *compiledFunc, fr []uint64, pc int) error {
	if interrupted {
		return ErrInterrupted
	}
	return vm.execFuelTail(f.body, fr, fr[f.numLoc:], int(f.preH[pc]), pc)
}

// invokeAtReg calls function idx (combined index space) from a register-
// engine closure (the call_indirect path, whose callee is only known at run
// time). st is the caller's stack-home window (frame[numLoc:]) with the
// arguments materialised at [sp-nargs, sp); results land back at the same
// position.
func (vm *VM) invokeAtReg(idx uint32, st []uint64, sp int) (int, error) {
	nimp := len(vm.hostFns)
	if int(idx) < nimp {
		return vm.invokeHost(idx, st, sp)
	}
	di := int(idx) - nimp
	cf := &vm.funcs[di]
	frame := vm.getFrame(cf.numLoc+cf.maxStack, cf.nparams, cf.numLoc)
	copy(frame, st[sp-cf.nparams:sp])
	sp -= cf.nparams
	res, err := vm.execReg(cf, di, frame)
	if err != nil {
		return sp, err
	}
	if cf.nresults > 0 {
		st[sp] = res
		sp++
	}
	return sp, nil
}

// applyUn executes one single-operand numeric or conversion instruction on a
// raw 64-bit operand, replicating the reference engine's cases exactly. The
// trapping family (float→int truncation) returns the engine trap errors.
func applyUn(op wasm.Opcode, a uint64) (uint64, error) {
	switch op {
	case wasm.OpI32Eqz:
		return b2u(uint32(a) == 0), nil
	case wasm.OpI64Eqz:
		return b2u(a == 0), nil
	case wasm.OpI32Clz:
		return uint64(uint32(bits.LeadingZeros32(uint32(a)))), nil
	case wasm.OpI32Ctz:
		return uint64(uint32(bits.TrailingZeros32(uint32(a)))), nil
	case wasm.OpI32Popcnt:
		return uint64(uint32(bits.OnesCount32(uint32(a)))), nil
	case wasm.OpI64Clz:
		return uint64(bits.LeadingZeros64(a)), nil
	case wasm.OpI64Ctz:
		return uint64(bits.TrailingZeros64(a)), nil
	case wasm.OpI64Popcnt:
		return uint64(bits.OnesCount64(a)), nil

	case wasm.OpF32Abs:
		return f32u(float32(math.Abs(float64(uf32(a))))), nil
	case wasm.OpF32Neg:
		return f32u(-uf32(a)), nil
	case wasm.OpF32Ceil:
		return f32u(float32(math.Ceil(float64(uf32(a))))), nil
	case wasm.OpF32Floor:
		return f32u(float32(math.Floor(float64(uf32(a))))), nil
	case wasm.OpF32Trunc:
		return f32u(float32(math.Trunc(float64(uf32(a))))), nil
	case wasm.OpF32Nearest:
		return f32u(float32(math.RoundToEven(float64(uf32(a))))), nil
	case wasm.OpF32Sqrt:
		return f32u(float32(math.Sqrt(float64(uf32(a))))), nil

	case wasm.OpF64Abs:
		return f64u(math.Abs(uf64(a))), nil
	case wasm.OpF64Neg:
		return f64u(-uf64(a)), nil
	case wasm.OpF64Ceil:
		return f64u(math.Ceil(uf64(a))), nil
	case wasm.OpF64Floor:
		return f64u(math.Floor(uf64(a))), nil
	case wasm.OpF64Trunc:
		return f64u(math.Trunc(uf64(a))), nil
	case wasm.OpF64Nearest:
		return f64u(math.RoundToEven(uf64(a))), nil
	case wasm.OpF64Sqrt:
		return f64u(math.Sqrt(uf64(a))), nil

	case wasm.OpI32WrapI64:
		return uint64(uint32(a)), nil
	case wasm.OpI32TruncF32S:
		v, err := truncS(float64(uf32(a)), i32Lo, i32Hi)
		if err != nil {
			return 0, err
		}
		return i32u(int32(v)), nil
	case wasm.OpI32TruncF32U:
		v, err := truncU(float64(uf32(a)), u32Hi)
		if err != nil {
			return 0, err
		}
		return uint64(uint32(v)), nil
	case wasm.OpI32TruncF64S:
		v, err := truncS(uf64(a), i32Lo, i32Hi)
		if err != nil {
			return 0, err
		}
		return i32u(int32(v)), nil
	case wasm.OpI32TruncF64U:
		v, err := truncU(uf64(a), u32Hi)
		if err != nil {
			return 0, err
		}
		return uint64(uint32(v)), nil
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(uint32(a)))), nil
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(a)), nil
	case wasm.OpI64TruncF32S:
		v, err := truncS(float64(uf32(a)), i64Lo, i64Hi)
		if err != nil {
			return 0, err
		}
		return uint64(v), nil
	case wasm.OpI64TruncF32U:
		return truncU(float64(uf32(a)), u64Hi)
	case wasm.OpI64TruncF64S:
		v, err := truncS(uf64(a), i64Lo, i64Hi)
		if err != nil {
			return 0, err
		}
		return uint64(v), nil
	case wasm.OpI64TruncF64U:
		return truncU(uf64(a), u64Hi)
	case wasm.OpF32ConvertI32S:
		return f32u(float32(int32(uint32(a)))), nil
	case wasm.OpF32ConvertI32U:
		return f32u(float32(uint32(a))), nil
	case wasm.OpF32ConvertI64S:
		return f32u(float32(int64(a))), nil
	case wasm.OpF32ConvertI64U:
		return f32u(float32(a)), nil
	case wasm.OpF32DemoteF64:
		return f32u(float32(uf64(a))), nil
	case wasm.OpF64ConvertI32S:
		return f64u(float64(int32(uint32(a)))), nil
	case wasm.OpF64ConvertI32U:
		return f64u(float64(uint32(a))), nil
	case wasm.OpF64ConvertI64S:
		return f64u(float64(int64(a))), nil
	case wasm.OpF64ConvertI64U:
		return f64u(float64(a)), nil
	case wasm.OpF64PromoteF32:
		return f64u(float64(uf32(a))), nil
	case wasm.OpI32ReinterpretF, wasm.OpI64ReinterpretF,
		wasm.OpF32ReinterpretI, wasm.OpF64ReinterpretI:
		return a, nil
	}
	return 0, &UnknownOpcodeError{Op: op}
}

// unCanTrap reports whether a unary op can trap (float→int truncations).
func unCanTrap(op wasm.Opcode) bool {
	switch op {
	case wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI32TruncF64S,
		wasm.OpI32TruncF64U, wasm.OpI64TruncF32S, wasm.OpI64TruncF32U,
		wasm.OpI64TruncF64S, wasm.OpI64TruncF64U:
		return true
	}
	return false
}

// binCanTrap reports whether a binary op can trap (integer div/rem).
func binCanTrap(op wasm.Opcode) bool {
	switch op {
	case wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU,
		wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU:
		return true
	}
	return false
}

// Load extension codes: the per-opcode sign/zero extension fastLoad applies
// to the raw little-endian bits.
const (
	extNone = iota
	extI32S8
	extI64S8
	extI32S16
	extI64S16
	extI64S32
)

// loadSpec returns the access width and extension code of a load opcode.
func loadSpec(op wasm.Opcode) (width, ext uint32, ok bool) {
	switch op {
	case wasm.OpI32Load, wasm.OpF32Load:
		return 4, extNone, true
	case wasm.OpI64Load, wasm.OpF64Load:
		return 8, extNone, true
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return 1, extNone, true
	case wasm.OpI32Load8S:
		return 1, extI32S8, true
	case wasm.OpI64Load8S:
		return 1, extI64S8, true
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return 2, extNone, true
	case wasm.OpI32Load16S:
		return 2, extI32S16, true
	case wasm.OpI64Load16S:
		return 2, extI64S16, true
	case wasm.OpI64Load32U:
		return 4, extNone, true
	case wasm.OpI64Load32S:
		return 4, extI64S32, true
	}
	return 0, 0, false
}

// storeSpec returns the access width of a store opcode.
func storeSpec(op wasm.Opcode) (width uint32, ok bool) {
	switch op {
	case wasm.OpI32Store8, wasm.OpI64Store8:
		return 1, true
	case wasm.OpI32Store16, wasm.OpI64Store16:
		return 2, true
	case wasm.OpI32Store, wasm.OpF32Store, wasm.OpI64Store32:
		return 4, true
	case wasm.OpI64Store, wasm.OpF64Store:
		return 8, true
	}
	return 0, false
}

// applyBin executes one two-operand numeric or comparison instruction on raw
// 64-bit operands (a is the lower stack slot). Semantics replicate the
// reference engine's cases exactly — wrap-around integer arithmetic, masked
// shift counts, IEEE-754 single/double arithmetic on the boxed bit patterns.
// The two trapping families (integer division and remainder) return the
// engine trap errors; everything else returns a nil error.
func applyBin(op wasm.Opcode, a, b uint64) (uint64, error) {
	switch op {
	// --- i32 numeric
	case wasm.OpI32Add:
		return uint64(uint32(a) + uint32(b)), nil
	case wasm.OpI32Sub:
		return uint64(uint32(a) - uint32(b)), nil
	case wasm.OpI32Mul:
		return uint64(uint32(a) * uint32(b)), nil
	case wasm.OpI32DivS:
		x, y := int32(uint32(a)), int32(uint32(b))
		if y == 0 {
			return 0, ErrDivByZero
		}
		if x == math.MinInt32 && y == -1 {
			return 0, ErrIntOverflow
		}
		return i32u(x / y), nil
	case wasm.OpI32DivU:
		if uint32(b) == 0 {
			return 0, ErrDivByZero
		}
		return uint64(uint32(a) / uint32(b)), nil
	case wasm.OpI32RemS:
		x, y := int32(uint32(a)), int32(uint32(b))
		if y == 0 {
			return 0, ErrDivByZero
		}
		if x == math.MinInt32 && y == -1 {
			return 0, nil
		}
		return i32u(x % y), nil
	case wasm.OpI32RemU:
		if uint32(b) == 0 {
			return 0, ErrDivByZero
		}
		return uint64(uint32(a) % uint32(b)), nil
	case wasm.OpI32And:
		return uint64(uint32(a) & uint32(b)), nil
	case wasm.OpI32Or:
		return uint64(uint32(a) | uint32(b)), nil
	case wasm.OpI32Xor:
		return uint64(uint32(a) ^ uint32(b)), nil
	case wasm.OpI32Shl:
		return uint64(uint32(a) << (uint32(b) & 31)), nil
	case wasm.OpI32ShrS:
		return i32u(int32(uint32(a)) >> (uint32(b) & 31)), nil
	case wasm.OpI32ShrU:
		return uint64(uint32(a) >> (uint32(b) & 31)), nil
	case wasm.OpI32Rotl:
		return uint64(bits.RotateLeft32(uint32(a), int(uint32(b)&31))), nil
	case wasm.OpI32Rotr:
		return uint64(bits.RotateLeft32(uint32(a), -int(uint32(b)&31))), nil

	// --- i64 numeric
	case wasm.OpI64Add:
		return a + b, nil
	case wasm.OpI64Sub:
		return a - b, nil
	case wasm.OpI64Mul:
		return a * b, nil
	case wasm.OpI64DivS:
		x, y := int64(a), int64(b)
		if y == 0 {
			return 0, ErrDivByZero
		}
		if x == math.MinInt64 && y == -1 {
			return 0, ErrIntOverflow
		}
		return uint64(x / y), nil
	case wasm.OpI64DivU:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a / b, nil
	case wasm.OpI64RemS:
		x, y := int64(a), int64(b)
		if y == 0 {
			return 0, ErrDivByZero
		}
		if x == math.MinInt64 && y == -1 {
			return 0, nil
		}
		return uint64(x % y), nil
	case wasm.OpI64RemU:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a % b, nil
	case wasm.OpI64And:
		return a & b, nil
	case wasm.OpI64Or:
		return a | b, nil
	case wasm.OpI64Xor:
		return a ^ b, nil
	case wasm.OpI64Shl:
		return a << (b & 63), nil
	case wasm.OpI64ShrS:
		return uint64(int64(a) >> (b & 63)), nil
	case wasm.OpI64ShrU:
		return a >> (b & 63), nil
	case wasm.OpI64Rotl:
		return bits.RotateLeft64(a, int(b&63)), nil
	case wasm.OpI64Rotr:
		return bits.RotateLeft64(a, -int(b&63)), nil

	// --- f32 numeric
	case wasm.OpF32Add:
		return f32u(uf32(a) + uf32(b)), nil
	case wasm.OpF32Sub:
		return f32u(uf32(a) - uf32(b)), nil
	case wasm.OpF32Mul:
		return f32u(uf32(a) * uf32(b)), nil
	case wasm.OpF32Div:
		return f32u(uf32(a) / uf32(b)), nil
	case wasm.OpF32Min:
		return f32u(float32(fmin(float64(uf32(a)), float64(uf32(b))))), nil
	case wasm.OpF32Max:
		return f32u(float32(fmax(float64(uf32(a)), float64(uf32(b))))), nil
	case wasm.OpF32Copysign:
		return f32u(float32(math.Copysign(float64(uf32(a)), float64(uf32(b))))), nil

	// --- f64 numeric
	case wasm.OpF64Add:
		return f64u(uf64(a) + uf64(b)), nil
	case wasm.OpF64Sub:
		return f64u(uf64(a) - uf64(b)), nil
	case wasm.OpF64Mul:
		return f64u(uf64(a) * uf64(b)), nil
	case wasm.OpF64Div:
		return f64u(uf64(a) / uf64(b)), nil
	case wasm.OpF64Min:
		return f64u(fmin(uf64(a), uf64(b))), nil
	case wasm.OpF64Max:
		return f64u(fmax(uf64(a), uf64(b))), nil
	case wasm.OpF64Copysign:
		return f64u(math.Copysign(uf64(a), uf64(b))), nil

	// --- i32 comparison
	case wasm.OpI32Eq:
		return b2u(uint32(a) == uint32(b)), nil
	case wasm.OpI32Ne:
		return b2u(uint32(a) != uint32(b)), nil
	case wasm.OpI32LtS:
		return b2u(int32(uint32(a)) < int32(uint32(b))), nil
	case wasm.OpI32LtU:
		return b2u(uint32(a) < uint32(b)), nil
	case wasm.OpI32GtS:
		return b2u(int32(uint32(a)) > int32(uint32(b))), nil
	case wasm.OpI32GtU:
		return b2u(uint32(a) > uint32(b)), nil
	case wasm.OpI32LeS:
		return b2u(int32(uint32(a)) <= int32(uint32(b))), nil
	case wasm.OpI32LeU:
		return b2u(uint32(a) <= uint32(b)), nil
	case wasm.OpI32GeS:
		return b2u(int32(uint32(a)) >= int32(uint32(b))), nil
	case wasm.OpI32GeU:
		return b2u(uint32(a) >= uint32(b)), nil

	// --- i64 comparison
	case wasm.OpI64Eq:
		return b2u(a == b), nil
	case wasm.OpI64Ne:
		return b2u(a != b), nil
	case wasm.OpI64LtS:
		return b2u(int64(a) < int64(b)), nil
	case wasm.OpI64LtU:
		return b2u(a < b), nil
	case wasm.OpI64GtS:
		return b2u(int64(a) > int64(b)), nil
	case wasm.OpI64GtU:
		return b2u(a > b), nil
	case wasm.OpI64LeS:
		return b2u(int64(a) <= int64(b)), nil
	case wasm.OpI64LeU:
		return b2u(a <= b), nil
	case wasm.OpI64GeS:
		return b2u(int64(a) >= int64(b)), nil
	case wasm.OpI64GeU:
		return b2u(a >= b), nil

	// --- f32 comparison
	case wasm.OpF32Eq:
		return b2u(uf32(a) == uf32(b)), nil
	case wasm.OpF32Ne:
		return b2u(uf32(a) != uf32(b)), nil
	case wasm.OpF32Lt:
		return b2u(uf32(a) < uf32(b)), nil
	case wasm.OpF32Gt:
		return b2u(uf32(a) > uf32(b)), nil
	case wasm.OpF32Le:
		return b2u(uf32(a) <= uf32(b)), nil
	case wasm.OpF32Ge:
		return b2u(uf32(a) >= uf32(b)), nil

	// --- f64 comparison
	case wasm.OpF64Eq:
		return b2u(uf64(a) == uf64(b)), nil
	case wasm.OpF64Ne:
		return b2u(uf64(a) != uf64(b)), nil
	case wasm.OpF64Lt:
		return b2u(uf64(a) < uf64(b)), nil
	case wasm.OpF64Gt:
		return b2u(uf64(a) > uf64(b)), nil
	case wasm.OpF64Le:
		return b2u(uf64(a) <= uf64(b)), nil
	case wasm.OpF64Ge:
		return b2u(uf64(a) >= uf64(b)), nil
	}
	return 0, &UnknownOpcodeError{Op: op}
}

// fastLoad reads width bytes little-endian from p (the caller has already
// found [0, width) inside one page) and applies the load's extension: one
// word access instead of loadBits's byte loop, with identical results.
func fastLoad(p []byte, width, ext uint32) uint64 {
	var v uint64
	switch width {
	case 1:
		v = uint64(p[0])
	case 2:
		v = uint64(binary.LittleEndian.Uint16(p))
	case 4:
		v = uint64(binary.LittleEndian.Uint32(p))
	default:
		v = binary.LittleEndian.Uint64(p)
	}
	return extend(v, ext)
}

// extend applies a load's sign extension to its raw little-endian bits.
func extend(v uint64, ext uint32) uint64 {
	switch ext {
	case extI32S8:
		v = uint64(uint32(int32(int8(v))))
	case extI64S8:
		v = uint64(int64(int8(v)))
	case extI32S16:
		v = uint64(uint32(int32(int16(v))))
	case extI64S16:
		v = uint64(int64(int16(v)))
	case extI64S32:
		v = uint64(int64(int32(uint32(v))))
	}
	return v
}

// fastStore writes the low width bytes of v little-endian into p (the
// caller has already found [0, width) inside one page and recorded it
// dirty).
func fastStore(p []byte, width uint32, v uint64) {
	switch width {
	case 1:
		p[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(p, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(p, uint32(v))
	default:
		binary.LittleEndian.PutUint64(p, v)
	}
}
