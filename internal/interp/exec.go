package interp

import (
	"fmt"
	"math"

	"acctee/internal/wasm"
)

// This file holds the accounting-exactness machinery the register engine
// (regalloc.go, regexec.go) falls back on. Fuel, CostModel cycles and the
// ground-truth instruction counter are charged once per straight-line
// segment, by the register driver at the segment's leader (chargeSeg); the
// two paths that must undo or refine that batched charge live here:
//
//   - a trap rolls the not-executed suffix of its segment back, from the
//     trapping instruction's original body pc (rollback);
//   - a fuel shortfall deoptimizes, before the segment runs, to a
//     per-instruction tail over the original body (execFuelTail),
//
// so all accounting stays bit-identical to the structured reference engine.

// Raw-bit boxing helpers shared by both engines' numeric code.

// b2u converts a comparison result to a wasm i32 boolean.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func uf32(u uint64) float32 { return math.Float32frombits(uint32(u)) }
func f32u(f float32) uint64 { return uint64(math.Float32bits(f)) }
func uf64(u uint64) float64 { return math.Float64frombits(u) }
func f64u(f float64) uint64 { return math.Float64bits(f) }
func i32u(v int32) uint64   { return uint64(uint32(v)) }

// rollback undoes the batched charge for the not-executed suffix (pc,
// segEnd] of the trapping instruction's segment, restoring the exact
// per-instruction totals (the trapping instruction itself stays charged,
// matching the reference engine).
func (vm *VM) rollback(f *compiledFunc, fc *funcCosts, pc int) {
	end := int(f.flat[pc].segEnd)
	n := uint64(end - pc)
	if n == 0 {
		return
	}
	vm.instrCount -= n
	if vm.fuelLimited {
		vm.fuel += n
	}
	if fc != nil {
		vm.costAcc -= fc.costPfx[end+1] - fc.costPfx[pc+1]
	}
}

// invokeHost calls imported function idx, popping arguments from and pushing
// results onto st; it returns the new stack pointer. st is the caller's
// stack-home window (frame[numLoc:]).
func (vm *VM) invokeHost(idx uint32, st []uint64, sp int) (int, error) {
	sig := vm.hostSigs[idx]
	n := len(sig.Params)
	args := make([]uint64, n)
	copy(args, st[sp-n:sp])
	sp -= n
	res, err := vm.hostFns[idx](vm, args)
	if err != nil {
		return sp, err
	}
	if len(res) != len(sig.Results) {
		return sp, fmt.Errorf("interp: host import %d returned %d results, want %d", idx, len(res), len(sig.Results))
	}
	for _, v := range res {
		st[sp] = v
		sp++
	}
	return sp, nil
}

// execFuelTail finishes a segment whose batched fuel charge would overdraw:
// it executes instruction by instruction with the reference engine's exact
// per-instruction accounting. It is entered only when the remaining fuel is
// smaller than the segment's instruction count, so it always terminates —
// with ErrFuelExhausted at the precise instruction the reference engine
// would trap on, or with an earlier trap from the instruction itself.
func (vm *VM) execFuelTail(body []wasm.Instr, locals, st []uint64, sp, pc int) error {
	for {
		in := &body[pc]
		op := in.Op
		vm.instrCount++
		if vm.fuel == 0 {
			return ErrFuelExhausted
		}
		vm.fuel--
		if vm.cost != nil {
			vm.costAcc += vm.cost.InstrCost(op)
		}
		switch op {
		case wasm.OpNop:
			// nothing
		case wasm.OpDrop:
			sp--
		case wasm.OpSelect:
			sp -= 2
			if st[sp+1] == 0 {
				st[sp-1] = st[sp]
			}
		case wasm.OpLocalGet:
			st[sp] = locals[in.Idx]
			sp++
		case wasm.OpLocalSet:
			sp--
			locals[in.Idx] = st[sp]
		case wasm.OpLocalTee:
			locals[in.Idx] = st[sp-1]
		case wasm.OpGlobalGet:
			st[sp] = vm.globals[in.Idx]
			sp++
		case wasm.OpGlobalSet:
			sp--
			vm.globals[in.Idx] = st[sp]
		case wasm.OpMemorySize:
			st[sp] = uint64(uint32(len(vm.memory) / wasm.PageSize))
			sp++
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			st[sp] = in.U64
			sp++
		default:
			if op.IsControl() || op == wasm.OpMemoryGrow {
				// Segments end at control transfers, calls and grows; fuel
				// must have run out before reaching one.
				return fmt.Errorf("interp: internal: fuel tail reached %s", op)
			}
			stack, err := vm.numeric(in, st[:sp])
			if err != nil {
				return err
			}
			sp = len(stack)
		}
		pc++
	}
}
