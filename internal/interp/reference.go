package interp

import (
	"fmt"

	"acctee/internal/cfg"
	"acctee/internal/wasm"
)

// This file is the structured reference engine (EngineStructured): the
// original interpreter over structured control flow, with a runtime label
// stack and per-instruction accounting. It defines the accounting semantics
// the register engine must reproduce bit-for-bit, and serves as the oracle
// for differential tests and before/after dispatch benchmarks.

// oracleFunc is the structured engine's view of one function: the
// pre-inline body with its br_table targets, the control matching of its
// cfg.Graph (the table the lowering pass resolves branches from), and its
// segment instruction counts (non-zero at the leaders where it polls). Where
// the inliner left the function alone, seg aliases the register stream's.
type oracleFunc struct {
	body     []wasm.Instr
	brTables [][]uint32
	match    []cfg.MatchInfo
	seg      []uint32
}

// labelRT is a runtime control label.
type labelRT struct {
	headerPC int
	endPC    int
	height   int // operand stack height at label entry
	arity    int
	isLoop   bool
}

// execStructured runs defined function di to completion and returns its
// results.
func (vm *VM) execStructured(di int, locals []uint64, stack []uint64) ([]uint64, error) {
	vm.depth++
	defer func() { vm.depth-- }()
	if vm.depth > vm.maxDepth {
		return nil, ErrCallStackExhausted
	}

	// The oracle runs the pre-inline views: every call is a real frame, so
	// the differential suite checks the inliner's accounting-exactness claim
	// on every run.
	f, o := &vm.funcs[di], &vm.oracle[di]
	labels := make([]labelRT, 0, 16)
	body := o.body
	pc := 0

	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	for pc < len(body) {
		in := &body[pc]
		op := in.Op

		// Poll cooperative cancellation at the same program points the
		// register engine does — segment leaders (seg[pc] != 0) — and
		// before charging this instruction, so the abort pc and the counters
		// are bit-identical across engines.
		if vm.intr != nil && o.seg[pc] != 0 && vm.intr.Load() {
			return nil, ErrInterrupted
		}

		vm.instrCount++
		if vm.fuelLimited {
			if vm.fuel == 0 {
				return nil, ErrFuelExhausted
			}
			vm.fuel--
		}
		if vm.cost != nil {
			vm.costAcc += vm.cost.InstrCost(op)
		}

		switch op {
		case wasm.OpUnreachable:
			return nil, ErrUnreachable
		case wasm.OpNop:
			// nothing
		case wasm.OpBlock, wasm.OpIf, wasm.OpLoop:
			mi := o.match[pc]
			l := labelRT{
				headerPC: pc,
				endPC:    int(mi.EndPC),
				height:   len(stack),
				arity:    int(labelArity(in.BT)),
				isLoop:   op == wasm.OpLoop,
			}
			if op == wasm.OpIf {
				cond := pop()
				l.height = len(stack)
				if cond == 0 {
					if mi.ElsePC >= 0 {
						labels = append(labels, l)
						pc = int(mi.ElsePC) + 1
						continue
					}
					// no else: skip past end entirely
					pc = int(mi.EndPC) + 1
					continue
				}
			}
			labels = append(labels, l)
		case wasm.OpElse:
			// Reached by falling off the then-branch: jump to matching end,
			// which pops the label.
			pc = int(o.match[pc].EndPC)
			continue
		case wasm.OpEnd:
			if !o.match[pc].Ok && len(labels) == 0 {
				// function-final end
				break
			}
			labels = labels[:len(labels)-1]
		case wasm.OpBr:
			var err error
			pc, labels, stack, err = vm.branch(f.nresults, len(body), int(in.Idx), labels, stack)
			if err != nil {
				return nil, err
			}
			continue
		case wasm.OpBrIf:
			if pop() != 0 {
				var err error
				pc, labels, stack, err = vm.branch(f.nresults, len(body), int(in.Idx), labels, stack)
				if err != nil {
					return nil, err
				}
				continue
			}
		case wasm.OpBrTable:
			targets := o.brTables[in.Idx]
			i := uint32(pop())
			d := targets[len(targets)-1]
			if int(i) < len(targets)-1 {
				d = targets[i]
			}
			var err error
			pc, labels, stack, err = vm.branch(f.nresults, len(body), int(d), labels, stack)
			if err != nil {
				return nil, err
			}
			continue
		case wasm.OpReturn:
			if f.nresults > 0 {
				return []uint64{stack[len(stack)-1]}, nil
			}
			return nil, nil
		case wasm.OpCall:
			var err error
			stack, err = vm.callFuncStructured(in.Idx, stack)
			if err != nil {
				return nil, err
			}
		case wasm.OpCallIndirect:
			elem := uint32(pop())
			if int(elem) >= len(vm.table) {
				return nil, ErrUndefinedElement
			}
			fi := vm.table[elem]
			if fi < 0 {
				return nil, ErrUndefinedElement
			}
			want := vm.module.Types[in.Idx]
			got, err := vm.module.FuncTypeAt(uint32(fi))
			if err != nil || !got.Equal(want) {
				return nil, ErrIndirectTypeBad
			}
			stack, err = vm.callFuncStructured(uint32(fi), stack)
			if err != nil {
				return nil, err
			}
		case wasm.OpDrop:
			pop()
		case wasm.OpSelect:
			c := pop()
			b := pop()
			a := pop()
			if c != 0 {
				push(a)
			} else {
				push(b)
			}
		case wasm.OpLocalGet:
			push(locals[in.Idx])
		case wasm.OpLocalSet:
			locals[in.Idx] = pop()
		case wasm.OpLocalTee:
			locals[in.Idx] = stack[len(stack)-1]
		case wasm.OpGlobalGet:
			push(vm.globals[in.Idx])
		case wasm.OpGlobalSet:
			vm.globals[in.Idx] = pop()
		case wasm.OpMemorySize:
			push(uint64(vm.memPages))
		case wasm.OpMemoryGrow:
			push(uint64(vm.grow(uint32(pop()))))
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			push(in.U64)

		default:
			var err error
			stack, err = vm.numeric(in, stack)
			if err != nil {
				return nil, err
			}
		}

		if op == wasm.OpEnd && !o.match[pc].Ok && len(labels) == 0 {
			break
		}
		pc++
	}

	if f.nresults > 0 {
		if len(stack) == 0 {
			return nil, ErrUnreachable
		}
		return []uint64{stack[len(stack)-1]}, nil
	}
	return nil, nil
}

// branch performs `br depth` in a function of nresults results and bodyLen
// instructions, and returns the new pc/labels/stack.
func (vm *VM) branch(nresults, bodyLen, depth int, labels []labelRT, stack []uint64) (int, []labelRT, []uint64, error) {
	if depth == len(labels) {
		// The implicit function label: the branch returns, carrying the
		// function results.
		keep := nresults
		if keep > 0 {
			copy(stack[0:], stack[len(stack)-keep:])
		}
		return bodyLen, labels[:0], stack[:keep], nil
	}
	l := labels[len(labels)-1-depth]
	if l.isLoop {
		// jump back to the first instruction after the loop header; the
		// loop's own label stays.
		labels = labels[:len(labels)-depth]
		stack = stack[:l.height]
		return l.headerPC + 1, labels, stack, nil
	}
	// keep the label's result values
	keep := l.arity
	if keep > 0 {
		copy(stack[l.height:], stack[len(stack)-keep:])
	}
	stack = stack[:l.height+keep]
	labels = labels[:len(labels)-1-depth]
	return l.endPC + 1, labels, stack, nil
}

// callFuncStructured invokes function idx from the structured engine,
// popping args from and pushing results onto the operand stack.
func (vm *VM) callFuncStructured(idx uint32, stack []uint64) ([]uint64, error) {
	nimp := len(vm.hostFns)
	if int(idx) < nimp {
		sig := vm.hostSigs[idx]
		n := len(sig.Params)
		args := make([]uint64, n)
		copy(args, stack[len(stack)-n:])
		stack = stack[:len(stack)-n]
		res, err := vm.hostFns[idx](vm, args)
		if err != nil {
			return stack, err
		}
		if len(res) != len(sig.Results) {
			return stack, fmt.Errorf("interp: host import %d returned %d results, want %d", idx, len(res), len(sig.Results))
		}
		return append(stack, res...), nil
	}
	di := int(idx) - nimp
	f := &vm.funcs[di]
	locals := make([]uint64, f.numLoc)
	n := f.nparams
	copy(locals, stack[len(stack)-n:])
	stack = stack[:len(stack)-n]
	res, err := vm.execStructured(di, locals, make([]uint64, 0, 32))
	if err != nil {
		return stack, err
	}
	return append(stack, res...), nil
}
