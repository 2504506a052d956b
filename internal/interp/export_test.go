package interp

import "acctee/internal/wasm"

// White-box views of the register stream for the external (interp_test)
// suites, which can import the instrumenter where this package cannot.

// RegSpan describes the closure at one span-leading pc of a function.
type RegSpan struct {
	PC, Width int
	Leader    bool // segment leader: the driver charges the segment before it
	Op        wasm.Opcode
}

// RegSpans lists the closures of defined function fi in body order.
func (cm *CompiledModule) RegSpans(fi int) []RegSpan {
	cf := &cm.funcs[fi]
	var out []RegSpan
	for pc := 0; pc < len(cf.body); pc += int(cf.reg.wid[pc]) {
		out = append(out, RegSpan{PC: pc, Width: int(cf.reg.wid[pc]), Leader: cf.flat[pc].segCnt != 0, Op: cf.body[pc].Op})
	}
	return out
}

// RegBody returns the post-inlining body the register stream was lowered
// from (pcs in RegSpans and TraceReg index it).
func (cm *CompiledModule) RegBody(fi int) []wasm.Instr { return cm.funcs[fi].body }

// RegCmpBranches counts the conditional branches of the module that test
// their compare directly (cmpBranch) instead of a materialised 0/1.
func (cm *CompiledModule) RegCmpBranches() int {
	n := 0
	for i := range cm.funcs {
		n += cm.funcs[i].reg.cmpBr
	}
	return n
}

// RegLeafOperands re-lowers the statement of function fi that starts at pc
// and reports how many leaf evaluators it builds (its share of
// RegStats.LeafOperands).
func (cm *CompiledModule) RegLeafOperands(fi, pc int) int {
	cf := &cm.funcs[fi]
	n := len(cf.body)
	rl := &regLowering{cm: cm, cf: cf, numLoc: cf.numLoc, regCode: &regCode{ops: make([]regFn, n), spec: make([]bool, n)}}
	rl.emit(pc)
	return rl.leafOps
}

// TraceReg runs defined function fi on the register engine with execReg's
// driver loop and its leader step (segAcct, chargeSeg, stopSeg), recording
// every index the driver dispatches. Calls made from inside the function run
// untraced.
func (vm *VM) TraceReg(fi int, args ...uint64) (pcs []int, err error) {
	f := &vm.funcs[fi]
	frame := vm.getFrame(f.numLoc+f.maxStack, f.nparams, f.numLoc)
	copy(frame, args)
	d0 := vm.depth
	vm.depth++
	defer func() { vm.depth = d0 }()
	ops, seg := f.reg.ops, f.reg.seg
	intr, limited, segCost := vm.segAcct(fi)
	pc := 0
	for uint(pc) < uint(len(ops)) {
		pcs = append(pcs, pc)
		if n := seg[pc]; n != 0 {
			if ok, interrupted := vm.chargeSeg(intr, limited, segCost, pc, uint64(n)); !ok {
				return pcs, vm.stopSeg(interrupted, f, frame, pc)
			}
		}
		pc = ops[pc](vm, frame)
	}
	if pc == regTrapRet {
		var fc *funcCosts
		if vm.cost != nil {
			fc = &vm.costs[fi]
		}
		vm.rollback(f, fc, int(vm.regTrapPC))
	}
	if pc < 0 {
		err = vm.regErr
	}
	return pcs, err
}
