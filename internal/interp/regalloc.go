package interp

import (
	"encoding/binary"
	"fmt"

	"acctee/internal/wasm"
)

// This file is the register engine's compile-time half: a stack-to-register
// allocation pass over the flat IR followed by direct-threaded code
// generation (the runtime half — driver and shared helpers — is regexec.go).
//
// Register allocation is a renaming, not a search: validated wasm has a
// static operand-stack height before every instruction (preH, recorded by
// lower()), so every stack slot at height h gets the fixed home register
// numLoc+h in the frame's flat []uint64, right after the locals. Locals are
// registers 0..numLoc-1. With every value at a known register there is no
// runtime stack pointer at all.
//
// On top of the renaming the pass compiles whole *statements*: the run of
// instructions from one canonical point to the next sink (local/global set,
// store, conditional branch, drop) becomes a single closure. Producers and
// pure operators do not execute at their own pcs; they fold into nested
// evaluator closures (regEval) hanging off the statement's commit point, so
// a 15-instruction address-arithmetic + load + multiply + store chain costs
// one driver dispatch and its intermediate values never touch the home
// registers.
//
// Between statements the canonical invariant holds: every live operand-stack
// slot is materialised in its home register. Statements never cross a
// segment leader (the only possible branch targets), so the leader-batched
// accounting charge and the fuel-shortfall deoptimisation — which
// reinterprets the original body against the home window — stay valid.
//
// Trap exactness inside a statement uses a first-fault-wins latch
// (vm.regFault): a trapping node (load out of bounds, div/rem, float→int
// trunc) records the error and its original body pc and sets the latch;
// later effectful nodes in the same statement see it and skip their side
// effects (preserving MemCost order and totals); the statement's commit
// point converts the latch into the driver's regTrapRet, which performs the
// suffix rollback (exec.go). Accounting is bit-identical to the structured
// reference engine by construction:
//   - segment leaders (flat[pc].segCnt != 0) are data, not closures: the
//     lowering records each pc's segment instruction count (regCode.seg) and
//     the driver itself makes the block-batched fuel/cost/InstrCount charge
//     before it dispatches a leader's closure (execReg, chargeSeg), reading
//     the per-fingerprint segCost table once per activation;
//   - a fuel shortfall deoptimises, in the driver, to the per-instruction
//     tail (execFuelTail) over the original body;
//   - traps report the trapping constituent's original body pc through
//     vm.regTrapPC and the driver performs the same suffix rollback.

// regEval evaluates one expression subtree and returns its value. Trapping
// evaluators set the vm.regFault latch instead of returning an error.
type regEval func(vm *VM, fr []uint64) uint64

// regVoid is one materialisation step run before a statement's commit.
type regVoid func(vm *VM, fr []uint64)

type vkind uint8

const (
	vConst vkind = iota // compile-time constant
	vReg                // register-file slot (local or home register)
	vEval               // deferred expression tree
)

// vnode is one virtual operand-stack entry during statement simulation.
type vnode struct {
	kind vkind
	c    uint64
	reg  int
	eval regEval
	// cmp records the top-level operation when the tree is an i32 compare
	// or an eqz, so a consuming conditional branch can test the relation
	// directly instead of materialising a 0/1 value.
	cmp *cmpMeta
}

// cmpMeta is the branch-foldable view of a compare/eqz node.
type cmpMeta struct {
	op   wasm.Opcode
	a, b vnode // b unused for eqz
}

// regEdge is a precompiled taken-branch edge in register space: copy the n
// label results down from src to dst, then continue at target (or exit).
type regEdge struct {
	target int
	src    int
	dst    int
	n      int
	exit   bool // target == len(body): function return via branch
}

// take performs the taken-edge transfer and returns the next closure index.
func (e *regEdge) take(vm *VM, fr []uint64) int {
	if e.n > 0 {
		copy(fr[e.dst:e.dst+e.n], fr[e.src:e.src+e.n])
	}
	if e.exit {
		if e.n > 0 {
			vm.regRet = fr[e.dst]
		}
		return regDone
	}
	return e.target
}

// regLowering is the per-function code generation state.
type regLowering struct {
	cm     *CompiledModule // for pre-resolving residual-call descriptors
	cf     *compiledFunc
	numLoc int
	// The artifact under construction: ops, spec, wid and the counters.
	*regCode
}

// regLower builds the register-form artifact for compiled function fi.
// It must run after lower() (preH/preDead, flat sidetable), the inlining
// pass and finalizeCalls (the call closures specialise on the fInl*/fCallDef
// descriptors and the host-function and call_indirect site indices).
func regLower(cm *CompiledModule, fi int) {
	cf := &cm.funcs[fi]
	rl := &regLowering{cm: cm, cf: cf, numLoc: cf.numLoc, regCode: &regCode{regs: cf.numLoc + cf.maxStack}}
	n := len(cf.body)
	rl.ops = make([]regFn, n)
	rl.seg = make([]uint32, n)
	rl.spec = make([]bool, n)
	rl.wid = make([]int32, n)
	for pc := 0; pc < n; {
		w := rl.emit(pc)
		rl.wid[pc] = int32(w)
		for q := pc + 1; q < pc+w; q++ {
			rl.ops[q] = regInteriorFn(q)
		}
		rl.seg[pc] = uint32(cf.flat[pc].segCnt)
		pc += w
	}
	cf.reg = rl.regCode
}

// thread resolves a continuation through every non-leader pc whose closure
// would only return another index (a pure jump: nop, block, loop, a block-
// closing end, a br that copies no results and stays in the function), so the
// driver is never handed one. Charges, polls and rollback bounds sit at
// leaders, where the walk stops; every branch target is one, so it cannot
// cycle. (A leader that is a pure jump is dispatched: the driver charges there.)
func (rl *regLowering) thread(pc int) int {
	cf := rl.cf
	for last := len(cf.body) - 1; pc <= last && !cf.preDead[pc] && cf.flat[pc].segCnt == 0; {
		switch fl, op := &cf.flat[pc], cf.body[pc].Op; {
		case op == wasm.OpNop, op == wasm.OpBlock, op == wasm.OpLoop,
			op == wasm.OpEnd && fl.flags&fInlEnd == 0 && pc != last:
			pc++
		case op == wasm.OpBr && fl.arity == 0 && int(fl.target) <= last:
			pc = int(fl.target)
		default:
			return pc
		}
		rl.threaded++
	}
	return pc
}

// home returns the register index of the operand-stack slot at height h.
func (rl *regLowering) home(h int32) int { return rl.numLoc + int(h) }

// regInteriorFn guards a statement-interior pc. It can never be dispatched
// (statements never cross segment leaders, the only possible jump targets);
// reaching one means a lowering bug, reported loudly instead of corrupting.
func regInteriorFn(pc int) regFn {
	return func(vm *VM, fr []uint64) int {
		vm.regErr = fmt.Errorf("interp: internal: jump into register statement interior at pc %d", pc)
		return regErrRet
	}
}

// regDeadFn guards a statically unreachable pc (preDead).
func regDeadFn(pc int) regFn {
	return func(vm *VM, fr []uint64) int {
		vm.regErr = fmt.Errorf("interp: internal: register engine entered dead code at pc %d", pc)
		return regErrRet
	}
}

// regTrapAlways is an instruction whose operands prove it traps on every
// execution (e.g. a constant-folded division by zero).
func regTrapAlways(err error, trapPC int) regFn {
	tp := int32(trapPC)
	return func(vm *VM, fr []uint64) int {
		vm.regErr = err
		vm.regTrapPC = tp
		return regTrapRet
	}
}

// regProducer classifies a pure value producer (local.get / const).
func regProducer(in *wasm.Instr) (vnode, bool) {
	switch in.Op {
	case wasm.OpLocalGet:
		return vnode{kind: vReg, reg: int(in.Idx)}, true
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		return vnode{kind: vConst, c: in.U64}, true
	}
	return vnode{}, false
}

// regBinLike reports whether op is a two-operand numeric/compare
// instruction (executable through applyBin).
func regBinLike(op wasm.Opcode) bool {
	if op.IsMemAccess() {
		return false
	}
	pop, push, ok := op.StackEffect()
	return ok && pop == 2 && push == 1
}

// regUnLike reports whether op is a one-operand numeric/conversion
// instruction (executable through applyUn).
func regUnLike(op wasm.Opcode) bool {
	switch op {
	case wasm.OpLocalTee, wasm.OpMemoryGrow:
		return false
	}
	if op.IsMemAccess() {
		return false
	}
	pop, push, ok := op.StackEffect()
	return ok && pop == 1 && push == 1
}

// stmtOp reports whether op participates in statement simulation (as a
// producer, operator or sink). Everything else — control flow, calls,
// memory.grow — gets a dedicated single-instruction closure.
func stmtOp(op wasm.Opcode) bool {
	switch op {
	case wasm.OpLocalGet, wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const,
		wasm.OpGlobalGet, wasm.OpMemorySize, wasm.OpLocalTee, wasm.OpSelect, wasm.OpDrop,
		wasm.OpLocalSet, wasm.OpGlobalSet, wasm.OpBrIf, wasm.OpIf:
		return true
	}
	if op.IsLoad() || op.IsStore() {
		return true
	}
	return regBinLike(op) || regUnLike(op)
}

// edge precompiles a taken-branch edge. hAfter is the static stack height
// after the branch pops its condition (the label results sit just below it).
func (rl *regLowering) edge(t flatTarget, hAfter int32) regEdge {
	return regEdge{
		target: int(t.pc),
		src:    rl.home(hAfter - t.arity),
		dst:    rl.home(t.height),
		n:      int(t.arity),
		exit:   int(t.pc) == len(rl.cf.body),
	}
}

// emit generates the closure for the statement starting at pc and returns
// its width in original instructions. Interior pcs are filled by the
// caller.
func (rl *regLowering) emit(pc int) int {
	cf := rl.cf
	if cf.preDead[pc] {
		rl.ops[pc] = regDeadFn(pc)
		return 1
	}
	if stmtOp(cf.body[pc].Op) {
		return rl.emitStmt(pc)
	}
	return rl.emitSingle(pc, cf.preH[pc])
}

// ---------------------------------------------------------------------------
// statement simulation

// stmtState carries the per-statement simulation bookkeeping.
type stmtState struct {
	rl      *regLowering
	pend    []vnode // virtual entries created during this walk (stack top)
	h       int32   // current virtual stack height
	fault   bool    // some node in the statement can set the fault latch
	generic int     // nodes dispatching through applyBin/applyUn/fastLoad
	leaf    int     // register/constant operands that needed a leaf evaluator
	// impure: a node touches non-register state (global.get, memory.size,
	// local.tee). eff: `g += k` updates, applied ahead of the flush.
	impure bool
	eff    []globalAdd
}

// globalAdd is one carried counter update, vm.globals[g] += k.
type globalAdd struct {
	g int
	k uint64
}

// pop removes the top virtual entry; below the walk's own pushes it
// synthesises a home-register leaf (the canonical invariant guarantees the
// value is there).
func (s *stmtState) pop() vnode {
	if n := len(s.pend); n > 0 {
		v := s.pend[n-1]
		s.pend = s.pend[:n-1]
		s.h--
		return v
	}
	s.h--
	return vnode{kind: vReg, reg: s.rl.home(s.h)}
}

func (s *stmtState) push(v vnode) {
	s.pend = append(s.pend, v)
	s.h++
}

// flush materialises every pending entry into its home register, in push
// (program) order, and empties the pending stack. Leaves already resident
// at their home are skipped.
func (s *stmtState) flush() []regVoid {
	base := int(s.h) - len(s.pend)
	var fns []regVoid
	for i, v := range s.pend {
		d := s.rl.home(int32(base + i))
		switch v.kind {
		case vConst:
			c := v.c
			fns = append(fns, func(vm *VM, fr []uint64) { fr[d] = c })
		case vReg:
			if v.reg == d {
				continue
			}
			r := v.reg
			fns = append(fns, func(vm *VM, fr []uint64) { fr[d] = fr[r] })
		case vEval:
			e := v.eval
			fns = append(fns, func(vm *VM, fr []uint64) { fr[d] = e(vm, fr) })
		}
	}
	s.pend = s.pend[:0]
	return fns
}

// seal composes the carried updates and the materialisation prefix with a
// commit closure, in that order. The updates are applied inline, not called;
// one update and no prefix is the instrumented loop header and block entry.
func seal(eff []globalAdd, pre []regVoid, commit regFn) regFn {
	switch {
	case len(eff) == 0 && len(pre) == 0:
		return commit
	case len(eff) == 0 && len(pre) == 1:
		p := pre[0]
		return func(vm *VM, fr []uint64) int {
			p(vm, fr)
			return commit(vm, fr)
		}
	case len(eff) == 1 && len(pre) == 0:
		g, k := eff[0].g, eff[0].k
		return func(vm *VM, fr []uint64) int {
			vm.globals[g] += k
			return commit(vm, fr)
		}
	}
	return func(vm *VM, fr []uint64) int {
		for _, e := range eff {
			vm.globals[e.g] += e.k
		}
		for _, p := range pre {
			p(vm, fr)
		}
		return commit(vm, fr)
	}
}

// evalOf lowers a vnode to an evaluator closure.
func evalOf(v vnode) regEval {
	switch v.kind {
	case vConst:
		c := v.c
		return func(vm *VM, fr []uint64) uint64 { return c }
	case vReg:
		r := v.reg
		return func(vm *VM, fr []uint64) uint64 { return fr[r] }
	}
	return v.eval
}

// evalOf lowers an operand of the statement, counting the register and
// constant leaves that needed a closure of their own (RegStats.LeafOperands).
func (s *stmtState) evalOf(v vnode) regEval {
	if v.kind != vEval {
		s.leaf++
	}
	return evalOf(v)
}

// emitStmt simulates the operand stack from start until a sink or a
// boundary (segment leader, control instruction, statement size cap) and
// emits one closure covering the whole run.
func (rl *regLowering) emitStmt(start int) int {
	cf := rl.cf
	body := cf.body
	s := &stmtState{rl: rl, h: cf.preH[start]}
	const maxStmt = 96
	pc := start

	for pc < len(body) {
		if pc > start && (cf.flat[pc].segCnt != 0 || pc-start >= maxStmt) {
			break
		}
		in := &body[pc]
		op := in.Op
		if v, ok := regProducer(in); ok {
			s.push(v)
			pc++
			continue
		}
		switch op {
		case wasm.OpGlobalGet:
			g := int(in.Idx)
			if !s.fault && !s.impure && rl.updateWindow(pc) {
				// Nothing pending can trap before `g += k` or observe it: queue it, go on.
				s.eff = append(s.eff, globalAdd{g, body[pc+1].U64})
				rl.inlineUpd++
				pc += 4
				continue
			}
			s.impure = true
			s.push(vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 { return vm.globals[g] }})
			pc++
			continue
		case wasm.OpMemorySize:
			s.impure = true
			s.push(vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 {
				return uint64(uint32(len(vm.memory) / wasm.PageSize))
			}})
			pc++
			continue
		case wasm.OpLocalTee:
			a := s.pop()
			l := int(in.Idx)
			ae := s.evalOf(a)
			s.impure = true
			s.push(vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 {
				v := ae(vm, fr)
				fr[l] = v
				return v
			}})
			pc++
			continue
		case wasm.OpSelect:
			c := s.pop()
			b := s.pop()
			a := s.pop()
			ae, be, ce := s.evalOf(a), s.evalOf(b), s.evalOf(c)
			s.push(vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 {
				x := ae(vm, fr)
				y := be(vm, fr)
				if ce(vm, fr) != 0 {
					return x
				}
				return y
			}})
			pc++
			continue
		case wasm.OpDrop:
			v := s.pop()
			rl.sealStmt(start, s, rl.dropCommit(v, s, rl.thread(pc+1)))
			return pc + 1 - start
		case wasm.OpLocalSet:
			v := s.pop()
			rl.sealStmt(start, s, rl.setCommit(v, int(in.Idx), s, rl.thread(pc+1)))
			return pc + 1 - start
		case wasm.OpGlobalSet:
			v := s.pop()
			rl.sealStmt(start, s, rl.globalSetCommit(v, int(in.Idx), s, rl.thread(pc+1)))
			return pc + 1 - start
		case wasm.OpBrIf:
			cond := s.pop()
			fl := &cf.flat[pc]
			e := rl.edge(flatTarget{pc: fl.target, height: fl.height, arity: fl.arity}, s.h)
			rl.sealStmt(start, s, rl.branchCommit(cond, e, false, s, rl.thread(pc+1)))
			return pc + 1 - start
		case wasm.OpIf:
			cond := s.pop()
			e := regEdge{target: int(cf.flat[pc].target)}
			rl.sealStmt(start, s, rl.branchCommit(cond, e, true, s, rl.thread(pc+1)))
			return pc + 1 - start
		}
		switch {
		case op == wasm.OpCall && cf.flat[pc].flags&fInlEnter != 0:
			// Inlined-call marker as a statement sink: the preceding
			// argument expressions flush to their homes (the callee's
			// param slots) and the marker's own work — depth bump, zero
			// the callee's non-param locals — rides in the commit, saving
			// a dispatch per inlined call. A marker that is itself a
			// segment leader (possible branch target) never reaches here;
			// the loop breaks at leaders and emitSingle covers it.
			fl := &cf.flat[pc]
			zbase := rl.home(s.h)
			nz := int(fl.arity)
			cpc := int32(pc)
			next := rl.thread(pc + 1)
			rl.sealStmt(start, s, func(vm *VM, fr []uint64) int {
				vm.depth++
				if vm.depth > vm.maxDepth {
					vm.regErr = ErrCallStackExhausted
					vm.regTrapPC = cpc
					return regTrapRet
				}
				clear(fr[zbase : zbase+nz])
				return next
			})
			return pc + 1 - start
		case op == wasm.OpEnd && cf.flat[pc].flags&fInlEnd != 0:
			// Inlined-callee end as a statement sink: commit the result
			// expression straight to the caller's receiving register
			// (skipping the callee-top home entirely) and drop the
			// logical depth.
			fl := &cf.flat[pc]
			next := rl.thread(pc + 1)
			var commit regFn
			if fl.arity > 0 {
				commit = rl.inlEndCommit(s.pop(), rl.home(fl.height), s, next)
			} else {
				commit = func(vm *VM, fr []uint64) int { vm.depth--; return next }
			}
			rl.sealStmt(start, s, commit)
			return pc + 1 - start
		case op.IsLoad():
			a := s.pop()
			s.push(rl.loadNode(in, a, pc, s))
			pc++
		case op.IsStore():
			v := s.pop()
			a := s.pop()
			rl.sealStmt(start, s, rl.storeCommit(in, a, v, pc, s, rl.thread(pc+1)))
			return pc + 1 - start
		case regBinLike(op):
			b := s.pop()
			a := s.pop()
			s.push(rl.binNode(op, a, b, pc, s))
			pc++
		case regUnLike(op):
			a := s.pop()
			s.push(rl.unNode(op, a, pc, s))
			pc++
		default:
			// Control, call, grow: end the statement before it.
			goto done
		}
	}
done:
	// No sink: materialise everything and fall through to the next closure.
	next := rl.thread(pc)
	pre := s.flush()
	var commit regFn
	if s.fault {
		commit = func(vm *VM, fr []uint64) int {
			if vm.regFault {
				vm.regFault = false
				return regTrapRet
			}
			return next
		}
	} else {
		commit = func(vm *VM, fr []uint64) int { return next }
	}
	rl.sealStmtAt(start, seal(s.eff, pre, commit), s)
	return pc - start
}

// updateWindow reports whether pc starts `global.get g; i64.const k; i64.add;
// global.set g` (any global, any program) with no segment leader inside.
func (rl *regLowering) updateWindow(pc int) bool {
	b, fl := rl.cf.body[pc:], rl.cf.flat[pc:]
	return len(b) > 3 && b[1].Op == wasm.OpI64Const && b[2].Op == wasm.OpI64Add &&
		b[3].Op == wasm.OpGlobalSet && b[3].Idx == b[0].Idx && fl[1].segCnt|fl[2].segCnt|fl[3].segCnt == 0
}

// sealStmt flushes the remaining pending entries (everything below the
// sink's operands, in program order) and installs the composed closure. If
// the statement contains fault-capable nodes that may run during the flush,
// the latch is converted to a trap before the commit's side effects.
func (rl *regLowering) sealStmt(start int, s *stmtState, commit regFn) {
	pre := s.flush()
	fn := commit
	if s.fault && len(pre) > 0 {
		inner := commit
		fn = func(vm *VM, fr []uint64) int {
			if vm.regFault {
				vm.regFault = false
				return regTrapRet
			}
			return inner(vm, fr)
		}
	}
	rl.sealStmtAt(start, seal(s.eff, pre, fn), s)
}

func (rl *regLowering) sealStmtAt(start int, fn regFn, s *stmtState) {
	rl.ops[start] = fn
	rl.spec[start] = s.generic == 0
	rl.leafOps += s.leaf
}

// ---------------------------------------------------------------------------
// commit (sink) builders

// dropCommit evaluates a discarded tree for its effects (MemCost, traps);
// pure operands compile to a plain fallthrough.
func (rl *regLowering) dropCommit(v vnode, s *stmtState, next int) regFn {
	if v.kind != vEval {
		return func(vm *VM, fr []uint64) int { return next }
	}
	e := v.eval
	if !s.fault {
		return func(vm *VM, fr []uint64) int {
			e(vm, fr)
			return next
		}
	}
	return func(vm *VM, fr []uint64) int {
		e(vm, fr)
		if vm.regFault {
			vm.regFault = false
			return regTrapRet
		}
		return next
	}
}

// setCommit writes the operand into local l.
func (rl *regLowering) setCommit(v vnode, l int, s *stmtState, next int) regFn {
	switch v.kind {
	case vConst:
		c := v.c
		return func(vm *VM, fr []uint64) int { fr[l] = c; return next }
	case vReg:
		r := v.reg
		return func(vm *VM, fr []uint64) int { fr[l] = fr[r]; return next }
	}
	e := v.eval
	if !s.fault {
		return func(vm *VM, fr []uint64) int { fr[l] = e(vm, fr); return next }
	}
	return func(vm *VM, fr []uint64) int {
		x := e(vm, fr)
		if vm.regFault {
			vm.regFault = false
			return regTrapRet
		}
		fr[l] = x
		return next
	}
}

// inlEndCommit writes an inlined callee's result into the caller's
// receiving register and drops the logical call depth (the fInlEnd
// statement sink).
func (rl *regLowering) inlEndCommit(v vnode, dst int, s *stmtState, next int) regFn {
	switch v.kind {
	case vConst:
		c := v.c
		return func(vm *VM, fr []uint64) int { fr[dst] = c; vm.depth--; return next }
	case vReg:
		r := v.reg
		return func(vm *VM, fr []uint64) int { fr[dst] = fr[r]; vm.depth--; return next }
	}
	e := v.eval
	if !s.fault {
		return func(vm *VM, fr []uint64) int { fr[dst] = e(vm, fr); vm.depth--; return next }
	}
	return func(vm *VM, fr []uint64) int {
		x := e(vm, fr)
		if vm.regFault {
			vm.regFault = false
			return regTrapRet
		}
		fr[dst] = x
		vm.depth--
		return next
	}
}

// globalSetCommit writes the operand into global g. Globals survive the
// frame, so the fault check always precedes the write.
func (rl *regLowering) globalSetCommit(v vnode, g int, s *stmtState, next int) regFn {
	e := s.evalOf(v)
	if !s.fault {
		return func(vm *VM, fr []uint64) int {
			vm.globals[g] = e(vm, fr)
			return next
		}
	}
	return func(vm *VM, fr []uint64) int {
		x := e(vm, fr)
		if vm.regFault {
			vm.regFault = false
			return regTrapRet
		}
		vm.globals[g] = x
		return next
	}
}

// branchCommit builds a conditional-branch sink. invert is the if-form
// (jump to the false target when the condition is zero, no result copies);
// br_if takes its edge when the condition is non-zero.
func (rl *regLowering) branchCommit(cond vnode, e regEdge, invert bool, s *stmtState, next int) regFn {
	simple := e.n == 0 && !e.exit
	tgt := e.target
	fc := s.fault
	if cond.kind == vConst {
		if (cond.c != 0) != invert {
			if simple {
				return func(vm *VM, fr []uint64) int { return tgt }
			}
			ed := e
			return func(vm *VM, fr []uint64) int { return ed.take(vm, fr) }
		}
		return func(vm *VM, fr []uint64) int { return next }
	}
	if !fc && cond.cmp != nil {
		if fn := rl.cmpBranch(cond.cmp, e, invert, s, next); fn != nil {
			rl.cmpBr++
			return fn
		}
	}
	test := s.evalOf(cond)
	ed := e
	return func(vm *VM, fr []uint64) int {
		v := test(vm, fr)
		if fc && vm.regFault {
			vm.regFault = false
			return regTrapRet
		}
		if (v != 0) != invert {
			if simple {
				return tgt
			}
			return ed.take(vm, fr)
		}
		return next
	}
}

// cmpBranch inlines a compare/eqz feeding a conditional branch: the
// relation is tested directly, no 0/1 value is ever produced. Returns nil
// when the comparison isn't in the hand-inlined set. Only called for
// fault-free statements, so no latch check is needed.
func (rl *regLowering) cmpBranch(m *cmpMeta, e regEdge, invert bool, s *stmtState, next int) regFn {
	simple := e.n == 0 && !e.exit
	tgt := e.target
	ed := e
	var pred func(vm *VM, fr []uint64) bool
	switch m.op {
	case wasm.OpI32Eqz:
		a := s.evalOf(m.a)
		pred = func(vm *VM, fr []uint64) bool { return uint32(a(vm, fr)) == 0 }
	case wasm.OpI64Eqz:
		a := s.evalOf(m.a)
		pred = func(vm *VM, fr []uint64) bool { return a(vm, fr) == 0 }
	default:
		pred = i32CmpPred(m.op, m.a, m.b, s)
	}
	if pred == nil {
		return nil
	}
	if invert {
		return func(vm *VM, fr []uint64) int {
			if !pred(vm, fr) {
				return tgt
			}
			return next
		}
	}
	if simple {
		return func(vm *VM, fr []uint64) int {
			if pred(vm, fr) {
				return tgt
			}
			return next
		}
	}
	return func(vm *VM, fr []uint64) int {
		if pred(vm, fr) {
			return ed.take(vm, fr)
		}
		return next
	}
}

// i32CmpPred builds an inlined predicate for the i32 comparisons over the
// common operand layouts (register/subtree against register/subtree/
// constant). Returns nil for anything outside the hand-inlined set.
func i32CmpPred(op wasm.Opcode, a, b vnode, s *stmtState) func(vm *VM, fr []uint64) bool {
	if a.kind == vConst {
		// Normalise the constant to the right by flipping the relation.
		switch op {
		case wasm.OpI32Eq, wasm.OpI32Ne:
		case wasm.OpI32LtS:
			op = wasm.OpI32GtS
		case wasm.OpI32GtS:
			op = wasm.OpI32LtS
		case wasm.OpI32LeS:
			op = wasm.OpI32GeS
		case wasm.OpI32GeS:
			op = wasm.OpI32LeS
		case wasm.OpI32LtU:
			op = wasm.OpI32GtU
		case wasm.OpI32GtU:
			op = wasm.OpI32LtU
		case wasm.OpI32LeU:
			op = wasm.OpI32GeU
		case wasm.OpI32GeU:
			op = wasm.OpI32LeU
		default:
			return nil
		}
		a, b = b, a
	}
	if a.kind == vConst {
		return nil
	}
	if b.kind == vConst {
		c := b.c
		ae := a.eval
		if a.kind == vReg {
			r := a.reg
			switch op {
			case wasm.OpI32Eq:
				u := uint32(c)
				return func(vm *VM, fr []uint64) bool { return uint32(fr[r]) == u }
			case wasm.OpI32Ne:
				u := uint32(c)
				return func(vm *VM, fr []uint64) bool { return uint32(fr[r]) != u }
			case wasm.OpI32LtS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[r])) < sc }
			case wasm.OpI32GtS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[r])) > sc }
			case wasm.OpI32LeS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[r])) <= sc }
			case wasm.OpI32GeS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[r])) >= sc }
			case wasm.OpI32LtU:
				u := uint32(c)
				return func(vm *VM, fr []uint64) bool { return uint32(fr[r]) < u }
			case wasm.OpI32GtU:
				u := uint32(c)
				return func(vm *VM, fr []uint64) bool { return uint32(fr[r]) > u }
			case wasm.OpI32LeU:
				u := uint32(c)
				return func(vm *VM, fr []uint64) bool { return uint32(fr[r]) <= u }
			case wasm.OpI32GeU:
				u := uint32(c)
				return func(vm *VM, fr []uint64) bool { return uint32(fr[r]) >= u }
			}
			return nil
		}
		switch op {
		case wasm.OpI32Eq:
			u := uint32(c)
			return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) == u }
		case wasm.OpI32Ne:
			u := uint32(c)
			return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) != u }
		case wasm.OpI32LtS:
			sc := int32(uint32(c))
			return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) < sc }
		case wasm.OpI32GtS:
			sc := int32(uint32(c))
			return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) > sc }
		case wasm.OpI32LeS:
			sc := int32(uint32(c))
			return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) <= sc }
		case wasm.OpI32GeS:
			sc := int32(uint32(c))
			return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) >= sc }
		case wasm.OpI32LtU:
			u := uint32(c)
			return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) < u }
		case wasm.OpI32GeU:
			u := uint32(c)
			return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) >= u }
		}
		return nil
	}
	if a.kind == vReg && b.kind == vReg {
		ra, rb := a.reg, b.reg
		switch op {
		case wasm.OpI32Eq:
			return func(vm *VM, fr []uint64) bool { return uint32(fr[ra]) == uint32(fr[rb]) }
		case wasm.OpI32Ne:
			return func(vm *VM, fr []uint64) bool { return uint32(fr[ra]) != uint32(fr[rb]) }
		case wasm.OpI32LtS:
			return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[ra])) < int32(uint32(fr[rb])) }
		case wasm.OpI32GtS:
			return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[ra])) > int32(uint32(fr[rb])) }
		case wasm.OpI32LeS:
			return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[ra])) <= int32(uint32(fr[rb])) }
		case wasm.OpI32GeS:
			return func(vm *VM, fr []uint64) bool { return int32(uint32(fr[ra])) >= int32(uint32(fr[rb])) }
		case wasm.OpI32LtU:
			return func(vm *VM, fr []uint64) bool { return uint32(fr[ra]) < uint32(fr[rb]) }
		case wasm.OpI32GeU:
			return func(vm *VM, fr []uint64) bool { return uint32(fr[ra]) >= uint32(fr[rb]) }
		}
		return nil
	}
	ae, be := s.evalOf(a), s.evalOf(b)
	switch op {
	case wasm.OpI32Eq:
		return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) == uint32(be(vm, fr)) }
	case wasm.OpI32Ne:
		return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) != uint32(be(vm, fr)) }
	case wasm.OpI32LtS:
		return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) < int32(uint32(be(vm, fr))) }
	case wasm.OpI32GtS:
		return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) > int32(uint32(be(vm, fr))) }
	case wasm.OpI32LeS:
		return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) <= int32(uint32(be(vm, fr))) }
	case wasm.OpI32GeS:
		return func(vm *VM, fr []uint64) bool { return int32(uint32(ae(vm, fr))) >= int32(uint32(be(vm, fr))) }
	case wasm.OpI32LtU:
		return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) < uint32(be(vm, fr)) }
	case wasm.OpI32GeU:
		return func(vm *VM, fr []uint64) bool { return uint32(ae(vm, fr)) >= uint32(be(vm, fr)) }
	}
	return nil
}

// ---------------------------------------------------------------------------
// memory nodes

// storeCommit builds a store sink: evaluate address then value (program
// order), fault-check, one bounds check, MemCost charge, dirty-page
// tracking, word-at-a-time write. Natural-width stores get dedicated arms.
func (rl *regLowering) storeCommit(in *wasm.Instr, a, v vnode, pc int, s *stmtState, next int) regFn {
	width, ok := storeSpec(in.Op)
	if !ok {
		return regTrapAlways(&UnknownOpcodeError{Op: in.Op}, pc)
	}
	tp := int32(pc)
	off := uint64(in.Off)
	fc := s.fault
	ae := s.evalOf(a)
	ve := s.evalOf(v)
	if width == 8 {
		return func(vm *VM, fr []uint64) int {
			ad := ae(vm, fr)
			x := ve(vm, fr)
			if fc && vm.regFault {
				vm.regFault = false
				return regTrapRet
			}
			ea := uint64(uint32(ad)) + off
			if ea+8 > uint64(len(vm.memory)) {
				vm.regErr = ErrOutOfBounds
				vm.regTrapPC = tp
				return regTrapRet
			}
			if vm.cost != nil {
				vm.costAcc += vm.cost.MemCost(uint32(ea), 8, true, uint32(len(vm.memory)))
			}
			vm.markDirty(int(ea), 8)
			binary.LittleEndian.PutUint64(vm.memory[ea:], x)
			return next
		}
	}
	if width == 4 {
		return func(vm *VM, fr []uint64) int {
			ad := ae(vm, fr)
			x := ve(vm, fr)
			if fc && vm.regFault {
				vm.regFault = false
				return regTrapRet
			}
			ea := uint64(uint32(ad)) + off
			if ea+4 > uint64(len(vm.memory)) {
				vm.regErr = ErrOutOfBounds
				vm.regTrapPC = tp
				return regTrapRet
			}
			if vm.cost != nil {
				vm.costAcc += vm.cost.MemCost(uint32(ea), 4, true, uint32(len(vm.memory)))
			}
			vm.markDirty(int(ea), 4)
			binary.LittleEndian.PutUint32(vm.memory[ea:], uint32(x))
			return next
		}
	}
	s.generic++
	wd := uint64(width)
	return func(vm *VM, fr []uint64) int {
		ad := ae(vm, fr)
		x := ve(vm, fr)
		if fc && vm.regFault {
			vm.regFault = false
			return regTrapRet
		}
		ea := uint64(uint32(ad)) + off
		if ea+wd > uint64(len(vm.memory)) {
			vm.regErr = ErrOutOfBounds
			vm.regTrapPC = tp
			return regTrapRet
		}
		if vm.cost != nil {
			vm.costAcc += vm.cost.MemCost(uint32(ea), width, true, uint32(len(vm.memory)))
		}
		vm.markDirty(int(ea), int(width))
		fastStore(vm.memory, ea, width, x)
		return next
	}
}

// loadNode builds a memory-load evaluator: fault-latch entry guard,
// effective address, one bounds check, MemCost charge, word-at-a-time
// read. Natural-width loads get dedicated arms.
func (rl *regLowering) loadNode(in *wasm.Instr, a vnode, pc int, s *stmtState) vnode {
	s.fault = true
	width, ext, ok := loadSpec(in.Op)
	if !ok {
		s.generic++
		return vnode{kind: vEval, eval: regFaultEval(&UnknownOpcodeError{Op: in.Op}, pc)}
	}
	tp := int32(pc)
	off := uint64(in.Off)
	ae := s.evalOf(a)
	if ext == extNone && width == 8 {
		return vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 {
			if vm.regFault {
				return 0
			}
			ea := uint64(uint32(ae(vm, fr))) + off
			if ea+8 > uint64(len(vm.memory)) {
				vm.regFault = true
				vm.regErr = ErrOutOfBounds
				vm.regTrapPC = tp
				return 0
			}
			if vm.cost != nil {
				vm.costAcc += vm.cost.MemCost(uint32(ea), 8, false, uint32(len(vm.memory)))
			}
			return binary.LittleEndian.Uint64(vm.memory[ea:])
		}}
	}
	if ext == extNone && width == 4 {
		return vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 {
			if vm.regFault {
				return 0
			}
			ea := uint64(uint32(ae(vm, fr))) + off
			if ea+4 > uint64(len(vm.memory)) {
				vm.regFault = true
				vm.regErr = ErrOutOfBounds
				vm.regTrapPC = tp
				return 0
			}
			if vm.cost != nil {
				vm.costAcc += vm.cost.MemCost(uint32(ea), 4, false, uint32(len(vm.memory)))
			}
			return uint64(binary.LittleEndian.Uint32(vm.memory[ea:]))
		}}
	}
	s.generic++
	wd := uint64(width)
	return vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 {
		if vm.regFault {
			return 0
		}
		ea := uint64(uint32(ae(vm, fr))) + off
		if ea+wd > uint64(len(vm.memory)) {
			vm.regFault = true
			vm.regErr = ErrOutOfBounds
			vm.regTrapPC = tp
			return 0
		}
		if vm.cost != nil {
			vm.costAcc += vm.cost.MemCost(uint32(ea), width, false, uint32(len(vm.memory)))
		}
		return fastLoad(vm.memory, ea, width, ext)
	}}
}

// regFaultEval is an evaluator that always sets the fault latch (a
// constant-folded trap or an unlowerable instruction).
func regFaultEval(err error, pc int) regEval {
	tp := int32(pc)
	return func(vm *VM, fr []uint64) uint64 {
		if vm.regFault {
			return 0
		}
		vm.regFault = true
		vm.regErr = err
		vm.regTrapPC = tp
		return 0
	}
}

// ---------------------------------------------------------------------------
// operator nodes

// binNode builds the evaluator for a two-operand numeric/compare. The hot
// arms (i32/i64 add/sub/mul and bitwise, the i32 compares, f64/f32
// arithmetic) are hand-inlined over the common operand layouts; constant
// pairs fold at compile time; trapping ops (div/rem) latch the fault;
// everything else dispatches through applyBin. i32 compares additionally
// carry cmpMeta so a consuming branch can inline the relation.
func (rl *regLowering) binNode(op wasm.Opcode, a, b vnode, pc int, s *stmtState) vnode {
	if a.kind == vConst && b.kind == vConst {
		v, err := applyBin(op, a.c, b.c)
		if err != nil {
			s.fault = true
			return vnode{kind: vEval, eval: regFaultEval(err, pc)}
		}
		return vnode{kind: vConst, c: v}
	}
	// Normalise const-on-the-left for commutative ops so the inline arms
	// only need const-right layouts.
	if a.kind == vConst {
		switch op {
		case wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
			wasm.OpI64Add, wasm.OpI64Mul, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor,
			wasm.OpF64Add, wasm.OpF64Mul, wasm.OpF32Add, wasm.OpF32Mul,
			wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI64Eq, wasm.OpI64Ne:
			a, b = b, a
		}
	}
	n := vnode{kind: vEval}
	switch op {
	case wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS,
		wasm.OpI32GtU, wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU:
		n.cmp = &cmpMeta{op: op, a: a, b: b}
	}
	if e := regBinEvalSpec(op, a, b); e != nil {
		n.eval = e
		return n
	}
	if b.kind == vConst && binCanTrap(op) {
		if v, ok := rl.divConst(op, a, b.c, pc, s); ok {
			return v
		}
	}
	ae, be := s.evalOf(a), s.evalOf(b)
	if binCanTrap(op) {
		s.fault = true
		s.generic++
		tp := int32(pc)
		n.eval = func(vm *VM, fr []uint64) uint64 {
			x := ae(vm, fr)
			y := be(vm, fr)
			if vm.regFault {
				return 0
			}
			v, err := applyBin(op, x, y)
			if err != nil {
				vm.regFault = true
				vm.regErr = err
				vm.regTrapPC = tp
				return 0
			}
			return v
		}
		return n
	}
	s.generic++
	n.eval = func(vm *VM, fr []uint64) uint64 {
		v, _ := applyBin(op, ae(vm, fr), be(vm, fr))
		return v
	}
	return n
}

// divConst lowers div/rem by a constant that cannot trap (non-zero, not -1
// for the signed forms) to a node that never latches; x/1 and x%1 fold away.
func (rl *regLowering) divConst(op wasm.Opcode, a vnode, c uint64, pc int, s *stmtState) (vnode, bool) {
	ae := s.evalOf(a)
	u, i, l := uint32(c), int32(uint32(c)), int64(c)
	var e regEval
	switch {
	case c == 1 && (op == wasm.OpI64DivS || op == wasm.OpI64DivU):
		return a, true
	case c == 1 && (op == wasm.OpI32DivS || op == wasm.OpI32DivU):
		return rl.unNode(wasm.OpI32WrapI64, a, pc, s), true
	case c == 1 && a.kind == vReg:
		return vnode{kind: vConst}, true
	case op == wasm.OpI32DivU && u != 0:
		e = func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) / u) }
	case op == wasm.OpI32RemU && u != 0:
		e = func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) % u) }
	case op == wasm.OpI32DivS && i != 0 && i != -1:
		e = func(vm *VM, fr []uint64) uint64 { return i32u(int32(uint32(ae(vm, fr))) / i) }
	case op == wasm.OpI32RemS && i != 0 && i != -1:
		e = func(vm *VM, fr []uint64) uint64 { return i32u(int32(uint32(ae(vm, fr))) % i) }
	case op == wasm.OpI64DivU && c != 0:
		e = func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) / c }
	case op == wasm.OpI64RemU && c != 0:
		e = func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) % c }
	case op == wasm.OpI64DivS && l != 0 && l != -1:
		e = func(vm *VM, fr []uint64) uint64 { return uint64(int64(ae(vm, fr)) / l) }
	case op == wasm.OpI64RemS && l != 0 && l != -1:
		e = func(vm *VM, fr []uint64) uint64 { return uint64(int64(ae(vm, fr)) % l) }
	}
	return vnode{kind: vEval, eval: e}, e != nil
}

// regBinEvalSpec returns a hand-inlined evaluator for the hot binary ops
// over the common operand layouts, or nil. Callers have already folded
// const/const pairs and normalised commutative constants to the right;
// const-left non-commutative ops fall back to the generic path.
func regBinEvalSpec(op wasm.Opcode, a, b vnode) regEval {
	if a.kind == vConst {
		return nil
	}
	if b.kind == vConst {
		c := b.c
		if a.kind == vReg {
			r := a.reg
			switch op {
			case wasm.OpI32Add:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) + u) }
			case wasm.OpI32Sub:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) - u) }
			case wasm.OpI32Mul:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) * u) }
			case wasm.OpI32And:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) & u) }
			case wasm.OpI32Or:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) | u) }
			case wasm.OpI32Xor:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) ^ u) }
			case wasm.OpI32Shl:
				sh := uint32(c) & 31
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) << sh) }
			case wasm.OpI32ShrS:
				sh := uint32(c) & 31
				return func(vm *VM, fr []uint64) uint64 { return i32u(int32(uint32(fr[r])) >> sh) }
			case wasm.OpI32ShrU:
				sh := uint32(c) & 31
				return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[r]) >> sh) }
			case wasm.OpI32Eq:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[r]) == u) }
			case wasm.OpI32Ne:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[r]) != u) }
			case wasm.OpI32LtS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[r])) < sc) }
			case wasm.OpI32LtU:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[r]) < u) }
			case wasm.OpI32GtS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[r])) > sc) }
			case wasm.OpI32LeS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[r])) <= sc) }
			case wasm.OpI32GeS:
				sc := int32(uint32(c))
				return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[r])) >= sc) }
			case wasm.OpI32GeU:
				u := uint32(c)
				return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[r]) >= u) }
			case wasm.OpI64Add:
				return func(vm *VM, fr []uint64) uint64 { return fr[r] + c }
			case wasm.OpI64Sub:
				return func(vm *VM, fr []uint64) uint64 { return fr[r] - c }
			case wasm.OpI64Mul:
				return func(vm *VM, fr []uint64) uint64 { return fr[r] * c }
			case wasm.OpF64Add:
				f := uf64(c)
				return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[r]) + f) }
			case wasm.OpF64Sub:
				f := uf64(c)
				return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[r]) - f) }
			case wasm.OpF64Mul:
				f := uf64(c)
				return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[r]) * f) }
			case wasm.OpF64Div:
				f := uf64(c)
				return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[r]) / f) }
			case wasm.OpF32Add:
				f := uf32(c)
				return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(fr[r]) + f) }
			case wasm.OpF32Mul:
				f := uf32(c)
				return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(fr[r]) * f) }
			}
			return nil
		}
		ae := a.eval
		switch op {
		case wasm.OpI32Add:
			u := uint32(c)
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) + u) }
		case wasm.OpI32Sub:
			u := uint32(c)
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) - u) }
		case wasm.OpI32Mul:
			u := uint32(c)
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) * u) }
		case wasm.OpI32And:
			u := uint32(c)
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) & u) }
		case wasm.OpI32Or:
			u := uint32(c)
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) | u) }
		case wasm.OpI32Xor:
			u := uint32(c)
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) ^ u) }
		case wasm.OpI32Shl:
			sh := uint32(c) & 31
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) << sh) }
		case wasm.OpI64Add:
			return func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) + c }
		case wasm.OpI64Mul:
			return func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) * c }
		case wasm.OpF64Add:
			f := uf64(c)
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) + f) }
		case wasm.OpF64Sub:
			f := uf64(c)
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) - f) }
		case wasm.OpF64Mul:
			f := uf64(c)
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) * f) }
		case wasm.OpF64Div:
			f := uf64(c)
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) / f) }
		case wasm.OpF32Add:
			f := uf32(c)
			return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(ae(vm, fr)) + f) }
		case wasm.OpF32Mul:
			f := uf32(c)
			return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(ae(vm, fr)) * f) }
		}
		return nil
	}
	if a.kind == vReg && b.kind == vReg {
		ra, rb := a.reg, b.reg
		switch op {
		case wasm.OpI32Add:
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[ra]) + uint32(fr[rb])) }
		case wasm.OpI32Sub:
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[ra]) - uint32(fr[rb])) }
		case wasm.OpI32Mul:
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[ra]) * uint32(fr[rb])) }
		case wasm.OpI32And:
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[ra]) & uint32(fr[rb])) }
		case wasm.OpI32Or:
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[ra]) | uint32(fr[rb])) }
		case wasm.OpI32Xor:
			return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(fr[ra]) ^ uint32(fr[rb])) }
		case wasm.OpI32Eq:
			return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[ra]) == uint32(fr[rb])) }
		case wasm.OpI32Ne:
			return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[ra]) != uint32(fr[rb])) }
		case wasm.OpI32LtS:
			return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[ra])) < int32(uint32(fr[rb]))) }
		case wasm.OpI32GtS:
			return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[ra])) > int32(uint32(fr[rb]))) }
		case wasm.OpI32LeS:
			return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[ra])) <= int32(uint32(fr[rb]))) }
		case wasm.OpI32GeS:
			return func(vm *VM, fr []uint64) uint64 { return b2u(int32(uint32(fr[ra])) >= int32(uint32(fr[rb]))) }
		case wasm.OpI32LtU:
			return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[ra]) < uint32(fr[rb])) }
		case wasm.OpI32GeU:
			return func(vm *VM, fr []uint64) uint64 { return b2u(uint32(fr[ra]) >= uint32(fr[rb])) }
		case wasm.OpI64Add:
			return func(vm *VM, fr []uint64) uint64 { return fr[ra] + fr[rb] }
		case wasm.OpI64Sub:
			return func(vm *VM, fr []uint64) uint64 { return fr[ra] - fr[rb] }
		case wasm.OpI64Mul:
			return func(vm *VM, fr []uint64) uint64 { return fr[ra] * fr[rb] }
		case wasm.OpF64Add:
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[ra]) + uf64(fr[rb])) }
		case wasm.OpF64Sub:
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[ra]) - uf64(fr[rb])) }
		case wasm.OpF64Mul:
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[ra]) * uf64(fr[rb])) }
		case wasm.OpF64Div:
			return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(fr[ra]) / uf64(fr[rb])) }
		case wasm.OpF32Add:
			return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(fr[ra]) + uf32(fr[rb])) }
		case wasm.OpF32Sub:
			return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(fr[ra]) - uf32(fr[rb])) }
		case wasm.OpF32Mul:
			return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(fr[ra]) * uf32(fr[rb])) }
		case wasm.OpF32Div:
			return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(fr[ra]) / uf32(fr[rb])) }
		}
		return nil
	}
	// The mixed layouts read the left operand into a temporary first: a tee in
	// the subtree may write the register, and Go does not order an index
	// expression against a call in the same expression.
	if a.kind == vReg {
		r, be := a.reg, b.eval
		switch op {
		case wasm.OpI32Add:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return uint64(uint32(x) + uint32(be(vm, fr))) }
		case wasm.OpI32Sub:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return uint64(uint32(x) - uint32(be(vm, fr))) }
		case wasm.OpI32Mul:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return uint64(uint32(x) * uint32(be(vm, fr))) }
		case wasm.OpI32And:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return uint64(uint32(x) & uint32(be(vm, fr))) }
		case wasm.OpI32Or:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return uint64(uint32(x) | uint32(be(vm, fr))) }
		case wasm.OpI32Xor:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return uint64(uint32(x) ^ uint32(be(vm, fr))) }
		case wasm.OpI64Add:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return x + be(vm, fr) }
		case wasm.OpI64Sub:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return x - be(vm, fr) }
		case wasm.OpI64Mul:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return x * be(vm, fr) }
		case wasm.OpF64Add:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return f64u(uf64(x) + uf64(be(vm, fr))) }
		case wasm.OpF64Sub:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return f64u(uf64(x) - uf64(be(vm, fr))) }
		case wasm.OpF64Mul:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return f64u(uf64(x) * uf64(be(vm, fr))) }
		case wasm.OpF64Div:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return f64u(uf64(x) / uf64(be(vm, fr))) }
		case wasm.OpF32Add:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return f32u(uf32(x) + uf32(be(vm, fr))) }
		case wasm.OpF32Mul:
			return func(vm *VM, fr []uint64) uint64 { x := fr[r]; return f32u(uf32(x) * uf32(be(vm, fr))) }
		}
		return nil
	}
	if b.kind == vReg {
		ae, r := a.eval, b.reg
		switch op {
		case wasm.OpI32Add:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return uint64(uint32(x) + uint32(fr[r])) }
		case wasm.OpI32Sub:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return uint64(uint32(x) - uint32(fr[r])) }
		case wasm.OpI32Mul:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return uint64(uint32(x) * uint32(fr[r])) }
		case wasm.OpI32And:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return uint64(uint32(x) & uint32(fr[r])) }
		case wasm.OpI32Or:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return uint64(uint32(x) | uint32(fr[r])) }
		case wasm.OpI32Xor:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return uint64(uint32(x) ^ uint32(fr[r])) }
		case wasm.OpI64Add:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return x + fr[r] }
		case wasm.OpI64Sub:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return x - fr[r] }
		case wasm.OpI64Mul:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return x * fr[r] }
		case wasm.OpF64Add:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return f64u(uf64(x) + uf64(fr[r])) }
		case wasm.OpF64Sub:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return f64u(uf64(x) - uf64(fr[r])) }
		case wasm.OpF64Mul:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return f64u(uf64(x) * uf64(fr[r])) }
		case wasm.OpF64Div:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return f64u(uf64(x) / uf64(fr[r])) }
		case wasm.OpF32Add:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return f32u(uf32(x) + uf32(fr[r])) }
		case wasm.OpF32Mul:
			return func(vm *VM, fr []uint64) uint64 { x := ae(vm, fr); return f32u(uf32(x) * uf32(fr[r])) }
		}
		return nil
	}
	ae, be := a.eval, b.eval
	switch op {
	case wasm.OpI32Add:
		return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) + uint32(be(vm, fr))) }
	case wasm.OpI32Sub:
		return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) - uint32(be(vm, fr))) }
	case wasm.OpI32Mul:
		return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) * uint32(be(vm, fr))) }
	case wasm.OpI32And:
		return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) & uint32(be(vm, fr))) }
	case wasm.OpI32Or:
		return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) | uint32(be(vm, fr))) }
	case wasm.OpI32Xor:
		return func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr)) ^ uint32(be(vm, fr))) }
	case wasm.OpI64Add:
		return func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) + be(vm, fr) }
	case wasm.OpI64Sub:
		return func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) - be(vm, fr) }
	case wasm.OpI64Mul:
		return func(vm *VM, fr []uint64) uint64 { return ae(vm, fr) * be(vm, fr) }
	case wasm.OpF64Add:
		return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) + uf64(be(vm, fr))) }
	case wasm.OpF64Sub:
		return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) - uf64(be(vm, fr))) }
	case wasm.OpF64Mul:
		return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) * uf64(be(vm, fr))) }
	case wasm.OpF64Div:
		return func(vm *VM, fr []uint64) uint64 { return f64u(uf64(ae(vm, fr)) / uf64(be(vm, fr))) }
	case wasm.OpF32Add:
		return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(ae(vm, fr)) + uf32(be(vm, fr))) }
	case wasm.OpF32Mul:
		return func(vm *VM, fr []uint64) uint64 { return f32u(uf32(ae(vm, fr)) * uf32(be(vm, fr))) }
	}
	return nil
}

// unNode builds the evaluator for a one-operand numeric/conversion, with
// the same fold / inline / generic structure as binNode. Eqz carries
// cmpMeta for branch inlining.
func (rl *regLowering) unNode(op wasm.Opcode, a vnode, pc int, s *stmtState) vnode {
	if a.kind == vConst {
		v, err := applyUn(op, a.c)
		if err != nil {
			s.fault = true
			return vnode{kind: vEval, eval: regFaultEval(err, pc)}
		}
		return vnode{kind: vConst, c: v}
	}
	n := vnode{kind: vEval}
	if op == wasm.OpI32Eqz || op == wasm.OpI64Eqz {
		n.cmp = &cmpMeta{op: op, a: a}
	}
	ae := s.evalOf(a)
	switch op {
	case wasm.OpI32Eqz:
		n.eval = func(vm *VM, fr []uint64) uint64 { return b2u(uint32(ae(vm, fr)) == 0) }
		return n
	case wasm.OpI64Eqz:
		n.eval = func(vm *VM, fr []uint64) uint64 { return b2u(ae(vm, fr) == 0) }
		return n
	case wasm.OpI32WrapI64, wasm.OpI64ExtendI32U:
		n.eval = func(vm *VM, fr []uint64) uint64 { return uint64(uint32(ae(vm, fr))) }
		return n
	case wasm.OpI64ExtendI32S:
		n.eval = func(vm *VM, fr []uint64) uint64 { return uint64(int64(int32(uint32(ae(vm, fr))))) }
		return n
	case wasm.OpF64Neg:
		n.eval = func(vm *VM, fr []uint64) uint64 { return f64u(-uf64(ae(vm, fr))) }
		return n
	case wasm.OpF64ConvertI32S:
		n.eval = func(vm *VM, fr []uint64) uint64 { return f64u(float64(int32(uint32(ae(vm, fr))))) }
		return n
	case wasm.OpI32ReinterpretF, wasm.OpI64ReinterpretF,
		wasm.OpF32ReinterpretI, wasm.OpF64ReinterpretI:
		n.eval = ae
		return n
	}
	if unCanTrap(op) {
		s.fault = true
		s.generic++
		tp := int32(pc)
		n.eval = func(vm *VM, fr []uint64) uint64 {
			x := ae(vm, fr)
			if vm.regFault {
				return 0
			}
			v, err := applyUn(op, x)
			if err != nil {
				vm.regFault = true
				vm.regErr = err
				vm.regTrapPC = tp
				return 0
			}
			return v
		}
		return n
	}
	s.generic++
	n.eval = func(vm *VM, fr []uint64) uint64 {
		v, _ := applyUn(op, ae(vm, fr))
		return v
	}
	return n
}

// ---------------------------------------------------------------------------
// single-instruction closures (control, calls, memory admin)

// emitSingle generates the one-instruction closure for everything outside
// statement simulation: control flow, calls, memory.grow. All are
// dedicated handlers.
func (rl *regLowering) emitSingle(pc int, h int32) int {
	cf := rl.cf
	body := cf.body
	in := &body[pc]
	numLoc := rl.numLoc
	next := rl.thread(pc + 1)
	rl.spec[pc] = true

	switch in.Op {
	case wasm.OpUnreachable:
		rl.ops[pc] = regTrapAlways(ErrUnreachable, pc)

	case wasm.OpNop, wasm.OpBlock, wasm.OpLoop:
		rl.ops[pc] = func(vm *VM, fr []uint64) int { return next }

	case wasm.OpEnd:
		if fl := &cf.flat[pc]; fl.flags&fInlEnd != 0 {
			// Exit of an inlined callee body: commit the result from its
			// home down to the caller's operand height, drop the logical
			// depth — a frame return without the frame.
			if fl.arity > 0 {
				dst := rl.home(fl.height)
				src := rl.home(h - 1)
				rl.ops[pc] = func(vm *VM, fr []uint64) int {
					fr[dst] = fr[src]
					vm.depth--
					return next
				}
			} else {
				rl.ops[pc] = func(vm *VM, fr []uint64) int {
					vm.depth--
					return next
				}
			}
		} else if pc == len(body)-1 {
			// Function-final end: deposit the result, exit the driver.
			if cf.nresults > 0 {
				s := rl.home(h - 1)
				rl.ops[pc] = func(vm *VM, fr []uint64) int { vm.regRet = fr[s]; return regDone }
			} else {
				rl.ops[pc] = func(vm *VM, fr []uint64) int { return regDone }
			}
		} else {
			rl.ops[pc] = func(vm *VM, fr []uint64) int { return next }
		}

	case wasm.OpElse:
		// Fallthrough from the then-arm: charge the skipped end inline
		// (the reference engine executes it), then continue after it.
		tgt := int(cf.flat[pc].target)
		epc := int32(pc)
		rl.ops[pc] = func(vm *VM, fr []uint64) int {
			vm.instrCount++
			if vm.fuelLimited {
				if vm.fuel == 0 {
					vm.regErr = ErrFuelExhausted
					vm.regTrapPC = epc
					return regTrapRet
				}
				vm.fuel--
			}
			if vm.cost != nil {
				vm.costAcc += vm.endCost
			}
			return tgt
		}

	case wasm.OpBr:
		fl := &cf.flat[pc]
		e := rl.edge(flatTarget{pc: fl.target, height: fl.height, arity: fl.arity}, h)
		if e.n == 0 && !e.exit {
			tgt := e.target
			rl.ops[pc] = func(vm *VM, fr []uint64) int { return tgt }
		} else {
			rl.ops[pc] = func(vm *VM, fr []uint64) int { return e.take(vm, fr) }
		}

	case wasm.OpBrTable:
		tbl := cf.flat[pc].table
		edges := make([]regEdge, len(tbl))
		for i, t := range tbl {
			edges[i] = rl.edge(t, h-1)
		}
		c := rl.home(h - 1)
		rl.ops[pc] = func(vm *VM, fr []uint64) int {
			j := int(uint32(fr[c]))
			if j >= len(edges)-1 {
				j = len(edges) - 1
			}
			return edges[j].take(vm, fr)
		}

	case wasm.OpReturn:
		if cf.nresults > 0 {
			s := rl.home(h - 1)
			rl.ops[pc] = func(vm *VM, fr []uint64) int { vm.regRet = fr[s]; return regDone }
		} else {
			rl.ops[pc] = func(vm *VM, fr []uint64) int { return regDone }
		}

	case wasm.OpCall:
		fl := &cf.flat[pc]
		cpc := int32(pc)
		switch {
		case fl.flags&fInlEnter != 0:
			// Inlined call marker: the op's charge rode on the segment;
			// bump the logical depth (so call-stack exhaustion traps
			// exactly where a real call would) and zero the callee's
			// non-param local registers.
			zbase := rl.home(h)
			nz := int(fl.arity)
			rl.ops[pc] = func(vm *VM, fr []uint64) int {
				vm.depth++
				if vm.depth > vm.maxDepth {
					vm.regErr = ErrCallStackExhausted
					vm.regTrapPC = cpc
					return regTrapRet
				}
				clear(fr[zbase : zbase+nz])
				return next
			}
		case fl.flags&fCallDef != 0:
			// Residual call to a defined function: everything the generic
			// path derives per call — import compare, function lookup,
			// frame size, result commit — is resolved here, once.
			di := int(fl.target)
			ce := &rl.cm.funcs[di]
			fsize := ce.numLoc + ce.maxStack
			np, loc := ce.nparams, ce.numLoc
			argBase := rl.home(h) - np
			if ce.nresults > 0 {
				rl.ops[pc] = func(vm *VM, fr []uint64) int {
					nf := vm.getFrame(fsize, np, loc)
					copy(nf, fr[argBase:argBase+np])
					res, err := vm.execReg(ce, di, nf)
					if err != nil {
						vm.regErr = err
						vm.regTrapPC = cpc
						return regTrapRet
					}
					fr[argBase] = res
					return next
				}
			} else {
				rl.ops[pc] = func(vm *VM, fr []uint64) int {
					nf := vm.getFrame(fsize, np, loc)
					copy(nf, fr[argBase:argBase+np])
					if _, err := vm.execReg(ce, di, nf); err != nil {
						vm.regErr = err
						vm.regTrapPC = cpc
						return regTrapRet
					}
					return next
				}
			}
		default:
			// Residual call to an imported host function (index in target).
			hidx := uint32(fl.target)
			sp := int(h)
			rl.ops[pc] = func(vm *VM, fr []uint64) int {
				if _, err := vm.invokeHost(hidx, fr[numLoc:], sp); err != nil {
					vm.regErr = err
					vm.regTrapPC = cpc
					return regTrapRet
				}
				return next
			}
		}

	case wasm.OpCallIndirect:
		tidx := in.Idx
		site := int(cf.flat[pc].target) // inline-cache slot (finalizeCalls)
		c := rl.home(h - 1)
		sp := int(h - 1)
		cpc := int32(pc)
		rl.ops[pc] = func(vm *VM, fr []uint64) int {
			elem := uint32(fr[c])
			var fi int32
			if ic := &vm.icache[site]; ic.elem == int32(elem) {
				// Monomorphic hit: bounds and type check already vouched
				// for this element at this site.
				fi = ic.fidx
			} else {
				if int(elem) >= len(vm.table) {
					vm.regErr = ErrUndefinedElement
					vm.regTrapPC = cpc
					return regTrapRet
				}
				fi = vm.table[elem]
				if fi < 0 {
					vm.regErr = ErrUndefinedElement
					vm.regTrapPC = cpc
					return regTrapRet
				}
				want := vm.module.Types[tidx]
				got, err := vm.module.FuncTypeAt(uint32(fi))
				if err != nil || !got.Equal(want) {
					vm.regErr = ErrIndirectTypeBad
					vm.regTrapPC = cpc
					return regTrapRet
				}
				*ic = icEntry{elem: int32(elem), fidx: fi}
			}
			if _, err := vm.invokeAtReg(uint32(fi), fr[numLoc:], sp); err != nil {
				vm.regErr = err
				vm.regTrapPC = cpc
				return regTrapRet
			}
			return next
		}

	case wasm.OpMemoryGrow:
		s := rl.home(h - 1)
		rl.ops[pc] = func(vm *VM, fr []uint64) int {
			delta := uint32(fr[s])
			old := uint32(len(vm.memory) / wasm.PageSize)
			if delta > vm.maxPages || old+delta > vm.maxPages {
				fr[s] = uint64(uint32(0xFFFFFFFF))
				return next
			}
			grown := make([]byte, int(old+delta)*wasm.PageSize)
			copy(grown, vm.memory)
			vm.memory = grown
			vm.sizeDirtyMap(len(grown))
			fr[s] = uint64(old)
			if vm.growHook != nil {
				vm.growHook(vm, old, old+delta)
			}
			return next
		}

	default:
		rl.ops[pc] = regTrapAlways(&UnknownOpcodeError{Op: in.Op}, pc)
		rl.spec[pc] = false
	}
	return 1
}

// ---------------------------------------------------------------------------
// stats

// RegStats summarises the register lowering over a compiled artifact.
type RegStats struct {
	// Registers is the total register-file size across all functions
	// (locals plus one home register per operand-stack slot).
	Registers int
	// Instrs is the total original instruction count across all functions.
	Instrs int
	// Specialised is how many of those instructions are covered by
	// statement closures built entirely from dedicated handlers (no
	// runtime dispatch through applyBin/applyUn/fastLoad generic paths).
	Specialised int
	// Spans is the number of multi-instruction statement closures emitted.
	Spans int
	// Threaded counts the pure-jump pcs continuations were resolved past;
	// InlineUpdates the `g += k` windows carried inside a statement;
	// LeafOperands the register and constant operands read through a leaf
	// evaluator (a closure call per read), not inside their consumer's closure.
	Threaded, InlineUpdates, LeafOperands int
}

// RegStats reports how much of the module the register lowering covered
// with dedicated handlers.
func (cm *CompiledModule) RegStats() RegStats {
	var s RegStats
	for i := range cm.funcs {
		cf := &cm.funcs[i]
		if cf.reg == nil {
			continue
		}
		s.Registers += cf.reg.regs
		s.Instrs += len(cf.body)
		s.Threaded += cf.reg.threaded
		s.InlineUpdates += cf.reg.inlineUpd
		s.LeafOperands += cf.reg.leafOps
		for pc := 0; pc < len(cf.body); {
			w := int(cf.reg.wid[pc])
			if w == 0 {
				pc++
				continue
			}
			if cf.reg.spec[pc] {
				s.Specialised += w
			}
			if w > 1 {
				s.Spans++
			}
			pc += w
		}
	}
	return s
}
