package interp

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"weak"

	"acctee/internal/cfg"
	"acctee/internal/wasm"
)

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
		out = append(out, RegSpan{PC: pc, Width: int(cf.reg.wid[pc]), Leader: cf.reg.seg[pc] != 0, Op: cf.body[pc].Op})
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
// RegStats.LeafOperands). The statement is lowered again from an untrimmed
// lowering of the module (default options): Compile keeps no flat IR.
func (cm *CompiledModule) RegLeafOperands(fi, pc int) int {
	lm, err := lowerModule(cm.m, CompileOptions{})
	if err != nil {
		panic(err)
	}
	cf := &lm.funcs[fi]
	rl := &regLowering{cm: lm, cf: cf, numLoc: cf.numLoc, regCode: &regCode{ops: make([]regFn, len(cf.body))}}
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

// Backed is the bytes the instance holds for linear memory — its backed
// pages, those beyond the page table's length included — against
// MemorySize declared.
func (vm *VM) Backed() int {
	n := 0
	for _, pg := range vm.pages[:cap(vm.pages)] {
		if len(pg) != 0 {
			n += wasm.PageSize
		}
	}
	return n
}

// PageRefs holds a weak pointer to the first byte of each page-table
// entry, those beyond the table's length included (zero for an unbacked
// page), so that a test can see which allocations a later step leaves
// behind.
type PageRefs []weak.Pointer[byte]

func (vm *VM) PageRefs() PageRefs {
	refs := make(PageRefs, cap(vm.pages))
	for pn, pg := range vm.pages[:cap(vm.pages)] {
		if len(pg) > 0 {
			refs[pn] = weak.Make(&pg[0])
		}
	}
	return refs
}

// Stranded collects garbage and counts the pages of refs whose entry has
// since moved to another allocation while the old one is still alive: an
// allocation the page table no longer reads, kept by an entry that points
// into it. The caller must hold no view of the memory.
func (vm *VM) Stranded(refs PageRefs) int {
	runtime.GC()
	pages, n := vm.pages[:cap(vm.pages)], 0
	for pn, ref := range refs[:min(len(refs), len(pages))] {
		if pg := pages[pn]; len(pg) > 0 && ref != (weak.Pointer[byte]{}) && weak.Make(&pg[0]) != ref && ref.Value() != nil {
			n++
		}
	}
	return n
}

// DirtyBlocks counts the blocks the next pooled Reset re-zeroes.
func (vm *VM) DirtyBlocks() int {
	n := 0
	for _, w := range vm.dirty {
		n += bits.OnesCount64(w)
	}
	return n
}

// OracleRebuildMismatch compiles m and builds the trimmed artifact's oracle
// views on demand, and describes the first function whose views differ
// from a reference assembled here from the pre-inline body ("" when every
// function agrees). The reference's control matching is cfg.Build's; its
// leader counts are the register stream's where the inliner left the
// function alone, and a DisableInline lowering's flat segCnt where it grew
// the body. Neither lowerModule nor Compile may build views themselves.
func OracleRebuildMismatch(m *wasm.Module, opts CompileOptions) (string, error) {
	trimmed, err := Compile(m, opts)
	if err != nil {
		return "", err
	}
	plain, err := lowerModule(m, CompileOptions{DisableInline: true})
	if err != nil {
		return "", err
	}
	if trimmed.oracle != nil || plain.oracle != nil {
		return "the oracle's views were built while compiling", nil
	}
	rebuilt, err := trimmed.oracleViews()
	if err != nil {
		return "", err
	}
	if len(rebuilt) != len(m.Funcs) {
		return fmt.Sprintf("%d functions rebuilt, %d in the module", len(rebuilt), len(m.Funcs)), nil
	}
	for i := range m.Funcs {
		f, cf := &m.Funcs[i], &trimmed.funcs[i]
		g, err := cfg.Build(f.Body, f.BrTables)
		if err != nil {
			return "", err
		}
		want := oracleFunc{body: f.Body, brTables: f.BrTables, match: g.Match, seg: cf.reg.seg}
		if len(f.Body) != len(cf.body) {
			want.seg = make([]uint32, len(f.Body))
			for pc, fo := range plain.funcs[i].flat {
				want.seg[pc] = uint32(fo.segCnt)
			}
		}
		if !reflect.DeepEqual(rebuilt[i], want) {
			return fmt.Sprintf("func %d: rebuilt %+v, want %+v", i, rebuilt[i], want), nil
		}
	}
	return "", nil
}
