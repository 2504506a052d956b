package interp

import "acctee/internal/wasm"

// This file is the interpreter's inlining pass — the first compiler pass that
// crosses function boundaries. It splices small straight-line callees into
// their callers' flat IR so the hot call path costs nothing at runtime, while
// keeping fuel, InstrCount and weighted cost bit-identical to the non-inlined
// execution *by construction*:
//
//   - the call instruction stays in the body as a marker (fInlEnter), so its
//     own accounting charge — and its position as a segment-final op — are
//     unchanged; at runtime the marker only bumps the logical call depth
//     (preserving call-stack-exhaustion semantics) and zeroes the callee's
//     non-param locals;
//   - the callee body is copied immediately after the marker with local
//     indices and stack heights shifted so the caller's frame doubles as the
//     callee's: params are the operands already on the caller's stack, locals
//     live above them. Because the register engine treats the whole frame as
//     one register file, a shifted local index is just a frame-slot index;
//   - the callee's segment table is copied with pcs shifted, so segment
//     leaders — the points where fuel/cost are charged and interrupts are
//     polled — occur in exactly the same dynamic order as a real call, and
//     trap rollback inside the spliced body uses the callee's own segment
//     bounds;
//   - the spliced copy of the callee's function-final end becomes an fInlEnd
//     marker that commits results down to the caller's operand height and
//     drops the logical depth, mirroring the callee-frame return.
//
// Only straight-line callees are spliced: bodies whose every instruction is
// non-control except the function-final end (plus fInlEnter/fInlEnd pairs
// from earlier rounds, which lets inlining compose transitively). Calls,
// indirect calls and memory.grow are allowed — they only split accounting
// segments, which the splice preserves. This keeps the pass free of branch
// retargeting across function boundaries: the caller's own sidetable and
// br_table edges are remapped through a pc map, the callee contributes none.
//
// The structured reference engine never sees any of this: it runs the
// module's own pre-inline bodies (oracleFunc), so the oracle executes real
// calls and the differential suite checks splice correctness on every run.

const (
	// inlineMaxBody is the largest callee body (in flat instructions,
	// including its final end) that will be spliced.
	inlineMaxBody = 24
	// inlineMaxGrowth caps how many instructions a single caller may gain
	// across all rounds, bounding code growth on call-dense modules.
	inlineMaxGrowth = 192
	// inlineRounds bounds transitive splicing (A inlined into B inlined
	// into C); each round re-examines residual sites against callees'
	// current, possibly already-inlined, bodies.
	inlineRounds = 3
)

// InlineStats reports what the inlining pass did to a compiled module.
type InlineStats struct {
	// SitesConsidered counts call-site examinations. A residual site that
	// stays residual may be re-examined (and re-counted) on a later round,
	// so SitesInlined <= SitesConsidered always holds.
	SitesConsidered int
	// SitesInlined counts call sites converted into fInlEnter markers.
	SitesInlined int
	// GrownInstrs is the total number of flat-IR instructions added across
	// all functions (the "bytes grown" measure; one flat instruction is the
	// unit of both accounting and code size here).
	GrownInstrs int
}

// inlineSite is one call site chosen for splicing in the current round.
type inlineSite struct {
	pc int // caller pc of the OpCall
	di int // defined-function index of the callee
}

// inlinePass splices eligible callees into every function of cm, repeating
// for inlineRounds so chains of small functions collapse transitively.
// It must run after lower() and before finalizeCalls/regLower, which consume
// the post-inline bodies.
func inlinePass(cm *CompiledModule) InlineStats {
	var st InlineStats
	nimp := cm.m.NumImportedFuncs()
	grown := make([]int, len(cm.funcs))
	for round := 0; round < inlineRounds; round++ {
		changed := false
		for i := range cm.funcs {
			if inlineInto(cm, i, nimp, grown, &st) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return st
}

// inlineEligible reports whether ce's current body may be spliced into a
// caller: straight-line (no control instruction except its function-final
// end and fInlEnter/fInlEnd pairs from earlier rounds) with at most one
// result. Plain calls, indirect calls and memory.grow are fine — they are
// segment-final, never branch targets.
func inlineEligible(ce *compiledFunc) bool {
	if len(ce.body) > inlineMaxBody || ce.nresults > 1 {
		return false
	}
	for pc := range ce.body {
		op := ce.body[pc].Op
		switch op {
		case wasm.OpCall, wasm.OpCallIndirect, wasm.OpMemoryGrow:
			// Segment-splitting but not control flow within the body.
		case wasm.OpEnd:
			if pc == len(ce.body)-1 {
				continue // function-final end, becomes the fInlEnd
			}
			if ce.flat[pc].flags&fInlEnd == 0 {
				return false // a real block end: not straight-line
			}
		default:
			if op.IsControl() {
				return false
			}
		}
	}
	return true
}

// inlineInto performs one round of splicing for caller i. Returns whether
// anything changed.
func inlineInto(cm *CompiledModule, i, nimp int, grown []int, st *InlineStats) bool {
	cf := &cm.funcs[i]
	budget := inlineMaxGrowth - grown[i]
	if budget <= 0 {
		return false
	}
	var sites []inlineSite
	for pc := range cf.body {
		in := &cf.body[pc]
		if in.Op != wasm.OpCall || cf.flat[pc].flags&fInlEnter != 0 {
			continue
		}
		if cf.preDead[pc] {
			continue // unreachable: preH is stale there, and it never runs
		}
		if int(in.Idx) < nimp {
			continue // host import: must stay a real crossing
		}
		di := int(in.Idx) - nimp
		st.SitesConsidered++
		if di == i {
			continue // direct self-recursion can never collapse
		}
		ce := &cm.funcs[di]
		if !inlineEligible(ce) {
			continue
		}
		if len(ce.body) > budget {
			continue
		}
		budget -= len(ce.body)
		sites = append(sites, inlineSite{pc: pc, di: di})
	}
	if len(sites) == 0 {
		return false
	}
	before := len(cf.body)
	spliceSites(cm, i, sites)
	added := len(cm.funcs[i].body) - before
	grown[i] += added
	st.GrownInstrs += added
	st.SitesInlined += len(sites)
	return true
}

// spliceSites rebuilds caller i's flat IR with each site's callee body
// spliced in after the call marker. sites are in increasing pc order.
//
// The coordinate maps, with np/nl/nres the callee's param/local/result
// counts and H0 = preH[call] - np (the caller operand height beneath the
// arguments — the callee frame's base):
//
//	callee local index l  ->  caller.numLoc + H0 + l   (frame-slot identity:
//	    params are the argument slots already at height H0, non-param locals
//	    sit above them where the marker zeroes them)
//	callee stack height h ->  H0 + nl + h              (operands above the
//	    callee's local window)
//
// Both are uniform shifts, so nested markers/ends from earlier rounds stay
// correct: their stored heights shift with everything else.
func spliceSites(cm *CompiledModule, i int, sites []inlineSite) {
	cf := &cm.funcs[i]
	oldBody, oldFlat, oldSegEnd := cf.body, cf.flat, cf.segEnd
	oldPreH, oldPreDead := cf.preH, cf.preDead

	extra := 0
	for _, s := range sites {
		extra += len(cm.funcs[s.di].body)
	}
	n := len(oldBody) + extra
	nb := make([]wasm.Instr, 0, n)
	nf := make([]flatOp, 0, n)
	ne := make([]int32, 0, n)
	nh := make([]int32, 0, n)
	nd := make([]bool, 0, n)
	// pcMap[old pc] = new pc, including the virtual function-exit pc
	// len(oldBody) used by return-branches.
	pcMap := make([]int32, len(oldBody)+1)
	// fromCaller marks new pcs whose branch metadata is in old-pc
	// coordinates and needs remapping; callee-origin pcs are shifted in
	// place during the copy.
	fromCaller := make([]bool, 0, n)

	maxStack := cf.maxStack
	si := 0
	for pc := range oldBody {
		pcMap[pc] = int32(len(nb))
		nb = append(nb, oldBody[pc])
		nf = append(nf, oldFlat[pc])
		ne = append(ne, oldSegEnd[pc])
		nh = append(nh, oldPreH[pc])
		nd = append(nd, oldPreDead[pc])
		fromCaller = append(fromCaller, true)
		if si < len(sites) && sites[si].pc == pc {
			ce := &cm.funcs[sites[si].di]
			si++
			np, nl := int32(ce.nparams), int32(ce.numLoc)
			h0 := oldPreH[pc] - np
			mk := &nf[len(nf)-1]
			mk.flags |= fInlEnter
			mk.arity = nl - np // non-param locals the marker zeroes
			localShift := uint32(int32(cf.numLoc) + h0)
			heightShift := h0 + nl
			base := int32(len(nb))
			for q := range ce.body {
				in := ce.body[q]
				switch in.Op {
				case wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee:
					in.Idx += localShift
				}
				nb = append(nb, in)
				fo := ce.flat[q]
				if fo.flags&fInlEnd != 0 {
					fo.height += heightShift
				}
				nf = append(nf, fo)
				ne = append(ne, ce.segEnd[q]+base)
				nh = append(nh, ce.preH[q]+heightShift)
				nd = append(nd, false)
				fromCaller = append(fromCaller, false)
			}
			// The callee's function-final end becomes this region's exit.
			fe := &nf[len(nf)-1]
			fe.flags |= fInlEnd
			fe.height = h0
			fe.arity = int32(ce.nresults)
			if ms := int(h0) + ce.numLoc + ce.maxStack; ms > maxStack {
				maxStack = ms
			}
		}
	}
	pcMap[len(oldBody)] = int32(len(nb))

	// Remap the caller's own branch metadata into the new pc space. Caller
	// stack heights are untouched (splices only insert between caller pcs),
	// so only pcs move.
	for npc := range nb {
		if !fromCaller[npc] {
			continue
		}
		fo := &nf[npc]
		ne[npc] = pcMap[ne[npc]]
		switch nb[npc].Op {
		case wasm.OpIf, wasm.OpElse, wasm.OpBr, wasm.OpBrIf:
			fo.target = pcMap[fo.target]
		case wasm.OpBrTable:
			edges := cf.brEdges[fo.target : fo.target+fo.height]
			for k := range edges {
				edges[k].pc = pcMap[edges[k].pc]
			}
		}
	}

	cf.body, cf.flat, cf.segEnd = nb, nf, ne
	cf.preH, cf.preDead = nh, nd
	cf.maxStack = maxStack
}

// finalizeCalls resolves every residual call site once, after inlining:
// each surviving OpCall becomes a pre-resolved descriptor (defined-function
// index or host index in flat.target), and every OpCallIndirect gets a
// dense inline-cache slot id. Running after the splice means duplicated
// indirect sites inside inlined bodies each get their own monomorphic slot.
func finalizeCalls(cm *CompiledModule) {
	nimp := cm.m.NumImportedFuncs()
	sites := 0
	for i := range cm.funcs {
		cf := &cm.funcs[i]
		for pc := range cf.body {
			fl := &cf.flat[pc]
			switch cf.body[pc].Op {
			case wasm.OpCall:
				if fl.flags&fInlEnter != 0 {
					continue
				}
				if idx := int(cf.body[pc].Idx); idx < nimp {
					fl.target = int32(idx)
				} else {
					fl.flags |= fCallDef
					fl.target = int32(idx - nimp)
				}
			case wasm.OpCallIndirect:
				fl.target = int32(sites)
				sites++
			}
		}
	}
	cm.numICSites = sites
}
