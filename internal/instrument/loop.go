package instrument

import (
	"acctee/internal/cfg"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// countedLoop describes a loop matched by the loop-based optimisation: the
// canonical counted-loop shape emitted by compilers (and by the builder's
// ForI32 helper):
//
//	blockPC:  block
//	loopPC:   loop
//	          local.get v ; <limit instrs> ; <cmp> ; br_if 1   (header)
//	          <straight-line body>
//	          local.get v ; i32.const step ; i32.add ; local.set v
//	          br 0
//	loopEnd:  end
//	blockEnd: end
//
// Exactness requires the loop variable v to be written exactly once per
// iteration by a constant step, and the single br_if 1 to be the only exit.
// These are also the conditions the paper imposes to stop the workload from
// gaming the optimisation by fiddling with the loop variable (§3.6).
type countedLoop struct {
	blockPC  int
	loopPC   int
	brIfPC   int // exit branch (end of header segment)
	backBrPC int // br 0 (end of body segment)
	loopEnd  int
	blockEnd int
	loopVar  uint32
	step     int32
}

// detectCountedLoops scans a function body for loops matching the canonical
// shape above.
func detectCountedLoops(body []wasm.Instr, g *cfg.Graph) []countedLoop {
	var loops []countedLoop
	for pc := 0; pc+1 < len(body); pc++ {
		if body[pc].Op != wasm.OpBlock || body[pc+1].Op != wasm.OpLoop {
			continue
		}
		blockEnd := int(g.Match[pc].EndPC)
		loopPC := pc + 1
		loopEnd := int(g.Match[loopPC].EndPC)
		if loopEnd+1 != blockEnd {
			continue // loop must be the block's sole content
		}
		lp, ok := matchLoopShape(body, pc, loopPC, loopEnd, blockEnd)
		if !ok {
			continue
		}
		loops = append(loops, lp)
	}
	return loops
}

func matchLoopShape(body []wasm.Instr, blockPC, loopPC, loopEnd, blockEnd int) (countedLoop, bool) {
	var lp countedLoop
	lp.blockPC, lp.loopPC, lp.loopEnd, lp.blockEnd = blockPC, loopPC, loopEnd, blockEnd

	// Header must start with local.get v.
	hdr := loopPC + 1
	if hdr >= loopEnd || body[hdr].Op != wasm.OpLocalGet {
		return lp, false
	}
	lp.loopVar = body[hdr].Idx

	// Find the single br_if (must target depth 1 = the wrapping block) and
	// the single back-edge br 0 which must be the last body instruction.
	brIf := -1
	for pc := hdr; pc < loopEnd; pc++ {
		op := body[pc].Op
		switch op {
		case wasm.OpBrIf:
			if brIf >= 0 || body[pc].Idx != 1 {
				return lp, false
			}
			brIf = pc
		case wasm.OpBr:
			if pc != loopEnd-1 || body[pc].Idx != 0 {
				return lp, false
			}
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf, wasm.OpElse, wasm.OpBrTable,
			wasm.OpReturn, wasm.OpUnreachable:
			// nested control flow or extra exits: not a simple counted loop
			return lp, false
		}
	}
	if brIf < 0 || body[loopEnd-1].Op != wasm.OpBr {
		return lp, false
	}
	lp.brIfPC = brIf
	lp.backBrPC = loopEnd - 1

	// Header instructions (between local.get v and br_if) must not write
	// any state the trip-count computation depends on: reject writes to v
	// and all global writes.
	for pc := hdr + 1; pc < brIf; pc++ {
		in := body[pc]
		if (in.Op == wasm.OpLocalSet || in.Op == wasm.OpLocalTee) && in.Idx == lp.loopVar {
			return lp, false
		}
		if in.Op == wasm.OpGlobalSet {
			return lp, false
		}
	}

	// The loop variable must be written exactly once in the body, by the
	// canonical `local.get v ; i32.const step ; i32.add ; local.set v`
	// immediately before the back edge.
	writes := 0
	for pc := brIf + 1; pc < loopEnd; pc++ {
		in := body[pc]
		if (in.Op == wasm.OpLocalSet || in.Op == wasm.OpLocalTee) && in.Idx == lp.loopVar {
			writes++
		}
	}
	if writes != 1 {
		return lp, false
	}
	setPC := lp.backBrPC - 1
	if setPC-3 <= brIf {
		return lp, false
	}
	if body[setPC].Op != wasm.OpLocalSet || body[setPC].Idx != lp.loopVar {
		return lp, false
	}
	if body[setPC-1].Op != wasm.OpI32Add ||
		body[setPC-2].Op != wasm.OpI32Const ||
		body[setPC-3].Op != wasm.OpLocalGet || body[setPC-3].Idx != lp.loopVar {
		return lp, false
	}
	lp.step = body[setPC-2].I32Val()
	if lp.step == 0 {
		return lp, false
	}
	return lp, true
}

// applyLoopOpt rewrites accounting for one counted loop:
//
//   - a fresh local captures the loop variable before the block
//     (prologue, inserted before the `block` opener);
//   - header and body blocks get no per-iteration increments;
//   - after the block's end an epilogue computes the trip count
//     N = (v_end − v_start)/step and charges
//     counter += (W_header + W_body)·N + W_header
//     (the header executes N+1 times, the body N times).
//
// All blocks covered by the loop region are marked protected so the
// flow-based passes do not move counts across it. The prologue and the
// epilogue are appended to code, which it returns.
func applyLoopOpt(f *wasm.Func, nparams int, g *cfg.Graph, lp countedLoop, counter uint32,
	tbl *weights.Table, incr []uint64, protected []bool, code []insertion) []insertion {

	body := f.Body
	hdrBlk := g.BlockAt(lp.loopPC + 1)
	bodyBlk := g.BlockAt(lp.brIfPC + 1)

	wHeader := cfg.RangeCost(body, hdrBlk.Start, hdrBlk.Term, tbl.Weight)
	wBody := cfg.RangeCost(body, bodyBlk.Start, bodyBlk.Term, tbl.Weight)
	// The loop opener executes once per region entry; its segment
	// [blockPC+1, loopPC] is inside the protected region, so fold its weight
	// into the epilogue constant.
	wOnce := cfg.RangeCost(body, lp.blockPC+1, lp.loopPC, tbl.Weight)
	// The block opener itself usually sits at the end of the predecessor
	// basic block (after the loop-variable initialisation), whose increment
	// charges it. With an empty prologue — `block` starting its own basic
	// block, as hand-written WAT does — that block is [blockPC, blockPC],
	// lies wholly inside the protected region and is zeroed below, so the
	// opener's once-per-entry weight must be recovered here too.
	if g.BlockAt(lp.blockPC).Start == lp.blockPC {
		wOnce += tbl.Weight(body[lp.blockPC].Op)
	}

	// Zero the per-iteration increments and protect the whole region
	// (every block whose instructions lie within [blockPC, blockEnd]).
	for _, b := range g.Blocks {
		if b.Start >= lp.blockPC && b.Term <= lp.blockEnd {
			incr[b.ID] = 0
			protected[b.ID] = true
		}
	}

	// Fresh local capturing the loop variable's entry value.
	saved := uint32(nparams + len(f.Locals))
	f.Locals = append(f.Locals, wasm.I32)

	// Prologue: saved = v (before the block opener).
	pro := []wasm.Instr{
		wasm.WithIdx(wasm.OpLocalGet, lp.loopVar),
		wasm.WithIdx(wasm.OpLocalSet, saved),
	}

	// Epilogue: counter += (wHeader+wBody) * (v - saved)/step + wHeader,
	// inserted immediately after the block's end.
	epi := []wasm.Instr{
		wasm.WithIdx(wasm.OpGlobalGet, counter),
		wasm.WithIdx(wasm.OpLocalGet, lp.loopVar),
		wasm.WithIdx(wasm.OpLocalGet, saved),
		wasm.Op1(wasm.OpI32Sub),
		wasm.ConstI32(lp.step),
		wasm.Op1(wasm.OpI32DivS),
		wasm.Op1(wasm.OpI64ExtendI32S),
		wasm.ConstI64(int64(wHeader + wBody)),
		wasm.Op1(wasm.OpI64Mul),
		wasm.Op1(wasm.OpI64Add),
		wasm.ConstI64(int64(wHeader + wOnce)),
		wasm.Op1(wasm.OpI64Add),
		wasm.WithIdx(wasm.OpGlobalSet, counter),
	}
	return append(code, insertion{lp.blockPC, pro}, insertion{lp.blockEnd + 1, epi})
}
