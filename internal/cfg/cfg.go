// Package cfg decomposes flat structured WebAssembly function bodies into
// basic blocks (segments), builds the control-flow graph between them, and
// weighs their code ranges. The instrumentation enclave's flow-based and
// loop-based optimisations (paper §3.6) and the interpreter's lowering pass
// are driven by the analyses in this package.
package cfg

import (
	"fmt"

	"acctee/internal/wasm"
)

// Exit is the pseudo-block ID representing function exit.
const Exit = -1

// Block is one basic block of a function body: the half-open instruction
// range [Start, Term] where Term is the index of the terminating control
// instruction (always included in the block).
type Block struct {
	ID    int
	Start int // first instruction index
	Term  int // terminator instruction index (flush/insert point)
	// Succs are successor block IDs; Exit (-1) marks function exit.
	Succs []int
	// Preds are predecessor block IDs (Exit never appears).
	Preds []int
}

// Graph is the CFG of one function body. Its tables are dense and indexed
// by block ID or by pc: the blocks share one backing array, their edge
// lists are cut from one slab, and Match and the pc→block table hold one
// entry per instruction.
type Graph struct {
	Body   []wasm.Instr
	Blocks []Block
	// Match pairs structured-control instructions, indexed by pc: for
	// block/loop/if the matching end (and else); for else/end the header.
	// Consumers (the interpreter's lowering pass, the loop matcher) reuse
	// it instead of re-scanning the body.
	Match []MatchInfo
	// blockOf maps every pc to the ID of the block containing it.
	blockOf []int32
}

// MatchInfo pre-resolves one structured-control instruction: for
// block/loop/if EndPC (and ElsePC, -1 without an else); for else/end the
// header, with the else's EndPC pointing at its if's end.
type MatchInfo struct {
	EndPC  int32
	ElsePC int32
	HdrPC  int32
	// Ok marks a pc that has an entry: every block/loop/if/else/end but
	// the function-final end.
	Ok bool
}

// endsBlock reports whether op is a block boundary: the instruction after
// it starts a new block.
func endsBlock(op wasm.Opcode) bool {
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf, wasm.OpElse, wasm.OpEnd,
		wasm.OpBr, wasm.OpBrIf, wasm.OpBrTable, wasm.OpReturn, wasm.OpUnreachable:
		return true
	}
	return false
}

// Build scans a function body and produces its CFG. brTables is the
// function's br_table side table (wasm.Func.BrTables), which the body's
// br_table instructions index.
//
// Block boundaries (segment starts) are: the body start, the instruction
// after every block/loop/if opener, after every else, after every end, and
// after every br/br_if/br_table/return/unreachable. This matches the
// paper's basic-block granularity: every point where control can diverge or
// merge starts a new block.
//
// Build makes the same allocations whatever the body's length, unless
// control nests deeper than 32.
func Build(body []wasm.Instr, brTables [][]uint32) (*Graph, error) {
	if err := wasm.ValidateStructure(body); err != nil {
		return nil, err
	}
	n := len(body)
	g := &Graph{Body: body, Match: make([]MatchInfo, n), blockOf: make([]int32, n)}

	// Pass 1: pair structured control, number the blocks and bound the
	// edges (each boundary adds at most this many successors to its block).
	// ValidateStructure guarantees an open header below every else and
	// every end but the function-final one.
	stack := make([]int32, 0, 32)
	nblocks, maxEdges := 1, 0
	for pc, in := range body {
		g.blockOf[pc] = int32(nblocks - 1)
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop:
			g.Match[pc] = MatchInfo{ElsePC: -1, Ok: true}
			stack = append(stack, int32(pc))
			maxEdges++
		case wasm.OpIf:
			g.Match[pc] = MatchInfo{ElsePC: -1, Ok: true}
			stack = append(stack, int32(pc))
			maxEdges += 2
		case wasm.OpElse:
			hdr := stack[len(stack)-1]
			g.Match[hdr].ElsePC = int32(pc)
			g.Match[pc] = MatchInfo{HdrPC: hdr, ElsePC: -1, Ok: true} // EndPC: pass 2
			maxEdges++
		case wasm.OpEnd:
			if len(stack) > 0 { // else the function-final end
				hdr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				g.Match[hdr].EndPC = int32(pc)
				g.Match[pc] = MatchInfo{HdrPC: hdr, ElsePC: -1, Ok: true}
			}
			maxEdges++
		case wasm.OpBrIf:
			maxEdges += 2
		case wasm.OpBrTable:
			if int(in.Idx) < len(brTables) { // else pass 2 reports it, in pc order
				maxEdges += len(brTables[in.Idx])
			}
		case wasm.OpBr, wasm.OpReturn, wasm.OpUnreachable:
			maxEdges++
		}
		if endsBlock(in.Op) && pc+1 < n {
			nblocks++
		}
	}

	// Pass 2: blocks and successors. A block's edges all leave from its
	// terminator, so the blocks' successor lists are consecutive runs of
	// one slab; the predecessor lists are cut from its second half.
	g.Blocks = make([]Block, nblocks)
	slab := make([]int, 2*maxEdges)
	succs := slab[:0:maxEdges]
	// labels is the open-label stack: the header pc of each enclosing
	// block/loop/if, innermost last.
	labels := stack[:0]
	targetPC := func(depth uint32) (int, error) {
		if int(depth) == len(labels) {
			// The implicit function label: branching to it returns.
			return n, nil
		}
		if int(depth) > len(labels) {
			return 0, fmt.Errorf("cfg: branch depth %d out of range", depth)
		}
		hdr := labels[len(labels)-1-int(depth)]
		if body[hdr].Op == wasm.OpLoop {
			return int(hdr) + 1, nil
		}
		return int(g.Match[hdr].EndPC) + 1, nil
	}
	first := 0 // the current block's first successor in succs
	addEdge := func(toPC int) {
		to := Exit
		if toPC < n {
			to = int(g.blockOf[toPC]) // toPC follows a boundary: a block start
		}
		for _, s := range succs[first:] {
			if s == to {
				return
			}
		}
		succs = append(succs, to)
	}

	for pc, in := range body {
		id := int(g.blockOf[pc])
		b := &g.Blocks[id]
		if pc == 0 || id != int(g.blockOf[pc-1]) {
			b.ID, b.Start = id, pc
			first = len(succs)
		}
		b.Term = pc
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop:
			labels = append(labels, int32(pc))
			addEdge(pc + 1) // fallthrough into the structure
		case wasm.OpIf:
			m := g.Match[pc]
			labels = append(labels, int32(pc))
			addEdge(pc + 1) // then branch
			if m.ElsePC >= 0 {
				addEdge(int(m.ElsePC) + 1)
			} else {
				addEdge(int(m.EndPC) + 1) // false with no else skips body
			}
		case wasm.OpElse:
			// fallthrough from the then-arm jumps to after the if's end
			end := g.Match[g.Match[pc].HdrPC].EndPC
			g.Match[pc].EndPC = end
			addEdge(int(end) + 1)
		case wasm.OpEnd:
			if len(labels) > 0 {
				labels = labels[:len(labels)-1]
			}
			addEdge(pc + 1) // fallthrough (pc+1 == len -> Exit)
		case wasm.OpBr:
			t, err := targetPC(in.Idx)
			if err != nil {
				return nil, err
			}
			addEdge(t)
		case wasm.OpBrIf:
			t, err := targetPC(in.Idx)
			if err != nil {
				return nil, err
			}
			addEdge(t)
			addEdge(pc + 1)
		case wasm.OpBrTable:
			if int(in.Idx) >= len(brTables) {
				return nil, fmt.Errorf("cfg: br_table targets %d out of range", in.Idx)
			}
			for _, d := range brTables[in.Idx] {
				t, err := targetPC(d)
				if err != nil {
					return nil, err
				}
				addEdge(t)
			}
		case wasm.OpReturn, wasm.OpUnreachable:
			addEdge(n)
		}
		if len(succs) > first && (pc+1 == n || g.blockOf[pc+1] != int32(id)) {
			b.Succs = succs[first:len(succs):len(succs)]
		}
	}

	// Preds, in block order: count each block's into the length of its
	// list (every list a prefix of the slab's second half for now), then
	// give each its own run and fill the runs in the order the blocks
	// list their successors.
	preds := slab[maxEdges:]
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			if s != Exit {
				g.Blocks[s].Preds = preds[:len(g.Blocks[s].Preds)+1]
			}
		}
	}
	off := 0
	for i := range g.Blocks {
		b := &g.Blocks[i]
		k := len(b.Preds)
		b.Preds = nil
		if k > 0 {
			b.Preds = preds[off : off : off+k]
		}
		off += k
	}
	for i := range g.Blocks {
		for _, s := range g.Blocks[i].Succs {
			if s != Exit {
				g.Blocks[s].Preds = append(g.Blocks[s].Preds, i)
			}
		}
	}
	return g, nil
}

// Leaders returns the segment-leader bitmap of the body: true at every
// basic-block start, and at the instruction following any occurrence of the
// given opcodes. Accounting consumers (the interpreter's lowering passes)
// split segments after host-visible points — call, call_indirect,
// memory.grow — so counters are settled whenever host code can observe the
// VM; a compiled statement must never span a leader.
func (g *Graph) Leaders(splitAfter ...wasm.Opcode) []bool {
	leader := make([]bool, len(g.Body))
	for _, b := range g.Blocks {
		leader[b.Start] = true
	}
	for pc, in := range g.Body {
		for _, op := range splitAfter {
			if in.Op == op && pc+1 < len(g.Body) {
				leader[pc+1] = true
			}
		}
	}
	return leader
}

// RangeCost sums costFn over the instruction range body[start..term]
// inclusive. It is the single definition of a code range's weight, shared
// by the instrumentation enclave (counter increments) and the interpreter's
// lowering pass (block-batched accounting), so the two can never disagree.
func RangeCost(body []wasm.Instr, start, term int, costFn func(wasm.Opcode) uint64) uint64 {
	var sum uint64
	for pc := start; pc <= term; pc++ {
		sum += costFn(body[pc].Op)
	}
	return sum
}

// BlockCosts returns, for every block of the graph, the summed costFn
// weight of its instructions (the per-block increment a naive counter
// placement would charge).
func (g *Graph) BlockCosts(costFn func(wasm.Opcode) uint64) []uint64 {
	costs := make([]uint64, len(g.Blocks))
	for i, b := range g.Blocks {
		costs[i] = RangeCost(g.Body, b.Start, b.Term, costFn)
	}
	return costs
}

// BlockAt returns the block containing instruction pc.
func (g *Graph) BlockAt(pc int) *Block { return &g.Blocks[g.blockOf[pc]] }

// ReversePostorder returns reachable block IDs in reverse postorder.
func (g *Graph) ReversePostorder() []int {
	seen := make([]bool, len(g.Blocks))
	post := make([]int, 0, len(g.Blocks))
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if s != Exit && !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if len(g.Blocks) > 0 {
		dfs(0)
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
