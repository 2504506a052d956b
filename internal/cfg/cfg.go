// Package cfg decomposes flat structured WebAssembly function bodies into
// basic blocks (segments), builds the control-flow graph between them, and
// computes dominators and natural loops. The instrumentation enclave's
// flow-based and loop-based optimisations (paper §3.6) are driven by the
// analyses in this package.
package cfg

import (
	"fmt"
	"sort"

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

// Graph is the CFG of one function body.
type Graph struct {
	Body   []wasm.Instr
	Blocks []*Block
	// Match pairs structured-control instructions: for block/loop/if the
	// matching end (and else); for else/end the header. The function-final
	// end has no entry. Consumers (the interpreter's lowering pass) reuse
	// it instead of re-scanning the body.
	Match map[int]MatchInfo
	// byStart maps an instruction index to the block starting there.
	byStart map[int]int
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
func Build(body []wasm.Instr, brTables [][]uint32) (*Graph, error) {
	if err := wasm.ValidateStructure(body); err != nil {
		return nil, err
	}
	matching, err := matchControl(body)
	if err != nil {
		return nil, err
	}

	// Pass 1: find block start positions.
	starts := map[int]bool{0: true}
	for pc, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf, wasm.OpElse, wasm.OpEnd,
			wasm.OpBr, wasm.OpBrIf, wasm.OpBrTable, wasm.OpReturn, wasm.OpUnreachable:
			if pc+1 < len(body) {
				starts[pc+1] = true
			}
		}
	}

	g := &Graph{Body: body, Match: matching, byStart: make(map[int]int)}
	// Pass 2: materialise blocks in order.
	order := make([]int, 0, len(starts))
	for pc := range starts {
		order = append(order, pc)
	}
	sortInts(order)
	for _, s := range order {
		id := len(g.Blocks)
		g.Blocks = append(g.Blocks, &Block{ID: id, Start: s})
		g.byStart[s] = id
	}
	// Terminator of each block = next start - 1 (or last instruction).
	for i, b := range g.Blocks {
		if i+1 < len(g.Blocks) {
			b.Term = g.Blocks[i+1].Start - 1
		} else {
			b.Term = len(body) - 1
		}
	}

	// Pass 3: edges. We need, for each branch depth at a pc, the target
	// continuation pc. Maintain a label stack while walking.
	type openLabel struct {
		isLoop bool
		hdrPC  int
		endPC  int
	}
	var labels []openLabel
	targetPC := func(depth uint32) (int, error) {
		if int(depth) == len(labels) {
			// The implicit function label: branching to it returns.
			return len(body), nil
		}
		if int(depth) > len(labels) {
			return 0, fmt.Errorf("cfg: branch depth %d out of range", depth)
		}
		l := labels[len(labels)-1-int(depth)]
		if l.isLoop {
			return l.hdrPC + 1, nil
		}
		return l.endPC + 1, nil
	}
	addEdge := func(from int, toPC int) {
		b := g.Blocks[from]
		if toPC >= len(body) {
			b.Succs = appendUnique(b.Succs, Exit)
			return
		}
		to, ok := g.byStart[toPC]
		if !ok {
			// The target must be a block start by construction.
			panic(fmt.Sprintf("cfg: branch target %d is not a block start", toPC))
		}
		b.Succs = appendUnique(b.Succs, to)
	}

	for pc, in := range body {
		blk := g.blockAt(pc)
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop:
			m := matching[pc]
			labels = append(labels, openLabel{isLoop: in.Op == wasm.OpLoop, hdrPC: pc, endPC: m.EndPC})
			if pc == blk.Term {
				addEdge(blk.ID, pc+1) // fallthrough into the structure
			}
		case wasm.OpIf:
			m := matching[pc]
			labels = append(labels, openLabel{hdrPC: pc, endPC: m.EndPC})
			addEdge(blk.ID, pc+1) // then branch
			if m.ElsePC >= 0 {
				addEdge(blk.ID, m.ElsePC+1)
			} else {
				addEdge(blk.ID, m.EndPC+1) // false with no else skips body
			}
		case wasm.OpElse:
			// fallthrough from the then-arm jumps to after the if's end
			m := matching[pc]
			addEdge(blk.ID, m.EndPC+1)
		case wasm.OpEnd:
			if len(labels) > 0 {
				labels = labels[:len(labels)-1]
			}
			addEdge(blk.ID, pc+1) // fallthrough (pc+1 == len -> Exit)
		case wasm.OpBr:
			t, err := targetPC(in.Idx)
			if err != nil {
				return nil, err
			}
			addEdge(blk.ID, t)
		case wasm.OpBrIf:
			t, err := targetPC(in.Idx)
			if err != nil {
				return nil, err
			}
			addEdge(blk.ID, t)
			addEdge(blk.ID, pc+1)
		case wasm.OpBrTable:
			if int(in.Idx) >= len(brTables) {
				return nil, fmt.Errorf("cfg: br_table targets %d out of range", in.Idx)
			}
			for _, d := range brTables[in.Idx] {
				t, err := targetPC(d)
				if err != nil {
					return nil, err
				}
				addEdge(blk.ID, t)
			}
		case wasm.OpReturn, wasm.OpUnreachable:
			g.Blocks[blk.ID].Succs = appendUnique(g.Blocks[blk.ID].Succs, Exit)
		}
	}

	// Preds.
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s != Exit {
				g.Blocks[s].Preds = appendUnique(g.Blocks[s].Preds, b.ID)
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

// blockAt returns the block containing instruction pc.
func (g *Graph) blockAt(pc int) *Block {
	// binary search over Starts
	lo, hi := 0, len(g.Blocks)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.Blocks[mid].Start <= pc {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return g.Blocks[lo]
}

// BlockAt exposes blockAt for analyses in other packages.
func (g *Graph) BlockAt(pc int) *Block { return g.blockAt(pc) }

// MatchInfo pre-resolves one structured-control instruction: for
// block/loop/if EndPC (and ElsePC, -1 without an else); for else/end the
// header, with the else's EndPC pointing at its if's end.
type MatchInfo struct {
	EndPC  int
	ElsePC int
	HdrPC  int
}

// matchControl pairs every block/loop/if with its end (and else), and every
// else/end with its header.
func matchControl(body []wasm.Instr) (map[int]MatchInfo, error) {
	m := make(map[int]MatchInfo)
	var stack []int
	for pc, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			m[pc] = MatchInfo{ElsePC: -1}
			stack = append(stack, pc)
		case wasm.OpElse:
			if len(stack) == 0 {
				return nil, fmt.Errorf("cfg: else outside if")
			}
			hdr := stack[len(stack)-1]
			mi := m[hdr]
			mi.ElsePC = pc
			m[hdr] = mi
			m[pc] = MatchInfo{HdrPC: hdr, ElsePC: -1}
		case wasm.OpEnd:
			if len(stack) == 0 {
				continue // function-final end
			}
			hdr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mi := m[hdr]
			mi.EndPC = pc
			m[hdr] = mi
			// point the else (if any) at the end too
			if mi.ElsePC >= 0 {
				e := m[mi.ElsePC]
				e.EndPC = pc
				m[mi.ElsePC] = e
			}
			m[pc] = MatchInfo{HdrPC: hdr, ElsePC: -1}
		}
	}
	// fix else entries: their endPC set above via header
	for pc, in := range body {
		if in.Op == wasm.OpElse {
			mi := m[pc]
			hdr := mi.HdrPC
			mi.EndPC = m[hdr].EndPC
			m[pc] = mi
		}
	}
	return m, nil
}

// Dominators computes the immediate-dominator array using the iterative
// data-flow algorithm (Cooper/Harvey/Kennedy). idom[0] == 0 (entry).
// Unreachable blocks get idom -2.
func (g *Graph) Dominators() []int {
	n := len(g.Blocks)
	const unset = -2
	idom := make([]int, n)
	for i := range idom {
		idom[i] = unset
	}
	// reverse postorder over reachable blocks
	rpo := g.ReversePostorder()
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range rpo {
		pos[b] = i
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := unset
			for _, p := range g.Blocks[b].Preds {
				if idom[p] == unset {
					continue
				}
				if newIdom == unset {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != unset && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given the idom array. Unreachable
// blocks are dominated by nothing.
func Dominates(idom []int, a, b int) bool {
	if idom[b] == -2 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = idom[b]
	}
}

// ReversePostorder returns reachable block IDs in reverse postorder.
func (g *Graph) ReversePostorder() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
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

// Reachable returns the set of blocks reachable from entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Blocks))
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if s != Exit && !seen[s] {
				dfs(s)
			}
		}
	}
	if len(g.Blocks) > 0 {
		dfs(0)
	}
	return seen
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func sortInts(s []int) {
	sort.Ints(s)
}
