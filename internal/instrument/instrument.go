// Package instrument implements AccTEE's automated WebAssembly code
// instrumentation for trusted resource accounting (paper §3.5–§3.7): a
// weighted instruction counter held in a freshly-named module global, with
// three placement strategies of increasing sophistication —
//
//	Naive     — one counter update at the end of every basic block (§3.5)
//	FlowBased — dominator-sink and predecessor-minimum hoisting eliminate
//	            redundant updates across the CFG (§3.6, Fig. 4)
//	LoopBased — counted loops with a single loop-variable write per
//	            iteration have their per-iteration updates replaced by one
//	            multiplication after the loop (§3.6)
//
// All three levels preserve exactness: the counter's final value always
// equals the weighted number of executed instructions.
package instrument

import (
	"fmt"
	"strconv"

	"acctee/internal/cfg"
	"acctee/internal/wasm"
	"acctee/internal/wasm/validate"
	"acctee/internal/weights"
)

// Level selects the optimisation level of the instrumentation pass.
type Level int

// Instrumentation levels, in increasing order of static analysis effort.
const (
	Naive Level = iota + 1
	FlowBased
	LoopBased
)

// String names the level as in the paper's figures.
func (l Level) String() string {
	switch l {
	case Naive:
		return "naive"
	case FlowBased:
		return "flow-based"
	case LoopBased:
		return "loop-based"
	}
	return "level(" + strconv.Itoa(int(l)) + ")"
}

// Options configure an instrumentation run.
type Options struct {
	// Level defaults to LoopBased.
	Level Level
	// Weights defaults to weights.Unit() (plain instruction counting).
	Weights *weights.Table
}

// Stats reports static properties of an instrumentation run, used by the
// evaluation (§5.4 and Fig. 10 discussions).
type Stats struct {
	Functions        int
	BlocksTotal      int
	IncrementsNaive  int // increments a naive pass would insert
	IncrementsPlaced int // increments actually inserted
	LoopsOptimised   int
}

// Result is an instrumented module plus the metadata the accounting
// enclave needs to read the counter back.
type Result struct {
	Module *wasm.Module
	// CounterGlobal is the index of the injected weighted-instruction
	// counter global (i64, mutable, initially zero).
	CounterGlobal uint32
	// CounterName is the fresh name chosen for the counter (§3.5: a name
	// unused by the input module, so workload code cannot address it).
	CounterName string
	Stats       Stats
}

// Instrument returns an instrumented deep copy of m. The input module is
// validated before and the output after, so a malicious module cannot
// smuggle code past the pass nor can the pass emit invalid code.
func Instrument(m *wasm.Module, opts Options) (*Result, error) {
	if opts.Level == 0 {
		opts.Level = LoopBased
	}
	if opts.Weights == nil {
		opts.Weights = weights.Unit()
	}
	if err := validate.Module(m); err != nil {
		return nil, fmt.Errorf("instrument: input module invalid: %w", err)
	}

	out := m.Clone()
	name := freshCounterName(out)
	counterIdx := uint32(len(out.Globals))
	out.Globals = append(out.Globals, wasm.Global{
		Type:    wasm.I64,
		Mutable: true,
		Init:    wasm.ConstI64(0),
		Name:    name,
	})

	res := &Result{Module: out, CounterGlobal: counterIdx, CounterName: name}
	for i := range out.Funcs {
		if err := instrumentFunc(out, &out.Funcs[i], counterIdx, opts, &res.Stats); err != nil {
			return nil, fmt.Errorf("instrument: func %d: %w", i, err)
		}
	}
	res.Stats.Functions = len(out.Funcs)

	if err := validate.Module(out); err != nil {
		return nil, fmt.Errorf("instrument: output module invalid: %w", err)
	}
	return res, nil
}

// freshCounterName scans existing global names and picks an unused one
// (§3.5: "AccTEE scans the code and chooses a previously unused variable
// name to refer to the counter").
func freshCounterName(m *wasm.Module) string {
	used := m.GlobalNames()
	base := "acctee_wic"
	if !used[base] {
		return base
	}
	for i := 0; ; i++ {
		c := base + "_" + strconv.Itoa(i)
		if !used[c] {
			return c
		}
	}
}

// appendIncr appends the four-instruction counter update: c += w.
func appendIncr(body []wasm.Instr, counter uint32, w uint64) []wasm.Instr {
	return append(body,
		wasm.WithIdx(wasm.OpGlobalGet, counter),
		wasm.ConstI64(int64(w)),
		wasm.Op1(wasm.OpI64Add),
		wasm.WithIdx(wasm.OpGlobalSet, counter),
	)
}

// insertion is code the loop optimisation inserts before body[pc].
type insertion struct {
	pc   int
	code []wasm.Instr
}

func instrumentFunc(m *wasm.Module, f *wasm.Func, counter uint32, opts Options, stats *Stats) error {
	g, err := cfg.Build(f.Body, f.BrTables)
	if err != nil {
		return err
	}
	stats.BlocksTotal += len(g.Blocks)

	// Per-block increments (naive placement), from the shared CFG analysis.
	incr := g.BlockCosts(opts.Weights.Weight)
	for _, w := range incr {
		if w > 0 {
			stats.IncrementsNaive++
		}
	}

	protected := make([]bool, len(g.Blocks))
	// The loop optimisation's prologues and epilogues, in pc order: counted
	// loops never nest or overlap, and each one's prologue precedes its
	// epilogue.
	var loopCode []insertion

	if opts.Level >= LoopBased {
		nparams := len(m.Types[f.TypeIdx].Params)
		loops := detectCountedLoops(f.Body, g)
		for _, lp := range loops {
			loopCode = applyLoopOpt(f, nparams, g, lp, counter, opts.Weights, incr, protected, loopCode)
			stats.LoopsOptimised++
		}
	}
	if opts.Level >= FlowBased {
		optimiseFlow(g, incr, protected)
	}

	// The remaining per-block increments go before each block terminator.
	n := len(f.Body)
	for _, w := range incr {
		if w > 0 {
			stats.IncrementsPlaced++
			n += 4
		}
	}
	for _, ins := range loopCode {
		n += len(ins.code)
	}
	if n == len(f.Body) {
		return nil
	}

	// Rebuild the body with all insertions applied: at a pc, the loop code
	// comes first, then the increment of the block the pc terminates.
	newBody := make([]wasm.Instr, 0, n)
	next, blk := 0, 0
	for pc, in := range f.Body {
		for ; next < len(loopCode) && loopCode[next].pc == pc; next++ {
			newBody = append(newBody, loopCode[next].code...)
		}
		if pc == g.Blocks[blk].Term {
			if incr[blk] > 0 {
				newBody = appendIncr(newBody, counter, incr[blk])
			}
			blk++
		}
		newBody = append(newBody, in)
	}
	f.Body = newBody
	return nil
}

// optimiseFlow applies the paper's two flow-based transformations (§3.6).
//
// Sink (dominator combination, Fig. 4 left→middle): when every successor of
// block A has A as its sole predecessor — i.e. A dominates each successor
// and each successor executes exactly once per execution of A — A's update
// can be folded into the successors' updates and removed.
//
// Hoist (predecessor minimum, Fig. 4 middle→right): for a block N whose
// predecessors all flow only into N, the minimum predecessor increment is
// moved into N; the predecessor with the minimum count loses its update
// entirely.
func optimiseFlow(g *cfg.Graph, incr []uint64, protected []bool) {
	rpo := g.ReversePostorder()

	// Sink pass.
	for _, a := range rpo {
		if incr[a] == 0 || protected[a] {
			continue
		}
		blk := g.Blocks[a]
		if len(blk.Succs) == 0 {
			continue
		}
		ok := true
		for _, s := range blk.Succs {
			if s == cfg.Exit || protected[s] || len(g.Blocks[s].Preds) != 1 || s == a {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, s := range blk.Succs {
			incr[s] += incr[a]
		}
		incr[a] = 0
	}

	// Hoist pass.
	for _, n := range rpo {
		if protected[n] {
			continue
		}
		blk := g.Blocks[n]
		if len(blk.Preds) < 2 {
			continue
		}
		minv := ^uint64(0)
		ok := true
		for _, p := range blk.Preds {
			pb := g.Blocks[p]
			if protected[p] || len(pb.Succs) != 1 || pb.Succs[0] != n || p == n {
				ok = false
				break
			}
			if incr[p] < minv {
				minv = incr[p]
			}
		}
		if !ok || minv == 0 || minv == ^uint64(0) {
			continue
		}
		for _, p := range blk.Preds {
			incr[p] -= minv
		}
		incr[n] += minv
	}
}
