package cfg_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/cfg"
	"acctee/internal/instrument"
	"acctee/internal/wasm"
	"acctee/internal/wasm/binary"
	"acctee/internal/wasm/validate"
	"acctee/internal/wasm/wat"
)

// refBlock, refMatch and refGraph are the map-based CFG that Build replaced:
// block starts and the start→block index in maps, a binary search for the
// block at a pc, and the control matching in a map keyed by pc. It is kept
// here, and only here, as the reference the dense tables are held to.
type refBlock struct {
	ID, Start, Term int
	Succs, Preds    []int
}

type refMatch struct{ EndPC, ElsePC, HdrPC int }

type refGraph struct {
	Blocks  []*refBlock
	Match   map[int]refMatch
	byStart map[int]int
}

func (g *refGraph) blockAt(pc int) *refBlock {
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

func referenceBuild(body []wasm.Instr, brTables [][]uint32) (*refGraph, error) {
	if err := wasm.ValidateStructure(body); err != nil {
		return nil, err
	}
	matching, err := refMatchControl(body)
	if err != nil {
		return nil, err
	}
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
	g := &refGraph{Match: matching, byStart: make(map[int]int)}
	order := make([]int, 0, len(starts))
	for pc := range starts {
		order = append(order, pc)
	}
	sort.Ints(order)
	for _, s := range order {
		id := len(g.Blocks)
		g.Blocks = append(g.Blocks, &refBlock{ID: id, Start: s})
		g.byStart[s] = id
	}
	for i, b := range g.Blocks {
		if i+1 < len(g.Blocks) {
			b.Term = g.Blocks[i+1].Start - 1
		} else {
			b.Term = len(body) - 1
		}
	}
	type openLabel struct {
		isLoop       bool
		hdrPC, endPC int
	}
	var labels []openLabel
	targetPC := func(depth uint32) (int, error) {
		if int(depth) == len(labels) {
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
			b.Succs = appendUnique(b.Succs, cfg.Exit)
			return
		}
		to, ok := g.byStart[toPC]
		if !ok {
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
				addEdge(blk.ID, pc+1)
			}
		case wasm.OpIf:
			m := matching[pc]
			labels = append(labels, openLabel{hdrPC: pc, endPC: m.EndPC})
			addEdge(blk.ID, pc+1)
			if m.ElsePC >= 0 {
				addEdge(blk.ID, m.ElsePC+1)
			} else {
				addEdge(blk.ID, m.EndPC+1)
			}
		case wasm.OpElse:
			addEdge(blk.ID, matching[pc].EndPC+1)
		case wasm.OpEnd:
			if len(labels) > 0 {
				labels = labels[:len(labels)-1]
			}
			addEdge(blk.ID, pc+1)
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
			blk.Succs = appendUnique(blk.Succs, cfg.Exit)
		}
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s != cfg.Exit {
				g.Blocks[s].Preds = appendUnique(g.Blocks[s].Preds, b.ID)
			}
		}
	}
	return g, nil
}

func refMatchControl(body []wasm.Instr) (map[int]refMatch, error) {
	m := make(map[int]refMatch)
	var stack []int
	for pc, in := range body {
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			m[pc] = refMatch{ElsePC: -1}
			stack = append(stack, pc)
		case wasm.OpElse:
			if len(stack) == 0 {
				return nil, fmt.Errorf("cfg: else outside if")
			}
			hdr := stack[len(stack)-1]
			mi := m[hdr]
			mi.ElsePC = pc
			m[hdr] = mi
			m[pc] = refMatch{HdrPC: hdr, ElsePC: -1}
		case wasm.OpEnd:
			if len(stack) == 0 {
				continue
			}
			hdr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mi := m[hdr]
			mi.EndPC = pc
			m[hdr] = mi
			m[pc] = refMatch{HdrPC: hdr, ElsePC: -1}
		}
	}
	for pc, in := range body {
		if in.Op == wasm.OpElse {
			mi := m[pc]
			mi.EndPC = m[mi.HdrPC].EndPC
			m[pc] = mi
		}
	}
	return m, nil
}

func appendUnique(s []int, v int) []int {
	if slices.Contains(s, v) {
		return s
	}
	return append(s, v)
}

// buildMismatch builds body with Build and with the reference and describes
// the first difference: in the error, a block, an edge list (order
// included), the matching at a pc, or the block at a pc. It returns "" when
// the two agree everywhere.
func buildMismatch(body []wasm.Instr, brTables [][]uint32) string {
	ref, refErr := referenceBuild(body, brTables)
	g, err := cfg.Build(body, brTables)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			return fmt.Sprintf("error %v, reference %v", err, refErr)
		}
		return ""
	}
	if len(g.Blocks) != len(ref.Blocks) {
		return fmt.Sprintf("%d blocks, reference %d", len(g.Blocks), len(ref.Blocks))
	}
	for i, rb := range ref.Blocks {
		b := g.Blocks[i]
		if b.ID != rb.ID || b.Start != rb.Start || b.Term != rb.Term ||
			!slices.Equal(b.Succs, rb.Succs) || !slices.Equal(b.Preds, rb.Preds) {
			return fmt.Sprintf("block %d: %+v, reference %+v", i, b, *rb)
		}
	}
	if len(g.Match) != len(body) {
		return fmt.Sprintf("match table of %d entries for %d instructions", len(g.Match), len(body))
	}
	for pc := range body {
		rm, ok := ref.Match[pc]
		m := g.Match[pc]
		if m.Ok != ok || ok && (int(m.EndPC) != rm.EndPC || int(m.ElsePC) != rm.ElsePC || int(m.HdrPC) != rm.HdrPC) {
			return fmt.Sprintf("match at pc %d (%v): %+v, reference %+v (present %v)", pc, body[pc].Op, m, rm, ok)
		}
		if got, want := g.BlockAt(pc), ref.blockAt(pc); got.ID != want.ID || got != &g.Blocks[got.ID] {
			return fmt.Sprintf("block at pc %d: %d, reference %d", pc, got.ID, want.ID)
		}
	}
	return ""
}

// referenceModules is every module the differential test compares over:
// the footprint set as built and loop-instrumented (the interpreter builds
// the instrumented bodies' graphs), the benchmark's WAT kernels, and
// hand-built br_table and if shapes the footprint set does not reach.
func referenceModules(t testing.TB) map[string]*wasm.Module {
	mods := map[string]*wasm.Module{}
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set {
		inst, err := instrument.Instrument(p.Module, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			t.Fatal(err)
		}
		mods[p.Name] = p.Module
		mods[p.Name+"/instrumented"] = inst.Module
	}
	files, err := filepath.Glob("../../benchmark/kernels/*.wat")
	if err != nil || len(files) == 0 {
		t.Fatalf("WAT kernels: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		m, err := wat.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		mods[filepath.Base(file)] = m
	}
	mods["br_table"] = brTableModule()
	mods["diamond"] = diamondModule()
	return mods
}

// TestBuildMatchesReference: Build and the map-based reference agree on
// every function body of the footprint set (as built and instrumented), the
// WAT kernels and the hand-built shapes: blocks, Start/Term, successor and
// predecessor lists in order, the matching at every pc and the block at
// every pc.
func TestBuildMatchesReference(t *testing.T) {
	bodies := 0
	for name, m := range referenceModules(t) {
		for i := range m.Funcs {
			f := &m.Funcs[i]
			if d := buildMismatch(f.Body, f.BrTables); d != "" {
				t.Errorf("%s func %d: %s", name, i, d)
			}
			bodies++
		}
	}
	t.Logf("%d function bodies", bodies)
}

// TestBuildErrorsMatchReference: the bodies Build refuses, it refuses with
// the reference's error — a branch past the function label, a br_table
// index past the side table, the first of two in pc order, and the
// structural errors.
func TestBuildErrorsMatchReference(t *testing.T) {
	br := func(op wasm.Opcode, idx uint32) wasm.Instr { return wasm.WithIdx(op, idx) }
	end := wasm.Op1(wasm.OpEnd)
	for name, body := range map[string][]wasm.Instr{
		"br too deep":          {wasm.Op1(wasm.OpBlock), br(wasm.OpBr, 2), end, end},
		"br_if too deep":       {br(wasm.OpBrIf, 1), end},
		"br_table out of side": {br(wasm.OpBrTable, 3), end},
		"br_table depth":       {br(wasm.OpBrTable, 0), end},
		"first error in order": {br(wasm.OpBr, 5), br(wasm.OpBrTable, 9), end},
		"br_table then br":     {br(wasm.OpBrTable, 9), br(wasm.OpBr, 5), end},
		"no final end":         {wasm.Op1(wasm.OpNop)},
		"else outside if":      {wasm.Op1(wasm.OpElse), end},
		"unbalanced":           {wasm.Op1(wasm.OpBlock), end},
	} {
		if d := buildMismatch(body, [][]uint32{{0, 4}}); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		if _, err := cfg.Build(body, [][]uint32{{0, 4}}); err == nil {
			t.Errorf("%s: built", name)
		}
	}
}

// TestBuildAllocs: Build allocates a fixed set of tables, each sized once
// from the body, so a body eight times as long makes as many allocations.
func TestBuildAllocs(t *testing.T) {
	allocs := func(reps int) float64 {
		b := wasm.NewModule("a")
		f := b.Func("f", []wasm.ValueType{wasm.I32}, nil)
		x := f.Local(wasm.I32)
		for range reps {
			f.ForI32(x, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
				f.LocalGet(x)
				f.If(wasm.BlockEmpty, func() { f.Op(wasm.OpNop) }, func() { f.Op(wasm.OpNop) })
			})
			f.Block(wasm.BlockEmpty, func() { f.LocalGet(0).BrTable(0, 1) })
		}
		b.ExportFunc("f", f.End())
		fn := b.MustBuild().Funcs[0]
		return testing.AllocsPerRun(20, func() {
			if _, err := cfg.Build(fn.Body, fn.BrTables); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(4), allocs(32)
	t.Logf("%.0f allocations at both lengths", short)
	if short != long {
		t.Errorf("Build makes %.0f allocations on the short body, %.0f on the long one", short, long)
	}
}

// FuzzCFGBuild: on every function body a decoded module holds, Build and
// the reference agree (or refuse with the same error), and neither panics;
// on a module that validates, every body builds. Seeded with the
// differential test's modules.
func FuzzCFGBuild(f *testing.F) {
	for _, m := range referenceModules(f) {
		bin, err := binary.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := binary.Decode(data)
		if err != nil {
			return
		}
		valid := validate.Module(m) == nil
		for i := range m.Funcs {
			fn := &m.Funcs[i]
			if d := buildMismatch(fn.Body, fn.BrTables); d != "" {
				t.Fatalf("func %d: %s", i, d)
			}
			if _, err := cfg.Build(fn.Body, fn.BrTables); valid && err != nil {
				t.Fatalf("func %d of a valid module does not build: %v", i, err)
			}
		}
	})
}

func brTableModule() *wasm.Module {
	b := wasm.NewModule("")
	f := b.Func("", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.Block(wasm.BlockEmpty, func() {
		f.Block(wasm.BlockEmpty, func() {
			f.Block(wasm.BlockEmpty, func() {
				f.LocalGet(0).BrTable(0, 1, 2, 0, 1)
			})
			f.I32Const(10).Return()
		})
		f.Loop(wasm.BlockEmpty, func() {
			f.LocalGet(0).BrTable(1, 0)
		})
		f.I32Const(20).Return()
	})
	f.LocalGet(0)
	f.If(wasm.BlockEmpty, func() { f.Op(wasm.OpUnreachable) }, nil)
	f.I32Const(30)
	b.ExportFunc("run", f.End())
	return b.MustBuild()
}
