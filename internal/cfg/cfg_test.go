package cfg_test

import (
	"slices"
	"testing"

	"acctee/internal/cfg"
	"acctee/internal/wasm"
)

// diamondModule builds: if (p0) {x=1} else {x=2}; return x
func diamondModule() *wasm.Module {
	b := wasm.NewModule("d")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	x := f.Local(wasm.I32)
	f.LocalGet(0)
	f.If(wasm.BlockEmpty, func() {
		f.I32Const(1).LocalSet(x)
	}, func() {
		f.I32Const(2).LocalSet(x)
	})
	f.LocalGet(x)
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

func diamondBody() []wasm.Instr { return diamondModule().Funcs[0].Body }

// reachableWithout marks the blocks reachable from the entry along Succs
// when block skip is taken out of the graph (-1 takes out nothing). A
// reachable block b is dominated by a exactly when taking out a leaves b
// unreachable.
func reachableWithout(g *cfg.Graph, skip int) []bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(int)
	walk = func(b int) {
		if b == skip || seen[b] {
			return
		}
		seen[b] = true
		for _, s := range g.Blocks[b].Succs {
			if s != cfg.Exit {
				walk(s)
			}
		}
	}
	walk(0)
	return seen
}

func TestDiamondCFG(t *testing.T) {
	g, err := cfg.Build(diamondBody(), nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Expected blocks: entry(..if), then-arm(..else), else-arm(..end),
	// merge(..final end). The entry must have two successors.
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v, want 2", entry.Succs)
	}
	// The entry dominates everything reachable: every block is reachable,
	// is in the reverse postorder, and without the entry nothing is.
	reach, rpo := reachableWithout(g, -1), g.ReversePostorder()
	if len(rpo) != len(g.Blocks) {
		t.Errorf("rpo = %v, want all %d blocks", rpo, len(g.Blocks))
	}
	for _, b := range rpo {
		if !reach[b] {
			t.Errorf("block %d in rpo but unreachable", b)
		}
	}
	if slices.Contains(reachableWithout(g, 0), true) {
		t.Error("a block is reachable without the entry")
	}
	// The merge block joins both arms; the then-arm does not dominate it:
	// with the then-arm taken out, the merge is still reachable.
	thenBlk, elseBlk := entry.Succs[0], entry.Succs[1]
	merge := -1
	for _, b := range g.Blocks {
		if len(b.Preds) >= 2 {
			merge = b.ID
		}
	}
	if merge < 0 {
		t.Fatal("no merge block found")
	}
	if p := g.Blocks[merge].Preds; !slices.Equal(p, []int{thenBlk, elseBlk}) {
		t.Errorf("merge preds = %v, want [then %d, else %d]", p, thenBlk, elseBlk)
	}
	if !reachableWithout(g, thenBlk)[merge] {
		t.Errorf("then-arm %d should not dominate merge %d", thenBlk, merge)
	}
}

func TestLoopCFGHasBackEdge(t *testing.T) {
	b := wasm.NewModule("l")
	f := b.Func("f", []wasm.ValueType{wasm.I32}, nil)
	i := f.Local(wasm.I32)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.Op(wasm.OpNop)
	})
	b.ExportFunc("f", f.End())
	g, err := cfg.Build(b.MustBuild().Funcs[0].Body, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Some block must have a successor with a smaller start (back edge).
	back := false
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if s != cfg.Exit && g.Blocks[s].Start <= blk.Start {
				back = true
			}
		}
	}
	if !back {
		t.Error("no back edge found in loop CFG")
	}
	// Header block (the one targeted by the back edge) must have 2 preds.
	found := false
	for _, blk := range g.Blocks {
		if len(blk.Preds) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no block with two predecessors (loop header)")
	}
}

func TestStraightLineSingleBlock(t *testing.T) {
	b := wasm.NewModule("s")
	f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
	f.I32Const(1).I32Const(2).Op(wasm.OpI32Add)
	b.ExportFunc("f", f.End())
	g, err := cfg.Build(b.MustBuild().Funcs[0].Body, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(g.Blocks) != 1 {
		t.Errorf("blocks = %d, want 1", len(g.Blocks))
	}
	if len(g.Blocks[0].Succs) != 1 || g.Blocks[0].Succs[0] != cfg.Exit {
		t.Errorf("succs = %v, want [Exit]", g.Blocks[0].Succs)
	}
}

func TestUnreachableBlockDetected(t *testing.T) {
	b := wasm.NewModule("u")
	f := b.Func("f", nil, nil)
	f.Block(wasm.BlockEmpty, func() {
		f.Br(0)
		f.Op(wasm.OpNop) // dead
	})
	b.ExportFunc("f", f.End())
	g, err := cfg.Build(b.MustBuild().Funcs[0].Body, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// The dead nop's block has no predecessor, is not the entry, and is
	// neither in the reverse postorder nor reachable along Succs.
	reach, rpo := reachableWithout(g, -1), g.ReversePostorder()
	dead := 0
	for _, blk := range g.Blocks {
		if !reach[blk.ID] {
			dead++
			if blk.ID == 0 || len(blk.Preds) != 0 || slices.Contains(rpo, blk.ID) {
				t.Errorf("unreachable block %+v has preds or is in rpo %v", blk, rpo)
			}
		}
	}
	if dead == 0 || len(rpo) != len(g.Blocks)-dead {
		t.Errorf("%d unreachable blocks, rpo %v of %d blocks; want at least one", dead, rpo, len(g.Blocks))
	}
}

func TestReversePostorderStartsAtEntry(t *testing.T) {
	g, err := cfg.Build(diamondBody(), nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rpo := g.ReversePostorder()
	if len(rpo) == 0 || rpo[0] != 0 {
		t.Errorf("rpo = %v, want entry first", rpo)
	}
}
