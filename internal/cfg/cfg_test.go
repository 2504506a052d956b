package cfg_test

import (
	"testing"

	"acctee/internal/cfg"
	"acctee/internal/wasm"
)

// diamondBody builds: if (p0) {x=1} else {x=2}; return x
func diamondBody() []wasm.Instr {
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
	return b.MustBuild().Funcs[0].Body
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
	idom := g.Dominators()
	// entry dominates everything reachable
	for _, b := range g.Blocks {
		if g.Reachable()[b.ID] && !cfg.Dominates(idom, 0, b.ID) {
			t.Errorf("entry does not dominate block %d", b.ID)
		}
	}
	// then-arm does not dominate the merge block
	thenBlk := entry.Succs[0]
	merge := -1
	for _, b := range g.Blocks {
		if len(b.Preds) >= 2 {
			merge = b.ID
		}
	}
	if merge < 0 {
		t.Fatal("no merge block found")
	}
	if cfg.Dominates(idom, thenBlk, merge) {
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
	reach := g.Reachable()
	dead := 0
	for id, r := range reach {
		if !r {
			dead++
			_ = id
		}
	}
	if dead == 0 {
		t.Error("expected at least one unreachable block")
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
