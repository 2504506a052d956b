package interp

import (
	"testing"

	"acctee/internal/wasm"
)

// White-box invariants for the inlining pass and finalizeCalls: the spliced
// flat IR must keep the structural properties the engines rely on — segments
// tile the body, markers and inline-ends are segment-final, call flags are
// mutually exclusive and total, inline-cache site ids are dense — and
// InlineStats must agree with the artifacts.

// wbModule builds a caller with two inlinable leaves (one call inside a
// loop), a residual looping callee, an indirect dispatch site and a host
// import, so every flag kind appears in the compiled artifact.
func wbModule() *wasm.Module {
	b := wasm.NewModule("wb")
	b.ImportFunc("env", "sink", []wasm.ValueType{wasm.I32}, nil)
	leaf := b.Func("leaf", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	leaf.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	leafIdx := leaf.End()
	big := b.Func("big", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := big.Local(wasm.I32)
	acc := big.Local(wasm.I32)
	big.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		big.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Add).LocalSet(acc)
	})
	big.LocalGet(acc)
	bigIdx := big.End()
	b.Table(leafIdx, bigIdx)
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	j := f.Local(wasm.I32)
	s := f.Local(wasm.I32)
	f.ForI32(j, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(s).Call(leafIdx).LocalSet(s)
	})
	f.LocalGet(s).Call(bigIdx).LocalSet(s)
	f.LocalGet(s).Call(0) // host import
	ti := b.TypeIndex([]wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(s).I32Const(0)
	f.Emit(wasm.Instr{Op: wasm.OpCallIndirect, Idx: ti})
	b.ExportFunc("f", f.End())
	return b.MustBuild()
}

func TestInlineArtifactInvariants(t *testing.T) {
	cm, err := Compile(wbModule(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if cm.InlineStats.SitesInlined == 0 {
		t.Fatal("no sites inlined")
	}
	if cm.InlineStats.SitesInlined > cm.InlineStats.SitesConsidered {
		t.Errorf("SitesInlined %d > SitesConsidered %d",
			cm.InlineStats.SitesInlined, cm.InlineStats.SitesConsidered)
	}

	markers, ends, grown := 0, 0, 0
	icSites := map[int32]bool{}
	for fi := range cm.funcs {
		cf := &cm.funcs[fi]
		grown += len(cf.body) - len(cf.sbody)

		// Segments tile the body: each leader's segment ends exactly where
		// the next begins, and the counts sum to the body length.
		sum := 0
		pc := 0
		for pc < len(cf.body) {
			fl := &cf.flat[pc]
			if fl.segCnt == 0 {
				t.Fatalf("func %d: pc %d expected a segment leader", fi, pc)
			}
			if int(fl.segEnd) != pc+int(fl.segCnt)-1 {
				t.Errorf("func %d: leader %d segEnd %d != leader+cnt-1 %d",
					fi, pc, fl.segEnd, pc+int(fl.segCnt)-1)
			}
			sum += int(fl.segCnt)
			pc = int(fl.segEnd) + 1
		}
		if sum != len(cf.body) {
			t.Errorf("func %d: segment counts sum %d != body len %d", fi, sum, len(cf.body))
		}

		for pc := range cf.body {
			fl := &cf.flat[pc]
			op := cf.body[pc].Op
			if fl.flags&fInlEnter != 0 {
				markers++
				if op != wasm.OpCall {
					t.Errorf("func %d pc %d: fInlEnter on %v", fi, pc, op)
				}
				if fl.flags&fCallDef != 0 {
					t.Errorf("func %d pc %d: marker also flagged as residual call", fi, pc)
				}
				if int(fl.segEnd) != pc {
					t.Errorf("func %d pc %d: marker not segment-final", fi, pc)
				}
			}
			if fl.flags&fInlEnd != 0 {
				ends++
				if op != wasm.OpEnd {
					t.Errorf("func %d pc %d: fInlEnd on %v", fi, pc, op)
				}
				if int(fl.segEnd) != pc {
					t.Errorf("func %d pc %d: inline end not segment-final", fi, pc)
				}
			}
			if op == wasm.OpCall && fl.flags&fInlEnter == 0 && !cf.preDead[pc] {
				// Defined callees carry fCallDef and their defined-function
				// index; host imports carry no flag and their import index.
				want, wantDef := int(cf.body[pc].Idx), false
				if nimp := len(cm.importKeys); want >= nimp {
					want, wantDef = want-nimp, true
				}
				if (fl.flags&fCallDef != 0) != wantDef || int(fl.target) != want {
					t.Errorf("func %d pc %d: call descriptor (def=%v, target %d), want (def=%v, target %d)",
						fi, pc, fl.flags&fCallDef != 0, fl.target, wantDef, want)
				}
			}
			if op == wasm.OpCallIndirect && !cf.preDead[pc] {
				if icSites[fl.target] {
					t.Errorf("func %d pc %d: duplicate cache site id %d", fi, pc, fl.target)
				}
				icSites[fl.target] = true
			}
		}
	}
	if markers != ends {
		t.Errorf("fInlEnter count %d != fInlEnd count %d", markers, ends)
	}
	if markers != cm.InlineStats.SitesInlined {
		t.Errorf("markers %d != InlineStats.SitesInlined %d", markers, cm.InlineStats.SitesInlined)
	}
	if grown != cm.InlineStats.GrownInstrs {
		t.Errorf("body growth %d != InlineStats.GrownInstrs %d", grown, cm.InlineStats.GrownInstrs)
	}
	for id := int32(0); int(id) < cm.numICSites; id++ {
		if !icSites[id] {
			t.Errorf("cache site id %d unassigned (numICSites = %d)", id, cm.numICSites)
		}
	}
	if len(icSites) != cm.numICSites {
		t.Errorf("%d live cache sites, numICSites = %d", len(icSites), cm.numICSites)
	}
}

func TestInlineOversizedCalleeSkipped(t *testing.T) {
	b := wasm.NewModule("wbbig")
	big := b.Func("big", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	big.LocalGet(0)
	for k := 0; k < inlineMaxBody; k++ { // straight-line but over the cap
		big.I32Const(1).Op(wasm.OpI32Add)
	}
	bigIdx := big.End()
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).Call(bigIdx)
	b.ExportFunc("f", f.End())
	cm, err := Compile(b.MustBuild(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cm.InlineStats.SitesInlined != 0 {
		t.Errorf("oversized callee inlined (%d sites)", cm.InlineStats.SitesInlined)
	}
	if cm.InlineStats.SitesConsidered == 0 {
		t.Error("call site never considered")
	}
}

func TestDisableInlineLeavesNoMarkers(t *testing.T) {
	cm, err := Compile(wbModule(), CompileOptions{DisableInline: true})
	if err != nil {
		t.Fatal(err)
	}
	if cm.InlineStats != (InlineStats{}) {
		t.Errorf("InlineStats = %+v, want zero", cm.InlineStats)
	}
	for fi := range cm.funcs {
		cf := &cm.funcs[fi]
		if len(cf.body) != len(cf.sbody) {
			t.Errorf("func %d: body grew with inlining disabled", fi)
		}
		for pc := range cf.body {
			if cf.flat[pc].flags&(fInlEnter|fInlEnd) != 0 {
				t.Errorf("func %d pc %d: inline flag with inlining disabled", fi, pc)
			}
		}
	}
}
