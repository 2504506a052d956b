package bench

import (
	"fmt"
	"io"
	"time"

	"acctee/internal/interp"
	"acctee/internal/wasm"
)

// Call-heavy benchmark suite: the PolyBench kernels are loop-dominated and
// barely exercise the call path, so this file adds four workloads where
// call overhead is the workload — deep recursion, mutual recursion, an
// indirect-dispatch loop and a leaf-call-saturated kernel — and measures
// the inlining pass by comparing the register engine against a
// DisableInline compile of the same module. That ratio, over the workloads
// the inliner changes, feeds the call_geomean field of BENCH.json
// and the CI smoke gate.

// CallRow is one call-heavy workload's measurement. The two engine columns
// run the default (inlined) artifact; NoInlineRegNs runs the same module
// compiled with DisableInline on the register engine (the residual-call
// fast path and the call_indirect inline caches stay on), so InlineSpeedup
// isolates what the inlining pass buys.
type CallRow struct {
	Name         string `json:"name"`
	Instructions uint64 `json:"instructions"`
	StructuredNs int64  `json:"structured_ns"`
	RegNs        int64  `json:"reg_ns"`
	// InlinedSites is how many call sites the inliner spliced. At 0 both
	// artifacts are the same code and InlineSpeedup measures only noise.
	InlinedSites int `json:"inlined_sites"`
	// InlineSpeedup = NoInlineRegNs / RegNs.
	NoInlineRegNs int64   `json:"noinline_reg_ns"`
	InlineSpeedup float64 `json:"inline_speedup"`
}

// buildFib is the recursion stressor: naive fib, every call residual
// (self-recursive, so never inlined), exercising the defined-call fast
// path and frame-slab reuse across deep call trees.
func buildFib() (*wasm.Module, error) {
	b := wasm.NewModule("call-fib")
	f := b.Func("fib", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).I32Const(2).Op(wasm.OpI32LtU)
	f.If(wasm.BlockOf(wasm.I32), func() {
		f.LocalGet(0)
	}, func() {
		f.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(f.Index)
		f.LocalGet(0).I32Const(2).Op(wasm.OpI32Sub).Call(f.Index)
		f.Op(wasm.OpI32Add)
	})
	f.End()
	run := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	run.LocalGet(0).Call(f.Index)
	b.ExportFunc("run", run.End())
	return b.Build()
}

// buildMutual is the mutual-recursion stressor: even/odd bouncing between
// two functions, driven from a loop so the recursion depth stays bounded
// while the call volume stays high.
func buildMutual() (*wasm.Module, error) {
	b := wasm.NewModule("call-mutual")
	even := b.Func("even", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	odd := b.Func("odd", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	even.LocalGet(0).Op(wasm.OpI32Eqz)
	even.If(wasm.BlockOf(wasm.I32), func() {
		even.I32Const(1)
	}, func() {
		even.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(odd.Index)
	})
	even.End()
	odd.LocalGet(0).Op(wasm.OpI32Eqz)
	odd.If(wasm.BlockOf(wasm.I32), func() {
		odd.I32Const(0)
	}, func() {
		odd.LocalGet(0).I32Const(1).Op(wasm.OpI32Sub).Call(even.Index)
	})
	odd.End()
	run := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	k := run.Local(wasm.I32)
	acc := run.Local(wasm.I32)
	run.ForI32(k, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		run.LocalGet(acc)
		run.LocalGet(k).I32Const(63).Op(wasm.OpI32And).Call(even.Index)
		run.Op(wasm.OpI32Add).LocalSet(acc)
	})
	run.LocalGet(acc)
	b.ExportFunc("run", run.End())
	return b.Build()
}

// buildIndirect is the dispatch-loop stressor: a monomorphic-leaning
// call_indirect in a hot loop (same table slot for long runs, periodic
// retarget), exercising the per-site inline cache hit path and refills.
func buildIndirect() (*wasm.Module, error) {
	b := wasm.NewModule("call-indirect")
	add := b.Func("add", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	add.LocalGet(0).LocalGet(1).Op(wasm.OpI32Add)
	add.End()
	sub := b.Func("sub", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	sub.LocalGet(0).LocalGet(1).Op(wasm.OpI32Sub)
	sub.End()
	b.Table(add.Index, sub.Index)
	ti := b.TypeIndex([]wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	run := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	k := run.Local(wasm.I32)
	acc := run.Local(wasm.I32)
	run.ForI32(k, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		// elem = (k >> 10) & 1: 1024 consecutive hits per slot, then a miss.
		run.LocalGet(acc).LocalGet(k)
		run.LocalGet(k).I32Const(10).Op(wasm.OpI32ShrU).I32Const(1).Op(wasm.OpI32And)
		run.Emit(wasm.Instr{Op: wasm.OpCallIndirect, Idx: ti})
		run.LocalSet(acc)
	})
	run.LocalGet(acc)
	b.ExportFunc("run", run.End())
	return b.Build()
}

// buildLeaves is the many-small-leaf-functions kernel: every loop
// iteration crosses four tiny callees, the shape the inliner erases
// entirely (markers aside), leaving pure straight-line segments.
func buildLeaves() (*wasm.Module, error) {
	b := wasm.NewModule("call-leaves")
	inc := b.Func("inc", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	inc.LocalGet(0).I32Const(1).Op(wasm.OpI32Add)
	inc.End()
	dbl := b.Func("dbl", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	dbl.LocalGet(0).I32Const(1).Op(wasm.OpI32Shl)
	dbl.End()
	mix := b.Func("mix", []wasm.ValueType{wasm.I32, wasm.I32}, []wasm.ValueType{wasm.I32})
	mix.LocalGet(0).LocalGet(1).Op(wasm.OpI32Xor).I32Const(3).Op(wasm.OpI32Mul)
	mix.End()
	mask := b.Func("mask", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	mask.LocalGet(0).I32Const(0x7FFFFF).Op(wasm.OpI32And)
	mask.End()
	run := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	k := run.Local(wasm.I32)
	acc := run.Local(wasm.I32)
	run.ForI32(k, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		run.LocalGet(acc).Call(inc.Index).Call(dbl.Index)
		run.LocalGet(k).Call(mask.Index)
		run.Call(mix.Index).Call(mask.Index).LocalSet(acc)
	})
	run.LocalGet(acc)
	b.ExportFunc("run", run.End())
	return b.Build()
}

// callWorkloads, in report order.
var callWorkloads = []struct {
	name  string
	build func() (*wasm.Module, error)
	arg   uint64
}{
	{"fib-recursive", buildFib, 21},
	{"mutual-even-odd", buildMutual, 20_000},
	{"indirect-dispatch", buildIndirect, 400_000},
	{"leaf-kernel", buildLeaves, 200_000},
}

// RunCalls measures the call-heavy suite: both engines on the default
// (inlined) artifact, plus the register engine on a DisableInline compile
// of the same module (best of trials each).
func RunCalls(trials int) ([]CallRow, error) {
	rows := make([]CallRow, 0, len(callWorkloads))
	for _, w := range callWorkloads {
		m, err := w.build()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.name, err)
		}
		sNs, rNs, instr, cmOn, err := measureEngines(m, "run", trials, w.arg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.name, err)
		}
		cmOff, err := interp.Compile(m, interp.CompileOptions{DisableInline: true})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.name, err)
		}
		offNs, _, err := bestRun(cmOff, interp.Config{}, "run", trials, w.arg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.name, err)
		}
		rows = append(rows, CallRow{
			Name:          w.name,
			Instructions:  instr,
			StructuredNs:  sNs,
			RegNs:         rNs,
			InlinedSites:  cmOn.InlineStats.SitesInlined,
			NoInlineRegNs: offNs,
			InlineSpeedup: ratio(offNs, rNs),
		})
	}
	return rows, nil
}

// CallGeomean returns the geometric-mean inline speedup (register engine,
// inlined over DisableInline) across the call-heavy workloads in which the
// inliner spliced at least one site — the call_geomean field of
// BENCH.json. Recursive and indirect-only workloads have nothing to
// inline; their rows record the residual call path's absolute times.
func CallGeomean(rows []CallRow) float64 {
	var xs []float64
	for _, r := range rows {
		if r.InlinedSites > 0 {
			xs = append(xs, r.InlineSpeedup)
		}
	}
	return geomean(xs)
}

// CallSmokeFloor is the CI gate on the call-heavy suite: where the inliner
// fires, the register engine must hold at least this geomean speedup over
// the DisableInline baseline (about 1.5x on a quiet machine; the gate
// leaves headroom for shared CI runners).
const CallSmokeFloor = 1.15

// CheckCallGate fails when the call-suite geomean drops below floor.
func CheckCallGate(rows []CallRow, floor float64) error {
	g := CallGeomean(rows)
	if g < floor {
		return fmt.Errorf("bench gate: call suite inline geomean %.2fx below floor %.2fx", g, floor)
	}
	return nil
}

// PrintCalls renders the call-heavy suite as a table.
func PrintCalls(w io.Writer, rows []CallRow) {
	tw := newTab(w)
	fmt.Fprintln(tw, "workload\tinstr\tstructured\treg\tinlined sites\treg-noinline\tinline speedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%s\t%s\n",
			r.Name, r.Instructions,
			time.Duration(r.StructuredNs), time.Duration(r.RegNs), r.InlinedSites,
			time.Duration(r.NoInlineRegNs), fmtRatio(r.InlineSpeedup))
	}
	tw.Flush()
	if len(rows) > 0 {
		fmt.Fprintf(w, "call-suite inline geomean (reg, inlined over noinline, workloads with inlined sites): %s\n", fmtRatio(CallGeomean(rows)))
	}
}
