package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/workloads"
)

// MicroRow is one microbenchmark's measurement. The ALU row isolates raw
// dispatch on a tight arithmetic loop; the memory-traffic row isolates the
// effective-address fast paths on a load/store-dominated kernel.
type MicroRow struct {
	Name         string  `json:"name"`
	Instructions uint64  `json:"instructions"`
	StructuredNs int64   `json:"structured_ns"`
	RegNs        int64   `json:"reg_ns"`
	RegSpeedup   float64 `json:"reg_speedup"`
}

// InstrumentedRow is the price of the injected counter on the register
// engine: the gateway's resize function (128x128 in, the gw-resize request)
// with the paper's naive placement — one `counter += k` per basic block, so
// every loop header and every branch carries one — against the same module
// plain, both compiled and run in this process.
type InstrumentedRow struct {
	Name           string `json:"name"`
	Instructions   uint64 `json:"instructions"`
	PlainNs        int64  `json:"plain_ns"`
	InstrumentedNs int64  `json:"instrumented_ns"`
	// Overhead is instrumented/plain: the median over back-to-back pairs
	// of runs, not the quotient of the two best times above.
	Overhead float64 `json:"overhead"`
}

// bestRun instantiates the artifact under cfg once per trial (at least
// once), runs the export, and returns the best wall time plus the
// instruction count.
func bestRun(cm *interp.CompiledModule, cfg interp.Config, export string, trials int, args ...uint64) (best int64, instr uint64, err error) {
	for t := 0; t < max(trials, 1); t++ {
		vm, err := cm.Instantiate(cfg)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, err := vm.InvokeExport(export, args...); err != nil {
			return 0, 0, err
		}
		d := time.Since(start).Nanoseconds()
		if t == 0 || d < best {
			best = d
		}
		instr = vm.InstrCount()
	}
	return best, instr, nil
}

// measureEngines compiles m once and runs the export on the shared
// artifact under the structured reference engine and the register engine.
// It returns the best wall time of each, the instruction count (identical
// on both by construction) and the artifact.
func measureEngines(m *wasm.Module, export string, trials int, args ...uint64) (structuredNs, regNs int64, instr uint64, cm *interp.CompiledModule, err error) {
	cm, err = interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	structuredNs, _, err = bestRun(cm, interp.Config{Engine: interp.EngineStructured}, export, trials, args...)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	regNs, instr, err = bestRun(cm, interp.Config{}, export, trials, args...)
	return structuredNs, regNs, instr, cm, err
}

// ratio returns num/den, or 0 when den is not positive.
func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// geomean returns the geometric mean of xs (0 when empty or when any x is
// not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// MicroGeomean returns the geometric mean of the register-over-structured
// speedups across the microbenchmarks (the CI smoke gate's quantity).
func MicroGeomean(rows []MicroRow) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.RegSpeedup
	}
	return geomean(xs)
}

// buildALUMicro is the dispatch microbenchmark: a tight arithmetic loop
// with no memory traffic, so the measurement isolates dispatch and ALU
// statement compilation.
func buildALUMicro() (*wasm.Module, error) {
	b := wasm.NewModule("alu-micro")
	f := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Xor).LocalSet(acc)
		f.LocalGet(acc).I32Const(3).Op(wasm.OpI32Mul).LocalSet(acc)
		f.LocalGet(acc).I32Const(0x7FFFFF).Op(wasm.OpI32And).LocalSet(acc)
	})
	f.LocalGet(acc)
	b.ExportFunc("run", f.End())
	return b.Build()
}

// buildMemMicro is the memory-traffic microbenchmark: a load/store-
// dominated stream kernel (b[i] = a[i]*s + b[i] over f64 arrays, plus a
// byte-wide histogram touch), so the effective-address fast paths and the
// word-at-a-time access dominate the measurement, separately from the ALU
// row.
func buildMemMicro() (*wasm.Module, error) {
	const elems = 1024
	const baseA, baseB = 64, 64 + elems*8
	b := wasm.NewModule("mem-micro")
	b.Memory(1, 1)
	f := b.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.F64})
	rep := f.Local(wasm.I32)
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.F64)
	f.ForI32(rep, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.ConstI32(elems)}, 1, func() {
			// b[i] = a[i]*1.0009765625 + b[i]
			f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul)
			f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul).Load(wasm.OpF64Load, baseA)
			f.F64ConstV(1.0009765625).Op(wasm.OpF64Mul)
			f.LocalGet(i).I32Const(8).Op(wasm.OpI32Mul).Load(wasm.OpF64Load, baseB)
			f.Op(wasm.OpF64Add).Store(wasm.OpF64Store, baseB)
			// histogram touch: h[i&255]++ (byte loads/stores past the arrays)
			const baseH = baseB + elems*8
			f.LocalGet(i).I32Const(255).Op(wasm.OpI32And)
			f.LocalGet(i).I32Const(255).Op(wasm.OpI32And).Load(wasm.OpI32Load8U, baseH)
			f.I32Const(1).Op(wasm.OpI32Add).Store(wasm.OpI32Store8, baseH)
		})
		// acc += b[rep & 1023]
		f.LocalGet(acc)
		f.LocalGet(rep).I32Const(1023).Op(wasm.OpI32And).I32Const(8).Op(wasm.OpI32Mul).Load(wasm.OpF64Load, baseB)
		f.Op(wasm.OpF64Add).LocalSet(acc)
	})
	f.LocalGet(acc)
	b.ExportFunc("run", f.End())
	return b.Build()
}

// RunMicro measures the ALU-dispatch and memory-traffic microbenchmarks
// under both engines (best of trials).
func RunMicro(trials int) ([]MicroRow, error) {
	micro := []struct {
		name  string
		build func() (*wasm.Module, error)
		arg   uint64
	}{
		{"alu-dispatch", buildALUMicro, 60_000},
		{"mem-traffic", buildMemMicro, 60},
	}
	rows := make([]MicroRow, 0, len(micro))
	for _, mb := range micro {
		m, err := mb.build()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", mb.name, err)
		}
		sNs, rNs, instr, _, err := measureEngines(m, "run", trials, mb.arg)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", mb.name, err)
		}
		rows = append(rows, MicroRow{
			Name:         mb.name,
			Instructions: instr,
			StructuredNs: sNs,
			RegNs:        rNs,
			RegSpeedup:   ratio(sNs, rNs),
		})
	}
	return rows, nil
}

// pairedOverhead runs plain and counted on the register engine in `pairs`
// back-to-back pairs, each module compiled once and instantiated per run. A
// shared host runs whole stretches of tens of milliseconds at two thirds of
// its speed, so neither best-of nor mean times give a stable quotient;
// Overhead is the median over the pairs of counted/plain, whose two runs
// share their stretch. The times reported are each side's best. newModel,
// when non-nil, gives every run a fresh cost model, and a run's time is
// then its effective time: wall time plus the simulated cycles it charged.
func pairedOverhead(plain, counted *wasm.Module, pairs int, newModel func() interp.CostModel, args ...uint64) (row InstrumentedRow, err error) {
	pcm, err := interp.Compile(plain, interp.CompileOptions{})
	if err != nil {
		return row, err
	}
	ccm, err := interp.Compile(counted, interp.CompileOptions{})
	if err != nil {
		return row, err
	}
	run := func(cm *interp.CompiledModule) (int64, uint64, error) {
		var cfg interp.Config
		if newModel != nil {
			cfg.CostModel = newModel()
		}
		vm, err := cm.Instantiate(cfg)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, err := vm.InvokeExport("run", args...); err != nil {
			return 0, 0, err
		}
		return int64(effectiveNs(time.Since(start), vm.Cost())), vm.InstrCount(), nil
	}
	ratios := make([]float64, pairs)
	for t := range ratios {
		p, instr, err := run(pcm)
		if err != nil {
			return row, err
		}
		c, _, err := run(ccm)
		if err != nil {
			return row, err
		}
		if t == 0 || p < row.PlainNs {
			row.PlainNs = p
		}
		if t == 0 || c < row.InstrumentedNs {
			row.InstrumentedNs = c
		}
		row.Instructions = instr
		ratios[t] = ratio(c, p)
	}
	sort.Float64s(ratios)
	row.Overhead = ratios[len(ratios)/2]
	return row, nil
}

// RunInstrumented measures the resize function plain and instrumented
// (naive) over 8 x trials pairs of runs (~5 ms each). The input image stays
// zeroed: resize's control flow does not depend on pixel values.
func RunInstrumented(trials int) (InstrumentedRow, error) {
	m, err := workloads.BuildResize()
	if err != nil {
		return InstrumentedRow{}, err
	}
	inst, err := instrument.Instrument(m, instrument.Options{Level: instrument.Naive})
	if err != nil {
		return InstrumentedRow{}, err
	}
	row, err := pairedOverhead(m, inst.Module, 8*max(trials, 1), nil, 128, 128)
	row.Name = "resize-128/naive"
	return row, err
}

// MicroSmokeFloor is the CI gate on the microbenchmarks: the register
// engine must hold at least this geomean speedup over the structured
// reference. The committed BENCH.json rows sit well above 4x; the
// floor leaves headroom for shared CI runners while still catching the
// default engine losing its lead.
const MicroSmokeFloor = 3.0

// InstrumentedSmokeCeiling is the CI gate on the instrumented-resize row:
// 15% above the measured ratio (median 1.38 of seven runs on the shared
// reference host, which read 1.25 to 1.42). The register lowering carries the
// injected `counter += k` inside the statement it lands in, so a loop header
// stays one compare-and-branch closure. When it does not, the same row reads
// 1.84 to 1.94, above this ceiling; regalloc's white-box tests pin the fusion
// itself, this gate its price.
const InstrumentedSmokeCeiling = 1.59

// CheckMicroGate fails when the microbenchmark geomean drops below floor or
// the instrumented-over-plain resize ratio rises above ceiling.
func CheckMicroGate(rows []MicroRow, floor float64, inst InstrumentedRow, ceiling float64) error {
	if g := MicroGeomean(rows); g < floor {
		return fmt.Errorf("bench gate: reg over structured micro geomean %.2fx below floor %.2fx", g, floor)
	}
	if inst.Overhead > ceiling {
		return fmt.Errorf("bench gate: instrumented over plain %s %.2fx above ceiling %.2fx", inst.Name, inst.Overhead, ceiling)
	}
	return nil
}

// PrintInstrumented renders the instrumented-over-plain row.
func PrintInstrumented(w io.Writer, r InstrumentedRow) {
	fmt.Fprintf(w, "%s on reg: plain %s, instrumented %s, instrumented/plain %s\n",
		r.Name, time.Duration(r.PlainNs), time.Duration(r.InstrumentedNs), fmtRatio(r.Overhead))
}

// PrintMicro renders the two-engine microbenchmark comparison as a table.
func PrintMicro(w io.Writer, micro []MicroRow) {
	tw := newTab(w)
	fmt.Fprintln(tw, "microbenchmark\tinstr\tstructured\treg\treg/structured")
	for _, r := range micro {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\n",
			r.Name, r.Instructions,
			time.Duration(r.StructuredNs), time.Duration(r.RegNs), fmtRatio(r.RegSpeedup))
	}
	tw.Flush()
	fmt.Fprintf(w, "reg geomean over structured (micro): %s\n", fmtRatio(MicroGeomean(micro)))
}
