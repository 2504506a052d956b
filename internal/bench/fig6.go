package bench

import (
	"fmt"
	"io"
	"time"

	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/sgx"
)

// Fig6Row is one PolyBench kernel's runtimes across the paper's setups,
// normalised to native execution (Fig. 6; 1.0 == native).
type Fig6Row struct {
	Kernel       string  `json:"kernel"`
	WASM         float64 `json:"wasm"`
	WASMSGXSim   float64 `json:"wasm_sgx_sim"`
	WASMSGXHW    float64 `json:"wasm_sgx_hw"`
	Instrumented float64 `json:"wasm_sgx_hw_instrumented"`
	// EPCFaults is the hardware-mode page-fault count (explains blow-ups).
	EPCFaults uint64 `json:"epc_faults"`
	// SimCycles and HWCycles are the simulated enclave cycles of the SIM and
	// HW runs, which WASMSGXSim and WASMSGXHW add to wall time: modelled, so
	// no scheduler hiccup moves them, and paging only ever adds to them.
	SimCycles uint64 `json:"sim_cycles"`
	HWCycles  uint64 `json:"hw_cycles"`
}

// Fig6Result is Fig. 6 with the means §5.1 quotes.
type Fig6Result struct {
	Paper          string  `json:"paper"`
	MeanWASM       float64 `json:"mean_wasm"`
	MeanWASMSGXHW  float64 `json:"mean_wasm_sgx_hw"`
	MeanHWOverWASM float64 `json:"mean_hw_over_wasm"`
	// InstrOverHWPct is the mean of instrumented/HW per kernel, each the
	// median over back-to-back pairs, as a percentage over HW.
	InstrOverHWPct float64   `json:"instr_over_hw_pct"`
	Rows           []Fig6Row `json:"rows"`
}

// RunFig6 reproduces Fig. 6: the 29 PolyBench kernels under WASM,
// WASM-SGX SIM, WASM-SGX HW and WASM-SGX HW + loop-based instrumentation,
// normalised to native runtime. kernels limits the set (nil = all);
// trials >= 1 selects best-of-n timing for the first four setups, and
// 8 x trials back-to-back pairs for the instrumented one, which is HW times
// the paired quotient (pairedOverhead).
func RunFig6(kernels []string, trials int) (*Fig6Result, error) {
	if kernels == nil {
		kernels = polybench.Names()
	}
	if trials < 1 {
		trials = 1
	}
	fig := &Fig6Result{Paper: "WASM 1.1x native, WASM-SGX HW 2.1x native (~1.9x WASM), instrumentation +4% avg / +9% worst case"}
	for _, name := range kernels {
		k, err := polybench.Get(name)
		if err != nil {
			return nil, err
		}
		n := k.DefaultN
		m, err := k.Build(n)
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", name, err)
		}
		inst, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", name, err)
		}

		// native baseline
		nativeD, _, err := bestOf(trials, func() (time.Duration, uint64, error) {
			start := time.Now()
			_ = k.Native(n)
			return time.Since(start), 0, nil
		})
		if err != nil {
			return nil, err
		}

		// WASM (no SGX)
		wasmD, _, err := bestOf(trials, func() (time.Duration, uint64, error) {
			d, _, err := timeWasm(m, interp.Config{}, "run")
			return d, 0, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s wasm: %w", name, err)
		}

		// WASM-SGX SIM: simulation mode charges nothing — like SGX-LKL in
		// simulation, the binary runs the identical code path with no
		// hardware costs (paper §5.1: "SGX and SGX-LKL do not add overhead
		// by themselves").
		simD, simC, err := bestOf(trials, func() (time.Duration, uint64, error) {
			d, vm, err := timeWasm(m, interp.Config{}, "run")
			if err != nil {
				return 0, 0, err
			}
			return d, vm.Cost(), nil
		})
		if err != nil {
			return nil, err
		}

		// WASM-SGX HW: EPC paging charges apply.
		var faults uint64
		hwD, hwC, err := bestOf(trials, func() (time.Duration, uint64, error) {
			model := sgx.NewEPCModel(sgx.ModeHardware, hwParams(), nil)
			d, vm, err := timeWasm(m, interp.Config{CostModel: model}, "run")
			if err != nil {
				return 0, 0, err
			}
			faults = model.PageFaults()
			return d, vm.Cost(), nil
		})
		if err != nil {
			return nil, err
		}

		// WASM-SGX HW + instrumentation (loop-based): its quotient over HW
		// is the median over back-to-back pairs of HW runs, plain and
		// instrumented, which best-of-n per side cannot resolve on a
		// shared host.
		inst6, err := pairedOverhead(m, inst.Module, 8*trials, func() interp.CostModel {
			return sgx.NewEPCModel(sgx.ModeHardware, hwParams(), nil)
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s instrumented: %w", name, err)
		}

		nat := float64(nativeD.Nanoseconds())
		if nat <= 0 {
			nat = 1
		}
		hw := effectiveNs(hwD, hwC) / nat
		fig.Rows = append(fig.Rows, Fig6Row{
			Kernel:       name,
			WASM:         float64(wasmD.Nanoseconds()) / nat,
			WASMSGXSim:   effectiveNs(simD, simC) / nat,
			WASMSGXHW:    hw,
			Instrumented: hw * inst6.Overhead,
			EPCFaults:    faults,
			SimCycles:    simC,
			HWCycles:     hwC,
		})
	}
	for _, r := range fig.Rows {
		fig.MeanWASM += r.WASM
		fig.MeanWASMSGXHW += r.WASMSGXHW
		if r.WASM > 0 {
			fig.MeanHWOverWASM += r.WASMSGXHW / r.WASM
		}
		if r.WASMSGXHW > 0 {
			fig.InstrOverHWPct += r.Instrumented / r.WASMSGXHW
		}
	}
	if n := float64(len(fig.Rows)); n > 0 {
		fig.MeanWASM /= n
		fig.MeanWASMSGXHW /= n
		fig.MeanHWOverWASM /= n
		fig.InstrOverHWPct = (fig.InstrOverHWPct/n - 1) * 100
	}
	return fig, nil
}

// PrintFig6 renders the rows in the figure's layout plus the summary
// statistics quoted in §5.1.
func PrintFig6(w io.Writer, fig *Fig6Result) {
	tw := newTab(w)
	fmt.Fprintln(tw, "kernel\tWASM\tWASM-SGX SIM\tWASM-SGX HW\tHW instrumented\tEPC faults")
	for _, r := range fig.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\n",
			r.Kernel, fmtRatio(r.WASM), fmtRatio(r.WASMSGXSim),
			fmtRatio(r.WASMSGXHW), fmtRatio(r.Instrumented), r.EPCFaults)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "mean: WASM %.2fx native; WASM-SGX HW %.2fx native (%.2fx WASM); instrumentation %+.1f%% over HW\n",
		fig.MeanWASM, fig.MeanWASMSGXHW, fig.MeanHWOverWASM, fig.InstrOverHWPct)
	fmt.Fprintf(w, "paper: %s\n", fig.Paper)
	fmt.Fprintf(w, "note: the absolute WASM/native ratio reflects interpreter-vs-JIT speed; the reproduced shape is the per-setup comparison (README, \"Paper versus measured\")\n")
}
