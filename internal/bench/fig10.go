package bench

import (
	"fmt"
	"io"

	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	"acctee/internal/workloads"
)

// Fig10Workload identifies one volunteer-computing / pay-by-computation
// program from Fig. 10.
type Fig10Workload struct {
	Name  string
	Build func() (*wasm.Module, error)
	Args  []uint64
}

// Fig10Workloads returns the four Fig. 10 programs with harness-scale
// parameters.
func Fig10Workloads() []Fig10Workload {
	return []Fig10Workload{
		{Name: "MSieve", Build: workloads.BuildMSieve, Args: []uint64{1_000_003, 40}},
		{Name: "PC", Build: func() (*wasm.Module, error) { return workloads.BuildPC(24, 60) }},
		{Name: "SubsetSum", Build: workloads.BuildSubsetSum, Args: []uint64{60, 60_000}},
		{Name: "Darknet", Build: func() (*wasm.Module, error) { return workloads.BuildDarknet(24, 6) }},
	}
}

// Fig10Levels is one quantity at the three instrumentation levels,
// normalised to no instrumentation on the same platform.
type Fig10Levels struct {
	Naive float64 `json:"naive"`
	Flow  float64 `json:"flow"`
	Loop  float64 `json:"loop"`
}

// Fig10Row is one workload's normalised runtimes per instrumentation level
// and platform (Fig. 10).
type Fig10Row struct {
	Workload string `json:"workload"`
	// WASMWallClock is measured on plain WASM: the median over back-to-back
	// pairs of instrumented/plain runs on the register engine
	// (pairedOverhead, the measurement `make bench-smoke` gates resize on).
	WASMWallClock Fig10Levels `json:"wasm_wall_clock"`
	// WASMInstrCount is the ratio of dynamic instruction counts, which
	// prices the injected global.get; i64.const; i64.add; global.set as
	// four ordinary instructions: deterministic, and what an engine that
	// does not fuse the update pays.
	WASMInstrCount Fig10Levels `json:"wasm_instr_count"`
	// SGXModelled is WASM-SGX hardware mode: instruction counts at the
	// plain module's calibrated ns/instruction plus simulated enclave
	// cycles, which have no wall clock.
	SGXModelled Fig10Levels `json:"sgx_modelled"`
}

// Fig10Result is the instrumentation-optimisation comparison (Fig. 10).
type Fig10Result struct {
	Paper string     `json:"paper"`
	Rows  []Fig10Row `json:"rows"`
}

// RunFig10 reproduces the instrumentation-optimisation comparison over
// 8 x trials pairs per workload and level.
func RunFig10(trials int) (*Fig10Result, error) {
	fig := &Fig10Result{Paper: "naive worst (Darknet +34%), loop-based best (-7%..+10%; Darknet +3-4%)"}
	for _, wl := range Fig10Workloads() {
		m, err := wl.Build()
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", wl.Name, err)
		}
		var variants [3]*wasm.Module
		for i, lvl := range []instrument.Level{instrument.Naive, instrument.FlowBased, instrument.LoopBased} {
			res, err := instrument.Instrument(m, instrument.Options{Level: lvl})
			if err != nil {
				return nil, fmt.Errorf("fig10 %s %v: %w", wl.Name, lvl, err)
			}
			variants[i] = res.Module
		}
		perLevel := func(f func(*wasm.Module) (float64, error)) (l Fig10Levels, err error) {
			for i, dst := range []*float64{&l.Naive, &l.Flow, &l.Loop} {
				if *dst, err = f(variants[i]); err != nil {
					return l, fmt.Errorf("fig10 %s: %w", wl.Name, err)
				}
			}
			return l, nil
		}
		row := Fig10Row{Workload: wl.Name}
		// The plain module's ns/instruction (best run of the last pairing)
		// prices instructions in the modelled columns below.
		var nsPerInstr float64
		row.WASMWallClock, err = perLevel(func(v *wasm.Module) (float64, error) {
			r, err := pairedOverhead(m, v, 8*max(trials, 1), wl.Args...)
			nsPerInstr = float64(r.PlainNs) / float64(max(r.Instructions, 1))
			return r.Overhead, err
		})
		if err != nil {
			return nil, err
		}
		modelled := func(mod *wasm.Module, hw bool) (float64, error) {
			var cfg interp.Config
			if hw {
				cfg.CostModel = sgx.NewEPCModel(sgx.ModeHardware, hwParams(), nil)
			}
			vm, err := interp.Instantiate(mod, cfg)
			if err != nil {
				return 0, err
			}
			if _, err := vm.InvokeExport("run", wl.Args...); err != nil {
				return 0, err
			}
			return float64(vm.InstrCount())*nsPerInstr + float64(vm.Cost())/CyclesPerNs, nil
		}
		for _, c := range []struct {
			hw  bool
			dst *Fig10Levels
		}{{false, &row.WASMInstrCount}, {true, &row.SGXModelled}} {
			base, err := modelled(m, c.hw)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s base: %w", wl.Name, err)
			}
			*c.dst, err = perLevel(func(v *wasm.Module) (float64, error) {
				t, err := modelled(v, c.hw)
				return t / base, err
			})
			if err != nil {
				return nil, err
			}
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// PrintFig10 renders the normalised-overhead table.
func PrintFig10(w io.Writer, fig *Fig10Result) {
	tw := newTab(w)
	fmt.Fprintln(tw, "workload\twall naive\twall flow\twall loop\tinstr naive\tinstr flow\tinstr loop\tSGX naive\tSGX flow\tSGX loop")
	for _, r := range fig.Rows {
		fmt.Fprintf(tw, "%s", r.Workload)
		for _, l := range []Fig10Levels{r.WASMWallClock, r.WASMInstrCount, r.SGXModelled} {
			fmt.Fprintf(tw, "\t%s\t%s\t%s", fmtRatio(l.Naive), fmtRatio(l.Flow), fmtRatio(l.Loop))
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
	fmt.Fprintln(w, "(wall: plain WASM, median of back-to-back instrumented/plain pairs; instr: dynamic instruction-count ratio; SGX: modelled, hardware mode)")
	fmt.Fprintf(w, "paper: %s\n", fig.Paper)
}
