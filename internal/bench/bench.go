// Package bench is AccTEE's evaluation harness: one runner per figure and
// table of the paper's §5, each reproducing the corresponding experiment on
// this repository's substrates and printing rows in the paper's format,
// plus the rows `make bench-smoke` gates on. One run writes one Manifest
// (BENCH.json); README's "Paper versus measured" reads it against the paper.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
)

// Fig6EPCBytes is the scaled-down usable EPC for the sandboxing-overhead
// experiment. The paper's kernels use up to hundreds of MB against a 93 MB
// EPC; our interpreter-scale datasets use tens of KB, so the EPC is scaled
// by the same ratio to preserve the working-set/EPC crossover.
const Fig6EPCBytes = 8 << 10

// Fig6FaultCycles is the per-fault charge used by the harness. Real EPC
// paging costs tens of thousands of cycles against JIT-compiled code; this
// interpreter executes the same instructions ~100x slower, so the fault
// charge is scaled down by the same factor to preserve the paper's
// fault-cost-to-compute ratio (HW worst case ≈ +244% over native-relative
// WASM, not orders of magnitude).
const Fig6FaultCycles = 300

// effectiveNs returns wall time plus the simulated-cycle charge.
func effectiveNs(wall time.Duration, cycles uint64) float64 {
	return float64(wall.Nanoseconds()) + float64(cycles)/sgx.CyclesPerNs
}

// timeWasm instantiates and runs an export once, returning wall time and
// the VM for post-inspection.
func timeWasm(m *wasm.Module, cfg interp.Config, export string, args ...uint64) (time.Duration, *interp.VM, error) {
	vm, err := interp.Instantiate(m, cfg)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if _, err := vm.InvokeExport(export, args...); err != nil {
		return 0, nil, err
	}
	return time.Since(start), vm, nil
}

// bestOf runs f `trials` times and returns the smallest duration/cycles
// pair (minimum sheds scheduler noise on a busy host).
func bestOf(trials int, f func() (time.Duration, uint64, error)) (time.Duration, uint64, error) {
	var bd time.Duration
	var bc uint64
	for i := 0; i < trials; i++ {
		d, c, err := f()
		if err != nil {
			return 0, 0, err
		}
		if i == 0 || d < bd {
			bd, bc = d, c
		}
	}
	return bd, bc, nil
}

// hwParams returns the Fig. 6 hardware-mode cost parameters.
func hwParams() sgx.CostParams {
	p := sgx.DefaultCostParams()
	p.UsableEPCBytes = Fig6EPCBytes
	p.PageFaultCycles = Fig6FaultCycles
	return p
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func fmtRatio(v float64) string { return fmt.Sprintf("%.2fx", v) }
