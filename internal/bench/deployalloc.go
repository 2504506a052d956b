package bench

import (
	"fmt"
	"io"
	"runtime"

	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/sgx"
)

// DeployAllocRow is what the deployment front end allocates: the footprint
// set taken through InstrumentationEnclave.Instrument (validate, instrument,
// both module hashes, the signature) and NewAccountingEnclave (evidence
// check, compile, ledger), in bytes allocated per loop-instrumented
// instruction — the least of three passes, so a stray allocation elsewhere
// in the process cannot raise it. Unlike the compiled row it counts what
// the deployment throws away as well as what it keeps.
type DeployAllocRow struct {
	Modules       int     `json:"modules"`
	Instructions  int     `json:"instructions"`
	BytesPerInstr float64 `json:"bytes_per_instr"`
}

// DeployAllocSmokeCeiling is the CI gate on the deploy-alloc row, in bytes
// allocated per instrumented instruction: 1.25 times the 258.0 measured
// (302.3 before the lowering read its block structure from the CFG and
// moved br_table edges out of the per-pc row, 346.6 before the dense CFG
// and the streamed module hash).
const DeployAllocSmokeCeiling = 322

// RunDeployAlloc measures the deploy-alloc row.
func RunDeployAlloc() (DeployAllocRow, error) {
	set, err := FootprintSet()
	if err != nil {
		return DeployAllocRow{}, err
	}
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		return DeployAllocRow{}, err
	}
	row := DeployAllocRow{Modules: len(set)}
	least := uint64(0)
	for pass := range 3 {
		var before, after runtime.MemStats
		n := 0
		runtime.ReadMemStats(&before)
		for _, p := range set {
			inst, ev, err := ie.Instrument(p.Module)
			if err != nil {
				return row, fmt.Errorf("%s: %w", p.Name, err)
			}
			ae, err := core.NewAccountingEnclave(sgx.ModeHardware, sgx.DefaultCostParams(), nil, inst, ev, ie.PublicKey())
			if err != nil {
				return row, fmt.Errorf("%s: %w", p.Name, err)
			}
			ae.Close()
			for _, f := range inst.Funcs {
				n += len(f.Body)
			}
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; pass == 0 || b < least {
			least = b
		}
		row.Instructions = n
	}
	row.BytesPerInstr = float64(least) / float64(row.Instructions)
	return row, nil
}

// CheckDeployAllocGate fails when deploying allocates more than ceiling
// bytes per instrumented instruction.
func CheckDeployAllocGate(r DeployAllocRow, ceiling float64) error {
	if r.BytesPerInstr > ceiling {
		return fmt.Errorf("bench gate: deploying allocates %.1f B per instruction, ceiling %.0f", r.BytesPerInstr, ceiling)
	}
	return nil
}

// PrintDeployAlloc renders the deploy-alloc row.
func PrintDeployAlloc(w io.Writer, r DeployAllocRow) {
	fmt.Fprintf(w, "deploy: %d modules, %d instrumented instructions, %.1f B allocated per instruction by Instrument + NewAccountingEnclave\n",
		r.Modules, r.Instructions, r.BytesPerInstr)
}
