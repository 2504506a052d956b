package bench

import (
	"fmt"
	"io"
	"runtime"

	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	"acctee/internal/weights"
	"acctee/internal/workloads"
)

// CompiledRow is the heap a compiled module keeps: the footprint set
// loop-instrumented and compiled under the hardware EPC model, every
// artifact held, and the heap that added divided by modules and by
// instrumented instructions. Inside an enclave this is EPC every deployed
// function occupies for as long as it stays deployed.
type CompiledRow struct {
	Modules       int     `json:"modules"`
	Instructions  int     `json:"instructions"`
	KBPerModule   float64 `json:"kb_per_module"`
	BytesPerInstr float64 `json:"bytes_per_instr"`
}

// CompiledSmokeCeiling is the CI gate on the compiled row, in retained bytes
// per instrumented instruction: 10% above the 77.1 measured. The
// interpreter's own footprint test applies the same bound.
const CompiledSmokeCeiling = 85

// FootprintProgram is one module of the footprint set and the arguments its
// run export takes.
type FootprintProgram struct {
	Name   string
	Module *wasm.Module
	Args   []uint64
}

// FootprintSet builds the modules the compiled row and the footprint tests
// measure: the 29 PolyBench kernels at n = 6 and the four Fig. 10 programs
// at the smallest sizes their checksums hold at.
func FootprintSet() ([]FootprintProgram, error) {
	var set []FootprintProgram
	for _, name := range polybench.Names() {
		k, err := polybench.Get(name)
		if err != nil {
			return nil, err
		}
		m, err := k.Build(6)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		set = append(set, FootprintProgram{Name: name, Module: m})
	}
	for _, w := range []Fig10Workload{
		{Name: "MSieve", Build: workloads.BuildMSieve, Args: []uint64{4, 2}},
		{Name: "SubsetSum", Build: workloads.BuildSubsetSum, Args: []uint64{4, 100}},
		{Name: "PC", Build: func() (*wasm.Module, error) { return workloads.BuildPC(4, 4) }},
		{Name: "Darknet", Build: func() (*wasm.Module, error) { return workloads.BuildDarknet(4, 1) }},
	} {
		m, err := w.Build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		set = append(set, FootprintProgram{Name: w.Name, Module: m, Args: w.Args})
	}
	return set, nil
}

// RunCompiled measures the compiled row: HeapAlloc after two collections,
// before the set is instrumented and compiled and again with every artifact
// (and so every instrumented module) held.
func RunCompiled() (CompiledRow, error) {
	set, err := FootprintSet()
	if err != nil {
		return CompiledRow{}, err
	}
	before := liveHeap()
	kept := make([]*interp.CompiledModule, 0, len(set))
	n := 0
	for _, p := range set {
		inst, err := instrument.Instrument(p.Module, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			return CompiledRow{}, err
		}
		for _, f := range inst.Module.Funcs {
			n += len(f.Body)
		}
		model := sgx.NewEPCModel(sgx.ModeHardware, sgx.DefaultCostParams(), weights.Unit())
		cm, err := interp.Compile(inst.Module, interp.CompileOptions{CostModels: []interp.CostModel{model}})
		if err != nil {
			return CompiledRow{}, err
		}
		kept = append(kept, cm)
	}
	retained := float64(liveHeap() - before)
	runtime.KeepAlive(set) // held on both sides: only the compile's heap is counted
	runtime.KeepAlive(kept)
	return CompiledRow{
		Modules:       len(kept),
		Instructions:  n,
		KBPerModule:   retained / 1024 / float64(len(kept)),
		BytesPerInstr: retained / float64(n),
	}, nil
}

// liveHeap is HeapAlloc after two collections: what is reachable.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// CheckCompiledGate fails when a compiled module keeps more than ceiling
// bytes per instrumented instruction.
func CheckCompiledGate(r CompiledRow, ceiling float64) error {
	if r.BytesPerInstr > ceiling {
		return fmt.Errorf("bench gate: compiled modules keep %.1f B per instruction, ceiling %.0f", r.BytesPerInstr, ceiling)
	}
	return nil
}

// PrintCompiled renders the compiled row.
func PrintCompiled(w io.Writer, r CompiledRow) {
	fmt.Fprintf(w, "compiled: %d modules, %d instrumented instructions, %.1f KB per module, %.1f B per instruction\n",
		r.Modules, r.Instructions, r.KBPerModule, r.BytesPerInstr)
}
