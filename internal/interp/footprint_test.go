package interp_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/wasm"
)

// TestCompiledFootprint pins the heap a compiled module keeps per
// instrumented instruction over the footprint set (PolyBench at n = 6 and
// the Fig. 10 programs, loop-instrumented, compiled under the hardware EPC
// model), at bench.CompiledSmokeCeiling: 77.0 B per instruction measured.
// Compile drops what only its lowering passes read and builds no oracle
// views (the first structured instantiation builds them), and a function
// body costs 16 B per instruction.
func TestCompiledFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	r, err := bench.RunCompiled()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d modules, %d instructions: %.1f KB per module, %.1f B per instruction",
		r.Modules, r.Instructions, r.KBPerModule, r.BytesPerInstr)
	if r.BytesPerInstr > bench.CompiledSmokeCeiling {
		t.Errorf("compiled modules keep %.1f B per instrumented instruction, want <= %d",
			r.BytesPerInstr, bench.CompiledSmokeCeiling)
	}
}

// TestStructuredRunsTrimmedArtifacts runs the oracle and the register engine
// from one trimmed artifact per module of the footprint set: the structured
// engine runs on the views it builds from what Compile keeps (the module's
// pre-inline bodies and the register stream's leader counts).
func TestStructuredRunsTrimmedArtifacts(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set {
		inst, err := instrument.Instrument(p.Module, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := interp.Compile(inst.Module, interp.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]struct {
			res            []uint64
			count, counter uint64
		}
		for i, engine := range []interp.Engine{interp.EngineStructured, interp.EngineReg} {
			vm, err := cm.Instantiate(interp.Config{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			res, err := vm.InvokeExport("run", p.Args...)
			if err != nil {
				t.Fatalf("%s on %v: %v", p.Name, engine, err)
			}
			g, _ := vm.Global(inst.CounterGlobal)
			runs[i].res, runs[i].count, runs[i].counter = res, vm.InstrCount(), g
		}
		ref, got := runs[0], runs[1]
		if len(ref.res) != 1 || len(got.res) != 1 || ref.res[0] != got.res[0] ||
			ref.count != got.count || ref.counter != got.counter {
			t.Errorf("%s: structured %+v, reg %+v", p.Name, ref, got)
		}
	}
}

// TestOracleRebuiltOnDemand: the oracle's views built from a trimmed
// artifact equal a reference assembled from the pre-inline bodies (cfg.Build's
// control matching and leader counts taken from the register stream or an
// uninlined lowering; OracleRebuildMismatch), and no compile step builds
// them itself, for every module of the footprint set and the inliner's call
// modules (where the executed bodies are not the pre-inline ones), as built
// and loop-instrumented.
func TestOracleRebuiltOnDemand(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() *wasm.Module{
		"leaf": buildLeafCalls, "chain": buildChainCalls, "looped": buildLoopedCalls,
	} {
		set = append(set, bench.FootprintProgram{Name: name, Module: build()})
	}
	for _, p := range set {
		inst, err := instrument.Instrument(p.Module, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*wasm.Module{p.Module, inst.Module} {
			diff, err := interp.OracleRebuildMismatch(m, interp.CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Errorf("%s: %s", p.Name, diff)
			}
		}
	}
}

// TestConcurrentStructuredInstances: structured instances made at once from
// one trimmed artifact share one build of the oracle's views (make race
// runs this under the race detector), and each counts what the register
// engine counts.
func TestConcurrentStructuredInstances(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set[len(set)-4:] { // the Fig. 10 programs
		inst, err := instrument.Instrument(p.Module, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			t.Fatal(err)
		}
		cm, err := interp.Compile(inst.Module, interp.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := cm.Instantiate(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.InvokeExport("run", p.Args...)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vm, err := cm.Instantiate(interp.Config{Engine: interp.EngineStructured})
				if err != nil {
					errs <- err
					return
				}
				got, err := vm.InvokeExport("run", p.Args...)
				if err != nil || !slices.Equal(got, want) || vm.InstrCount() != ref.InstrCount() {
					errs <- fmt.Errorf("%s: structured %v (%v, %d instructions), reg %v (%d)",
						p.Name, got, err, vm.InstrCount(), want, ref.InstrCount())
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
