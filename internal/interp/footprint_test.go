package interp_test

import (
	"testing"

	"acctee/internal/bench"
	"acctee/internal/instrument"
	"acctee/internal/interp"
)

// TestCompiledFootprint pins the heap a compiled module keeps per
// instrumented instruction over the footprint set (PolyBench at n = 6 and
// the Fig. 10 programs, loop-instrumented, compiled under the hardware EPC
// model). Compile drops what only its lowering passes read; 237 B per
// instruction before it did.
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
	if r.BytesPerInstr > 145 {
		t.Errorf("compiled modules keep %.1f B per instrumented instruction, want <= 145", r.BytesPerInstr)
	}
}

// TestStructuredRunsTrimmedArtifacts runs the oracle and the register engine
// from one trimmed artifact per module of the footprint set: the structured
// engine reads only what Compile keeps for it (the pre-inline body, its
// narrowed control table and leader counts).
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
