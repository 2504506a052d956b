// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark family corresponds to one figure; the full-size
// experiment runners (with the paper's parameter ranges) live in
// internal/bench and the cmd/acctee-bench CLI. The benchmark variants here
// use harness-scale parameters so `go test -bench=.` completes on a laptop
// while preserving the comparisons' shape.
package acctee_test

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"acctee/internal/bench"
	"acctee/internal/faas"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	wasmbin "acctee/internal/wasm/binary"
	"acctee/internal/weights"
	"acctee/internal/workloads"
)

// benchKernels is the Fig. 6 subset benchmarked per-commit; the full 29
// run via `acctee-bench -fig 6`.
var benchKernels = []string{"gemm", "2mm", "atax", "jacobi-2d", "cholesky", "nussinov", "doitgen", "durbin"}

// BenchmarkFig6 measures PolyBench kernels under the paper's four setups.
func BenchmarkFig6(b *testing.B) {
	for _, name := range benchKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		n := k.DefaultN * 2 / 3
		if n < 8 {
			n = 8
		}
		m, err := k.Build(n)
		if err != nil {
			b.Fatal(err)
		}
		inst, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			b.Fatal(err)
		}
		params := sgx.DefaultCostParams()
		params.UsableEPCBytes = bench.Fig6EPCBytes

		b.Run(name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = k.Native(n)
			}
		})
		b.Run(name+"/wasm", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runModule(b, m, nil)
			}
		})
		b.Run(name+"/wasm-sgx-sim", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runModule(b, m, sgx.NewEPCModel(sgx.ModeSimulation, params, nil))
			}
		})
		b.Run(name+"/wasm-sgx-hw", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runModule(b, m, sgx.NewEPCModel(sgx.ModeHardware, params, nil))
			}
		})
		b.Run(name+"/wasm-sgx-hw-instr", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runModule(b, inst.Module, sgx.NewEPCModel(sgx.ModeHardware, params, nil))
			}
		})
	}
}

func runModule(b *testing.B, m *wasm.Module, model interp.CostModel) {
	b.Helper()
	vm, err := interp.Instantiate(m, interp.Config{CostModel: model})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := vm.InvokeExport("run"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig7 measures representative per-instruction costs (the full
// 127-instruction sweep runs via `acctee-bench -fig 7`).
func BenchmarkFig7(b *testing.B) {
	for _, op := range []wasm.Opcode{
		wasm.OpI32Add, wasm.OpI64Mul, wasm.OpF64Add, wasm.OpF64Floor,
		wasm.OpI64DivS, wasm.OpF64Sqrt,
	} {
		b.Run(op.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := weights.MeasureInstr(op, 4096); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8 measures memory access cost by size and pattern.
func BenchmarkFig8(b *testing.B) {
	for _, sz := range []int{1 << 20, 16 << 20} {
		for _, pattern := range []weights.MemPattern{weights.Linear, weights.Random} {
			for _, store := range []bool{false, true} {
				op := "load"
				if store {
					op = "store"
				}
				name := fmt.Sprintf("%dMB/%s/%s", sz>>20, pattern, op)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := weights.MeasureMem(wasm.F64, store, pattern, sz, 16384); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig9 measures FaaS request handling per setup (single request
// per iteration; the concurrent-throughput experiment runs via
// `acctee-bench -fig 9`).
func BenchmarkFig9(b *testing.B) {
	old := faas.JSDispatchCost
	faas.JSDispatchCost = 2 * time.Millisecond
	defer func() { faas.JSDispatchCost = old }()
	const size = 64
	img := workloads.TestImage(size, size)
	for _, fn := range []faas.Function{faas.Echo, faas.Resize} {
		for _, setup := range []faas.Setup{
			faas.SetupWASM, faas.SetupSGXSim, faas.SetupSGXHW,
			faas.SetupSGXHWInstr, faas.SetupSGXHWIO, faas.SetupJS,
		} {
			srv, err := faas.NewServer(fn, setup)
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			b.Run(fmt.Sprintf("%s/%s", fn, setup), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := faas.GenerateLoad(ts.URL, 1, 1, img, size, size)
					if res.Errors > 0 {
						b.Fatal("request failed")
					}
				}
			})
			ts.Close()
		}
	}
}

// BenchmarkFig10 measures the volunteer-computing and pay-by-computation
// workloads per instrumentation level.
func BenchmarkFig10(b *testing.B) {
	wls := []struct {
		name  string
		build func() (*wasm.Module, error)
		args  []uint64
	}{
		{"MSieve", workloads.BuildMSieve, []uint64{1_000_003, 10}},
		{"PC", func() (*wasm.Module, error) { return workloads.BuildPC(14, 40) }, nil},
		{"SubsetSum", workloads.BuildSubsetSum, []uint64{30, 20_000}},
		{"Darknet", func() (*wasm.Module, error) { return workloads.BuildDarknet(16, 4) }, nil},
	}
	for _, wl := range wls {
		m, err := wl.build()
		if err != nil {
			b.Fatal(err)
		}
		variants := map[string]*wasm.Module{"uninstrumented": m}
		for _, lvl := range []instrument.Level{instrument.Naive, instrument.FlowBased, instrument.LoopBased} {
			res, err := instrument.Instrument(m, instrument.Options{Level: lvl})
			if err != nil {
				b.Fatal(err)
			}
			variants[lvl.String()] = res.Module
		}
		for _, variant := range []string{"uninstrumented", "naive", "flow-based", "loop-based"} {
			mod := variants[variant]
			b.Run(wl.name+"/"+variant, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vm, err := interp.Instantiate(mod, interp.Config{})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := vm.InvokeExport("run", wl.args...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTableSize measures the §5.4 binary-size pipeline (instrument +
// encode across all evaluation modules).
func BenchmarkTableSize(b *testing.B) {
	k, err := polybench.Get("gemm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := k.Build(12)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("instrument+encode/gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wasmbin.Encode(res.Module); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDispatch compares interpreter dispatch on PolyBench kernels:
// the structured reference engine (label stack, per-instruction accounting)
// against the default register engine (precompiled branch sidetable,
// block-batched accounting, register-form IR, direct-threaded closures).
// `make bench` runs the same comparison via acctee-bench and records it in
// BENCH_interp.json.
func BenchmarkDispatch(b *testing.B) {
	for _, name := range bench.DispatchKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		n := k.DefaultN * 2 / 3
		if n < 8 {
			n = 8
		}
		m, err := k.Build(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []struct {
			name   string
			engine interp.Engine
		}{{"structured", interp.EngineStructured}, {"reg", interp.EngineReg}} {
			b.Run(name+"/"+eng.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vm, err := interp.Instantiate(m, interp.Config{Engine: eng.engine})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := vm.InvokeExport("run"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkInterpreter is the engine microbenchmark: raw instructions per
// second on a tight arithmetic loop (context for all absolute numbers).
func BenchmarkInterpreter(b *testing.B) {
	bld := wasm.NewModule("spin")
	f := bld.Func("run", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Xor).LocalSet(acc)
	})
	f.LocalGet(acc)
	bld.ExportFunc("run", f.End())
	m := bld.MustBuild()
	vm, err := interp.Instantiate(m, interp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.InvokeExport("run", 10_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(vm.InstrCount())/float64(b.Elapsed().Seconds())/1e6, "Minstr/s")
}
