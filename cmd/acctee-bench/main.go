// Command acctee-bench regenerates the paper's evaluation figures and
// tables (§5) on this machine.
//
// Usage:
//
//	acctee-bench -fig all          # everything
//	acctee-bench -fig 6            # PolyBench sandboxing overhead
//	acctee-bench -fig 7 -n 10000   # per-instruction weights
//	acctee-bench -fig 8            # memory access costs
//	acctee-bench -fig 9 -requests 20
//	acctee-bench -fig 10
//	acctee-bench -fig size         # §5.4 binary sizes
//	acctee-bench -fig dispatch -json BENCH_interp.json
//	                               # reg vs structured engine comparison,
//	                               # microbenchmarks and the call-heavy suite
//	acctee-bench -fig smoke        # CI gates: reg must hold ≥ 3.0x geomean over
//	                               # structured on the microbenchmarks,
//	                               # call inlining must beat the no-inline
//	                               # baseline by ≥ 1.15x geomean,
//	                               # spill-mode retention must hold ≥ 0.35x bounded,
//	                               # GOMAXPROCS=4 must reach ≥ 1.8x GOMAXPROCS=1
//	                               # on hosts with ≥ 4 CPUs
//	                               # (standalone; not included in -fig all)
//	acctee-bench -fig faas -json BENCH_faas.json
//	                               # compile-once/run-many gateway benchmark
//	acctee-bench -fig ledger -json BENCH_ledger.json
//	                               # eager vs checkpoint-batched ledger signing
//	acctee-bench -fig retention -json BENCH_ledger.json
//	                               # bounded vs unbounded vs spill ledger retention
//	                               # at 10k/100k/1M records × GOMAXPROCS 1/4/16
//	                               # (standalone, like smoke)
//	acctee-bench -fig scaling -json BENCH_faas.json -json-ledger BENCH_ledger.json
//	                               # GOMAXPROCS 1/4/16 saturation matrix for the
//	                               # pooled gateway and the bounded ledger
//	                               # (standalone, like smoke)
//
// -mutexprofile / -blockprofile enable Go's contention profilers for the
// run and write build/mutex.pprof / build/block.pprof on exit — point `go
// tool pprof` at them to see which locks the measured figure waits on.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"acctee/internal/bench"
	"acctee/internal/faas"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acctee-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, size, all")
	n := flag.Uint64("n", 10000, "fig 7: executions per instruction")
	trials := flag.Int("trials", 3, "fig 6/10: best-of-n trials")
	requests := flag.Int("requests", 20, "fig 9: requests per configuration")
	clients := flag.Int("clients", 10, "fig 9: concurrent clients")
	quick := flag.Bool("quick", false, "shrink fig 8/9 parameter ranges")
	jsonOut := flag.String("json", "", "dispatch/faas/ledger/scaling: also write the report to this path")
	jsonLedger := flag.String("json-ledger", "", "scaling: write the ledger matrix to this path (BENCH_ledger.json)")
	mutexProf := flag.Bool("mutexprofile", false, "profile lock contention; writes build/mutex.pprof on exit")
	blockProf := flag.Bool("blockprofile", false, "profile blocking; writes build/block.pprof on exit")
	flag.Parse()

	if *mutexProf {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", filepath.Join("build", "mutex.pprof"))
	}
	if *blockProf {
		runtime.SetBlockProfileRate(10_000) // one sample per 10µs blocked
		defer writeProfile("block", filepath.Join("build", "block.pprof"))
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	matched := false

	if want("6") {
		matched = true
		fmt.Println("== Fig. 6: PolyBench sandboxing overhead (normalised to native) ==")
		rows, err := bench.RunFig6(nil, *trials)
		if err != nil {
			return err
		}
		bench.PrintFig6(os.Stdout, rows)
		fmt.Println()
	}
	if want("7") {
		matched = true
		fmt.Println("== Fig. 7: per-instruction cost distribution ==")
		r, err := bench.RunFig7(*n)
		if err != nil {
			return err
		}
		bench.PrintFig7(os.Stdout, r)
		fmt.Println()
	}
	if want("8") {
		matched = true
		fmt.Println("== Fig. 8: memory access costs by size and pattern ==")
		sizes := []int{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
		accesses := uint64(200_000)
		if *quick {
			sizes = []int{1 << 20, 16 << 20}
			accesses = 50_000
		}
		r, err := bench.RunFig8(sizes, accesses)
		if err != nil {
			return err
		}
		bench.PrintFig8(os.Stdout, r)
		fmt.Println()
	}
	if want("9") {
		matched = true
		fmt.Println("== Fig. 9: FaaS throughput (echo / resize) ==")
		opts := bench.Fig9Options{Requests: *requests, Clients: *clients}
		if *quick {
			opts.Sizes = []int{64, 128}
			opts.Setups = []faas.Setup{faas.SetupWASM, faas.SetupSGXHWInstr, faas.SetupJS}
		}
		rows, err := bench.RunFig9(opts)
		if err != nil {
			return err
		}
		bench.PrintFig9(os.Stdout, rows)
		fmt.Println()
	}
	if want("10") {
		matched = true
		fmt.Println("== Fig. 10: instrumentation optimisation levels ==")
		rows, err := bench.RunFig10(*trials)
		if err != nil {
			return err
		}
		bench.PrintFig10(os.Stdout, rows)
		fmt.Println()
	}
	if want("size") {
		matched = true
		fmt.Println("== §5.4: binary size overhead ==")
		rows, err := bench.RunSizeTable()
		if err != nil {
			return err
		}
		bench.PrintSizeTable(os.Stdout, rows)
		fmt.Println()
	}
	if want("dispatch") {
		matched = true
		fmt.Println("== Interpreter dispatch: structured (reference) vs reg (default) ==")
		rows, err := bench.RunDispatch(nil, *trials)
		if err != nil {
			return err
		}
		micro, err := bench.RunMicro(*trials)
		if err != nil {
			return err
		}
		inst, err := bench.RunInstrumented(*trials)
		if err != nil {
			return err
		}
		calls, err := bench.RunCalls(*trials)
		if err != nil {
			return err
		}
		bench.PrintDispatch(os.Stdout, rows, micro)
		bench.PrintInstrumented(os.Stdout, inst)
		bench.PrintCalls(os.Stdout, calls)
		if *jsonOut != "" {
			if err := bench.WriteDispatchJSON(*jsonOut, rows, micro, inst, calls); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonOut)
		}
		fmt.Println()
	}
	// The smoke gate is standalone (never part of -fig all): it exits
	// non-zero on regression, which would turn every full bench run on a
	// noisy machine into a failure.
	if *fig == "smoke" {
		matched = true
		fmt.Println("== Bench smoke gate: reg must keep its lead over the structured reference ==")
		micro, err := bench.RunMicro(*trials)
		if err != nil {
			return err
		}
		inst, err := bench.RunInstrumented(*trials)
		if err != nil {
			return err
		}
		bench.PrintDispatch(os.Stdout, nil, micro)
		bench.PrintInstrumented(os.Stdout, inst)
		if err := bench.CheckMicroGate(micro, bench.MicroSmokeFloor, inst, bench.InstrumentedSmokeCeiling); err != nil {
			return err
		}
		fmt.Println("gate passed")
		fmt.Println()
		fmt.Println("== Bench smoke gate: call inlining must beat the no-inline baseline ==")
		calls, err := bench.RunCalls(*trials)
		if err != nil {
			return err
		}
		bench.PrintCalls(os.Stdout, calls)
		if err := bench.CheckCallGate(calls, bench.CallSmokeFloor); err != nil {
			return err
		}
		fmt.Println("gate passed")
		fmt.Println()
		fmt.Println("== Bench smoke gate: spill-mode retention must keep up with bounded ==")
		ratio, err := bench.RunRetentionSmoke()
		if err != nil {
			return err
		}
		fmt.Printf("bounded+spill runs at %.2fx bounded append throughput (floor %.2fx)\n",
			ratio, bench.RetentionSmokeRatio)
		if ratio < bench.RetentionSmokeRatio {
			return fmt.Errorf("bench: retention smoke gate failed: bounded+spill at %.2fx bounded, floor %.2fx",
				ratio, bench.RetentionSmokeRatio)
		}
		fmt.Println("gate passed")
		fmt.Println()
		fmt.Println("== Bench smoke gate: reading a spilled ledger back must stay near the cost of writing it ==")
		audit, err := bench.RunAudit(bench.AuditSmokeRecords)
		if err != nil {
			return err
		}
		bench.PrintAudit(os.Stdout, audit)
		if err := bench.CheckAuditGate(audit, bench.AuditSmokeCeiling); err != nil {
			return err
		}
		fmt.Printf("gate passed (ceiling %.2fx)\n", bench.AuditSmokeCeiling)
		fmt.Println()
		fmt.Println("== Bench smoke gate: GOMAXPROCS=4 must beat GOMAXPROCS=1 ==")
		sres, err := bench.RunScalingSmoke()
		if err != nil {
			return err
		}
		fmt.Printf("gateway %.2fx, ledger %.2fx at 4 procs vs 1 (floor %.2fx, host CPUs %d)\n",
			sres.FaaS, sres.Ledger, bench.ScalingSmokeFloor, sres.HostCPUs)
		if !sres.Enforceable() {
			fmt.Printf("gate skipped: host has %d CPUs; GOMAXPROCS=4 cannot exceed one core's throughput\n", sres.HostCPUs)
		} else if !sres.Pass() {
			return fmt.Errorf("bench: scaling smoke gate failed: gateway %.2fx, ledger %.2fx at 4 procs, floor %.2fx",
				sres.FaaS, sres.Ledger, bench.ScalingSmokeFloor)
		} else {
			fmt.Println("gate passed")
		}
		fmt.Println()
	}
	if want("faas") {
		matched = true
		fmt.Println("== FaaS gateway: sandbox setup latency and pooled throughput ==")
		samples := 200
		if *quick {
			samples = 30
		}
		rep, err := bench.RunFaaSBench(samples, *requests, nil)
		if err != nil {
			return err
		}
		bench.PrintFaaSBench(os.Stdout, rep)
		if *jsonOut != "" {
			// Preserve the scaling section a previous -fig scaling run left
			// in the file.
			if old := bench.LoadFaaSJSON(*jsonOut); old != nil {
				rep.Scaling = old.Scaling
			}
			if err := bench.WriteFaaSJSON(*jsonOut, rep); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonOut)
		}
		fmt.Println()
	}
	if want("ledger") {
		matched = true
		fmt.Println("== Ledger: per-request eager signing vs checkpoint-batched ==")
		verifyRecords := 10_000
		if *quick {
			verifyRecords = 1_000
		}
		rep, err := bench.RunLedgerBench(*requests, verifyRecords, nil)
		if err != nil {
			return err
		}
		bench.PrintLedgerBench(os.Stdout, rep)
		if *jsonOut != "" {
			// Preserve the sections other figures left in the file.
			if old := bench.LoadLedgerJSON(*jsonOut); old != nil {
				rep.Retention = old.Retention
				rep.Scaling = old.Scaling
			}
			if err := bench.WriteLedgerJSON(*jsonOut, rep); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonOut)
		}
		fmt.Println()
	}
	if *fig == "retention" {
		// Standalone (not part of -fig all): the 1M-record sweep is heavy.
		matched = true
		fmt.Println("== Ledger retention: resident memory + append rate, bounded vs unbounded ==")
		sizes := bench.RetentionSizes
		if *quick {
			sizes = []int{10_000, 100_000}
		}
		rep, err := bench.RunRetentionBench(sizes)
		if err != nil {
			return err
		}
		bench.PrintRetentionBench(os.Stdout, rep)
		if *jsonOut != "" {
			out := bench.LoadLedgerJSON(*jsonOut)
			if out == nil {
				out = &bench.LedgerReport{}
			}
			out.Retention = rep
			if err := bench.WriteLedgerJSON(*jsonOut, out); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonOut)
		}
		fmt.Println()
	}
	if *fig == "scaling" {
		// Standalone (not part of -fig all): the matrix overrides GOMAXPROCS
		// per cell, which would perturb any figure sharing the process.
		matched = true
		fmt.Println("== Multi-core scaling: fixed load across GOMAXPROCS 1/4/16 ==")
		faasRequests, ledgerRecords := 600, 400_000
		if *quick {
			faasRequests, ledgerRecords = 150, 80_000
		}
		faasRep, err := bench.RunFaaSScaling(faasRequests, nil)
		if err != nil {
			return err
		}
		bench.PrintScaling(os.Stdout, "pooled resize gateway", faasRep)
		fmt.Println()
		ledgerRep, err := bench.RunLedgerScaling(ledgerRecords, nil)
		if err != nil {
			return err
		}
		bench.PrintScaling(os.Stdout, "bounded 4-shard ledger", ledgerRep)
		if *jsonOut != "" {
			out := bench.LoadFaaSJSON(*jsonOut)
			if out == nil {
				out = &bench.FaaSReport{}
			}
			out.Scaling = faasRep
			if err := bench.WriteFaaSJSON(*jsonOut, out); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonOut)
		}
		if *jsonLedger != "" {
			out := bench.LoadLedgerJSON(*jsonLedger)
			if out == nil {
				out = &bench.LedgerReport{}
			}
			out.Scaling = ledgerRep
			if err := bench.WriteLedgerJSON(*jsonLedger, out); err != nil {
				return err
			}
			fmt.Println("wrote", *jsonLedger)
		}
		fmt.Println()
	}
	if want("ablation") {
		matched = true
		fmt.Println("== Ablation: counter updates eliminated per optimisation ==")
		rows, err := bench.RunAblation()
		if err != nil {
			return err
		}
		bench.PrintAblation(os.Stdout, rows)
		fmt.Println()
	}
	if !matched {
		return fmt.Errorf("unknown figure %q (want 6, 7, 8, 9, 10, size, dispatch, smoke, faas, ledger, retention, scaling, all)", strings.TrimSpace(*fig))
	}
	return nil
}

// writeProfile dumps one runtime profile, creating build/ if needed.
// Profile writing is best-effort diagnostics: a failure warns, it never
// fails the bench run.
func writeProfile(name, path string) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "acctee-bench: %s profile: %v\n", name, err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "acctee-bench: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "acctee-bench: %s profile: %v\n", name, err)
		return
	}
	fmt.Println("wrote", path)
}
