// Command acctee-bench regenerates the paper's evaluation figures and
// tables (§5) on this machine, and the rows CI gates on.
//
// Usage:
//
//	acctee-bench -fig all -json BENCH.json
//	                               # every figure, then the interp, ledger
//	                               # and scaling sections: one run, one
//	                               # manifest, one stamp (`make bench`)
//	acctee-bench -fig 6            # PolyBench sandboxing overhead
//	acctee-bench -fig 7 -n 10000   # per-instruction weights
//	acctee-bench -fig 8            # memory access costs
//	acctee-bench -fig 9 -requests 20
//	acctee-bench -fig 10           # instrumentation levels, wall clock and modelled
//	acctee-bench -fig size         # §5.4 binary sizes
//	acctee-bench -fig ablation     # counter updates eliminated per pass
//	acctee-bench -fig smoke        # CI gates: reg must hold ≥ 3.0x geomean over
//	                               # structured on the microbenchmarks,
//	                               # call inlining must beat the no-inline
//	                               # baseline by ≥ 1.15x geomean,
//	                               # spill-mode retention must hold ≥ 0.35x bounded,
//	                               # GOMAXPROCS=4 must reach ≥ 1.8x GOMAXPROCS=1
//	                               # on hosts with ≥ 4 CPUs
//	                               # (standalone; not included in -fig all)
//
// -json with a single figure writes a manifest holding that figure alone.
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
	fig := flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, size, ablation, smoke, all")
	n := flag.Uint64("n", 10000, "fig 7: executions per instruction")
	trials := flag.Int("trials", 3, "fig 6/10, interp rows, smoke: best-of-n trials")
	requests := flag.Int("requests", 20, "fig 9: requests per configuration")
	clients := flag.Int("clients", 10, "fig 9: concurrent clients")
	quick := flag.Bool("quick", false, "shrink fig 8/9 parameter ranges and the retention and scaling loads")
	jsonOut := flag.String("json", "", "also write what ran as a manifest to this path (BENCH.json)")
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

	// The smoke gate is standalone (never part of -fig all): it exits
	// non-zero on regression, which would turn every full bench run on a
	// noisy machine into a failure.
	if *fig == "smoke" {
		return smoke(*trials)
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	paper := &bench.Paper{}
	var err error

	if want("6") {
		fmt.Println("== Fig. 6: PolyBench sandboxing overhead (normalised to native) ==")
		if paper.Fig6, err = bench.RunFig6(nil, *trials); err != nil {
			return err
		}
		bench.PrintFig6(os.Stdout, paper.Fig6)
		fmt.Println()
	}
	if want("7") {
		fmt.Println("== Fig. 7: per-instruction cost distribution ==")
		if paper.Fig7, err = bench.RunFig7(*n); err != nil {
			return err
		}
		bench.PrintFig7(os.Stdout, paper.Fig7)
		fmt.Println()
	}
	if want("8") {
		fmt.Println("== Fig. 8: memory access costs by size and pattern ==")
		sizes := []int{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
		accesses := uint64(200_000)
		if *quick {
			sizes = []int{1 << 20, 16 << 20}
			accesses = 50_000
		}
		if paper.Fig8, err = bench.RunFig8(sizes, accesses); err != nil {
			return err
		}
		bench.PrintFig8(os.Stdout, paper.Fig8)
		fmt.Println()
	}
	if want("9") {
		fmt.Println("== Fig. 9: FaaS throughput (echo / resize) ==")
		opts := bench.Fig9Options{Requests: *requests, Clients: *clients}
		if *quick {
			opts.Sizes = []int{64, 128}
			opts.Setups = []faas.Setup{faas.SetupWASM, faas.SetupSGXHWInstr, faas.SetupJS}
		}
		if paper.Fig9, err = bench.RunFig9(opts); err != nil {
			return err
		}
		bench.PrintFig9(os.Stdout, paper.Fig9)
		fmt.Println()
	}
	if want("10") {
		fmt.Println("== Fig. 10: instrumentation optimisation levels ==")
		if paper.Fig10, err = bench.RunFig10(*trials); err != nil {
			return err
		}
		bench.PrintFig10(os.Stdout, paper.Fig10)
		fmt.Println()
	}
	if want("size") {
		fmt.Println("== §5.4: binary size overhead ==")
		if paper.Size, err = bench.RunSizeTable(); err != nil {
			return err
		}
		bench.PrintSizeTable(os.Stdout, paper.Size)
		fmt.Println()
	}
	if want("ablation") {
		fmt.Println("== Ablation: counter updates eliminated per optimisation ==")
		if paper.Ablation, err = bench.RunAblation(); err != nil {
			return err
		}
		bench.PrintAblation(os.Stdout, paper.Ablation)
		fmt.Println()
	}
	if *paper == (bench.Paper{}) {
		return fmt.Errorf("unknown figure %q (want 6, 7, 8, 9, 10, size, ablation, smoke, all)", strings.TrimSpace(*fig))
	}
	m := &bench.Manifest{Paper: paper}
	if *fig == "all" {
		if err := runSections(m, *trials, *quick); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := m.Write(*jsonOut); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	return nil
}

// runSections fills the manifest's interp, ledger and scaling sections.
// Scaling goes last: it overrides GOMAXPROCS per cell, which would perturb
// any figure that shared the process after it.
func runSections(m *bench.Manifest, trials int, quick bool) (err error) {
	fmt.Println("== Interpreter: reg (default) vs structured (reference), instrumented resize, call suite ==")
	if m.Interp, err = bench.RunInterp(trials); err != nil {
		return err
	}
	printInterp(m.Interp)
	fmt.Println()

	retention, faasRequests, ledgerRecords := bench.RetentionSizes, 600, 400_000
	if quick {
		retention, faasRequests, ledgerRecords = []int{10_000, 100_000}, 150, 80_000
	}
	fmt.Println("== Ledger: audit (read side beside write side) and retention (bounded vs unbounded vs spill) ==")
	if m.Ledger, err = bench.RunLedger(bench.AuditSmokeRecords, retention); err != nil {
		return err
	}
	bench.PrintAudit(os.Stdout, m.Ledger.Audit)
	bench.PrintRetentionBench(os.Stdout, m.Ledger.Retention)
	fmt.Println()

	fmt.Println("== Multi-core scaling: fixed load across GOMAXPROCS 1/4/16 ==")
	if m.Scaling, err = bench.RunScaling(faasRequests, ledgerRecords); err != nil {
		return err
	}
	bench.PrintScaling(os.Stdout, m.Scaling)
	fmt.Println()
	return nil
}

func printInterp(in *bench.Interp) {
	bench.PrintMicro(os.Stdout, in.Micro)
	bench.PrintInstrumented(os.Stdout, in.Instrumented)
	bench.PrintCalls(os.Stdout, in.Calls)
}

// smoke runs the CI gates and fails on the first one that does not hold.
func smoke(trials int) error {
	fmt.Println("== Bench smoke gate: reg must keep its lead over the structured reference, call inlining over the no-inline baseline ==")
	in, err := bench.RunInterp(trials)
	if err != nil {
		return err
	}
	printInterp(in)
	if err := bench.CheckMicroGate(in.Micro, bench.MicroSmokeFloor, in.Instrumented, bench.InstrumentedSmokeCeiling); err != nil {
		return err
	}
	if err := bench.CheckCallGate(in.Calls, bench.CallSmokeFloor); err != nil {
		return err
	}
	fmt.Println("gates passed")
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
		fmt.Println("gate skipped:", bench.ScalingSkipped(sres.HostCPUs))
	} else if !sres.Pass() {
		return fmt.Errorf("bench: scaling smoke gate failed: gateway %.2fx, ledger %.2fx at 4 procs, floor %.2fx",
			sres.FaaS, sres.Ledger, bench.ScalingSmokeFloor)
	} else {
		fmt.Println("gate passed")
	}
	fmt.Println()
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
