// Command acctee-run executes a WebAssembly module inside the accountable
// two-way sandbox and prints the signed resource usage log. It performs the
// whole Fig. 3 pipeline in one process: instrumentation, attestation of
// both enclaves, evidence verification, execution and log verification.
//
// Usage:
//
//	acctee-run -module module.wat -entry run -args 10,20 [-mode hw|sim] [-fuel N]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"acctee"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acctee-run:", err)
		os.Exit(1)
	}
}

func run() error {
	modPath := flag.String("module", "", "WAT module file")
	entry := flag.String("entry", "run", "exported function to invoke")
	argList := flag.String("args", "", "comma-separated uint64 arguments")
	mode := flag.String("mode", "hw", "enclave mode: hw or sim")
	fuel := flag.Uint64("fuel", 0, "instruction limit (0 = unlimited)")
	level := flag.String("level", "loop", "instrumentation level: naive, flow, loop")
	flag.Parse()
	if *modPath == "" {
		return errors.New("missing -module")
	}
	src, err := os.ReadFile(*modPath)
	if err != nil {
		return err
	}
	m, err := acctee.ParseWAT(string(src))
	if err != nil {
		return err
	}
	var args []uint64
	if *argList != "" {
		for _, a := range strings.Split(*argList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(a), 10, 64)
			if err != nil {
				return fmt.Errorf("bad argument %q: %w", a, err)
			}
			args = append(args, v)
		}
	}
	var lvl acctee.OptLevel
	switch *level {
	case "naive":
		lvl = acctee.Naive
	case "flow":
		lvl = acctee.FlowBased
	default:
		lvl = acctee.LoopBased
	}
	enclMode := acctee.Hardware
	if *mode == "sim" {
		enclMode = acctee.Simulation
	}

	platform, err := acctee.NewPlatform("local")
	if err != nil {
		return err
	}
	ie, err := acctee.NewInstrumenter(lvl, nil)
	if err != nil {
		return err
	}
	if err := ie.Attest(platform); err != nil {
		return fmt.Errorf("IE attestation: %w", err)
	}
	inst, ev, err := ie.Instrument(m)
	if err != nil {
		return err
	}
	// A one-shot run wants its record signed immediately (eager mode); the
	// checkpointed batch path is for long-running gateways.
	sb, err := acctee.NewSandbox(acctee.SandboxConfig{
		Mode:   enclMode,
		Ledger: acctee.LedgerOptions{EagerSign: true},
	}, inst, ev, ie.PublicKey())
	if err != nil {
		return err
	}
	defer sb.Close()
	if err := sb.Attest(platform); err != nil {
		return fmt.Errorf("AE attestation: %w", err)
	}
	res, err := sb.Run(acctee.RunOptions{Entry: *entry, Args: args, Fuel: *fuel})
	if err != nil {
		return err
	}
	if err := acctee.VerifyRecord(res.Record, sb.PublicKey()); err != nil {
		return fmt.Errorf("record verification: %w", err)
	}
	fmt.Printf("results: %v\n", res.Results)
	recJSON, err := json.Marshal(res.Record)
	if err != nil {
		return err
	}
	fmt.Printf("signed ledger record (verified): %s\n", recJSON)
	return nil
}
