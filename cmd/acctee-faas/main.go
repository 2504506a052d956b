// Command acctee-faas serves the paper's FaaS functions (echo, resize)
// behind an HTTP gateway in any of the six Fig. 9 deployment setups.
//
// Usage:
//
//	acctee-faas -listen :8080 -function resize -setup hw-instr
//
// Request payloads go in the POST body; resize reads image dimensions from
// the X-Width / X-Height headers. Instrumented setups return the weighted
// instruction count in X-Weighted-Instructions.
//
// -pprof <addr> serves net/http/pprof on a separate listener (e.g.
// localhost:6060), so CPU, mutex and block profiles can be pulled from a
// gateway under load without exposing the profiler on the serving address.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/faas"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acctee-faas:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":8080", "listen address")
	fnName := flag.String("function", "echo", "function: echo or resize")
	setupName := flag.String("setup", "hw-instr", "setup: wasm, sim, hw, hw-instr, hw-io, js")
	prewarm := flag.Int("pool-prewarm", 0, "sandbox instances to pre-instantiate at startup")
	shards := flag.Int("ledger-shards", 0, "ledger sequence lanes (0 = one per CPU)")
	eager := flag.Bool("ledger-eager", false, "sign every ledger record at append time (per-request signature baseline)")
	cpEvery := flag.Duration("checkpoint-every", 10*time.Second, "periodic ledger checkpoint interval (0 = on request only)")
	retention := flag.Int("ledger-retention", 0, "max resident ledger records before auto-compaction (0 = unbounded)")
	spillDir := flag.String("ledger-spill", "", "spill sealed ledger segments to this directory (empty = drop after checkpointing); reopening the same directory recovers a crashed ledger")
	keepEvery := flag.Int("ledger-keep-every", 0, "prune the persisted checkpoint chain to every Kth checkpoint plus the anchor tip (0 or 1 = keep all; needs -ledger-spill)")
	reqTimeout := flag.Duration("request-timeout", 0, "per-invocation deadline; an expired deadline interrupts the run at a segment boundary, charges the work done, and returns 504 with the partial run's receipt (0 = none)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing invocations; excess requests queue then shed with 429 (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "bounded waiting room for invocations when every slot is busy (0 = shed immediately; needs -max-inflight)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max wait for an execution slot before shedding a queued request (0 = 50ms default)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	flag.Parse()

	var fn faas.Function
	switch *fnName {
	case "echo":
		fn = faas.Echo
	case "resize":
		fn = faas.Resize
	default:
		return fmt.Errorf("unknown function %q", *fnName)
	}
	var setup faas.Setup
	switch *setupName {
	case "wasm":
		setup = faas.SetupWASM
	case "sim":
		setup = faas.SetupSGXSim
	case "hw":
		setup = faas.SetupSGXHW
	case "hw-instr":
		setup = faas.SetupSGXHWInstr
	case "hw-io":
		setup = faas.SetupSGXHWIO
	case "js":
		setup = faas.SetupJS
	default:
		return fmt.Errorf("unknown setup %q", *setupName)
	}
	srv, err := faas.NewServerWithOptions(fn, setup, faas.ServerOptions{
		PoolPrewarm:    *prewarm,
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *maxInflight,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		Ledger: accounting.LedgerOptions{
			Shards:             *shards,
			EagerSign:          *eager,
			CheckpointInterval: *cpEvery,
			Retention: accounting.RetentionPolicy{
				MaxResidentRecords:  *retention,
				SpillDir:            *spillDir,
				CheckpointKeepEvery: *keepEvery,
			},
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *pprofAddr != "" {
		// The gateway serves an explicit handler, so the pprof routes the
		// blank import registered on DefaultServeMux are only reachable
		// through this dedicated listener.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "acctee-faas: pprof:", err)
			}
		}()
		fmt.Printf("acctee-faas: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	fmt.Printf("acctee-faas: serving %s (%s) on %s (pool prewarm=%d)\n",
		fn, setup, *listen, *prewarm)
	fmt.Printf("acctee-faas: health on GET %s (liveness), %s (readiness; 503 once the spill pipeline degrades)\n",
		faas.HealthPath, faas.ReadyPath)
	if *maxInflight > 0 {
		fmt.Printf("acctee-faas: admission control: %d in flight, queue %d, queue timeout %v; overload sheds 429\n",
			*maxInflight, *maxQueue, *queueTimeout)
	}
	if *reqTimeout > 0 {
		fmt.Printf("acctee-faas: request deadline %v (expired runs charge executed work and return 504)\n", *reqTimeout)
	}
	if srv.Ledger() != nil {
		fmt.Printf("acctee-faas: verifiable ledger on GET /receipt, /checkpoint, /ledger[?truncated=1] and POST /compact (eager=%v, checkpoint every %v)\n",
			*eager, *cpEvery)
		if *retention > 0 || *spillDir != "" {
			fmt.Printf("acctee-faas: bounded retention: max resident %d records, spill dir %q, checkpoint keep-every %d\n",
				*retention, *spillDir, *keepEvery)
		}
	}
	return http.ListenAndServe(*listen, srv)
}
