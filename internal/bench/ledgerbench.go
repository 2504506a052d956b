package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/faas"
	"acctee/internal/sgx"
)

// This file measures the sharded, hash-chained ledger (PR 3): how much
// gateway throughput checkpoint-batched signing recovers over per-request
// eager signatures at 1/4/16 concurrent clients, what offline
// verification of a 10k-record dump costs, and (auditbench.go) what reading
// a 100k-record spilled ledger back costs beside writing it. The report lands in
// BENCH_ledger.json next to BENCH_interp.json / BENCH_faas.json.

// LedgerClientCounts is the default concurrency sweep.
var LedgerClientCounts = []int{1, 4, 16}

// LedgerThroughputRow compares the echo gateway under per-request eager
// signing (every response pays an ECDSA signature on the hot path) against
// checkpoint-batched signing (records are chained per request, one
// signature covers the batch).
type LedgerThroughputRow struct {
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	// EagerRPS / BatchedRPS are successful-request throughputs.
	EagerRPS   float64 `json:"eager_req_per_sec"`
	BatchedRPS float64 `json:"batched_req_per_sec"`
	// Speedup is BatchedRPS / EagerRPS.
	Speedup float64 `json:"speedup"`
	// Latency percentiles (ns) surface tail regressions, not just means.
	EagerP50Ns    int64 `json:"eager_p50_ns"`
	EagerP95Ns    int64 `json:"eager_p95_ns"`
	EagerP99Ns    int64 `json:"eager_p99_ns"`
	BatchedP50Ns  int64 `json:"batched_p50_ns"`
	BatchedP95Ns  int64 `json:"batched_p95_ns"`
	BatchedP99Ns  int64 `json:"batched_p99_ns"`
	EagerErrors   int   `json:"eager_errors"`
	BatchedErrors int   `json:"batched_errors"`
}

// LedgerReport is the BENCH_ledger.json payload.
type LedgerReport struct {
	Stamp
	Function   string `json:"function"`
	Setup      string `json:"setup"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Shards is the gateway ledger's sequence-lane count.
	Shards int                   `json:"shards"`
	Rows   []LedgerThroughputRow `json:"throughput"`
	// Offline verification cost of a VerifyRecords-record dump: chain
	// replay, gap-freedom, checkpoint signatures, totals reconstruction.
	VerifyRecords     int     `json:"verify_records"`
	VerifyCheckpoints int     `json:"verify_checkpoints"`
	VerifyNs          int64   `json:"verify_ns"`
	VerifyNsPerRecord float64 `json:"verify_ns_per_record"`
	// DumpBytes is the size of the same ledger as a dump container
	// (Ledger.WriteDump).
	DumpBytes int `json:"dump_bytes"`
	// Audit is the read side against the write side of one spilled ledger
	// (auditbench.go), measured by the same -fig ledger run.
	Audit *AuditRow `json:"audit,omitempty"`
	// Retention holds the bounded-retention sweep (acctee-bench -fig
	// retention) and Scaling the GOMAXPROCS matrix (-fig scaling); the
	// figures update their own sections of BENCH_ledger.json without
	// clobbering each other.
	Retention *RetentionReport `json:"retention,omitempty"`
	Scaling   *ScalingReport   `json:"scaling,omitempty"`
}

// LoadLedgerJSON reads an existing BENCH_ledger.json, so one figure can
// update its section while preserving the other's. A missing or
// unparsable file yields nil.
func LoadLedgerJSON(path string) *LedgerReport {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep LedgerReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil
	}
	return &rep
}

// LedgerBenchTrials is the best-of count per throughput cell (minimum
// sheds scheduler noise on a busy host, as in the other figures' bestOf).
var LedgerBenchTrials = 3

// RunLedgerBench measures eager vs batched gateway throughput and offline
// verification cost. requests is the per-row load-generator total;
// verifyRecords sizes the verification dump (default 10_000).
func RunLedgerBench(requests, verifyRecords int, clientCounts []int) (*LedgerReport, error) {
	if requests < 1 {
		requests = 1
	}
	if verifyRecords < 1 {
		verifyRecords = 10_000
	}
	if len(clientCounts) == 0 {
		clientCounts = LedgerClientCounts
	}
	rep := &LedgerReport{
		Stamp:      NewStamp(),
		Function:   "echo",
		Setup:      faas.SetupSGXHWInstr.String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// 1) Gateway throughput: the echo function keeps per-request compute
	// small so the signing cost is visible, as in a high-rate accounting
	// gateway.
	payload := []byte("ledger-bench-payload")
	throughput := func(eager bool, clients int) (faas.LoadResult, error) {
		srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
			PoolPrewarm: clients,
			Ledger:      accounting.LedgerOptions{EagerSign: eager},
		})
		if err != nil {
			return faas.LoadResult{}, err
		}
		defer srv.Close()
		if rep.Shards == 0 {
			rep.Shards = srv.Ledger().Shards()
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		res := faas.GenerateLoad(ts.URL, clients, requests, payload, 0, 0)
		// Close the batched run with its one checkpoint signature. The
		// load result is already final at this point, so the signature is
		// NOT in BatchedRPS — at one ECDSA signature per `requests`
		// requests its amortised share is far below measurement noise, and
		// signing here keeps the measured ledger state realistic.
		if !eager {
			if _, err := srv.Ledger().Checkpoint(); err != nil {
				return faas.LoadResult{}, err
			}
		}
		return res, nil
	}
	// Best-of-N per cell: the maximum-throughput trial sheds scheduler
	// noise, as elsewhere in the harness.
	best := func(eager bool, clients int) (faas.LoadResult, error) {
		var bestRes faas.LoadResult
		for i := 0; i < LedgerBenchTrials; i++ {
			res, err := throughput(eager, clients)
			if err != nil {
				return faas.LoadResult{}, err
			}
			if i == 0 || res.ReqPerSec > bestRes.ReqPerSec {
				bestRes = res
			}
		}
		return bestRes, nil
	}
	for _, clients := range clientCounts {
		eager, err := best(true, clients)
		if err != nil {
			return nil, err
		}
		batched, err := best(false, clients)
		if err != nil {
			return nil, err
		}
		row := LedgerThroughputRow{
			Clients:       clients,
			Requests:      requests,
			EagerRPS:      eager.ReqPerSec,
			BatchedRPS:    batched.ReqPerSec,
			EagerP50Ns:    eager.LatencyP50.Nanoseconds(),
			EagerP95Ns:    eager.LatencyP95.Nanoseconds(),
			EagerP99Ns:    eager.LatencyP99.Nanoseconds(),
			BatchedP50Ns:  batched.LatencyP50.Nanoseconds(),
			BatchedP95Ns:  batched.LatencyP95.Nanoseconds(),
			BatchedP99Ns:  batched.LatencyP99.Nanoseconds(),
			EagerErrors:   eager.Errors,
			BatchedErrors: batched.Errors,
		}
		if eager.ReqPerSec > 0 {
			row.Speedup = batched.ReqPerSec / eager.ReqPerSec
		}
		rep.Rows = append(rep.Rows, row)
	}

	// 2) Offline verification cost per verifyRecords records.
	encl, err := sgx.NewEnclave([]byte("ledger-bench AE"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		return nil, err
	}
	ledger, err := accounting.NewLedger(encl, accounting.LedgerOptions{Shards: 4})
	if err != nil {
		return nil, err
	}
	defer ledger.Close()
	for i := 0; i < verifyRecords; i++ {
		log := accounting.UsageLog{
			WorkloadHash:         [32]byte{1},
			WeightedInstructions: uint64(1000 + i),
			PeakMemoryBytes:      1 << 16,
			SimulatedCycles:      uint64(i),
			Policy:               accounting.PeakMemory,
		}
		if _, _, err := ledger.Append(log); err != nil {
			return nil, err
		}
		if (i+1)%1000 == 0 {
			if _, err := ledger.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	dump, err := ledger.Dump()
	if err != nil {
		return nil, err
	}
	var container bytes.Buffer
	if err := ledger.WriteDump(&container, accounting.DumpOptions{}); err != nil {
		return nil, err
	}
	rep.DumpBytes = container.Len()
	if _, err := accounting.VerifyReader(&container, accounting.VerifyOptions{Key: encl.PublicKey()}); err != nil {
		return nil, fmt.Errorf("bench: dump container does not verify: %w", err)
	}
	rep.VerifyRecords = verifyRecords
	rep.VerifyCheckpoints = len(dump.Checkpoints)
	t0 := time.Now()
	vr, err := accounting.VerifyDump(dump, accounting.VerifyOptions{})
	if err != nil {
		return nil, fmt.Errorf("bench: verification of a pristine dump failed: %w", err)
	}
	rep.VerifyNs = time.Since(t0).Nanoseconds()
	if vr.Records != verifyRecords {
		return nil, fmt.Errorf("bench: verified %d records, want %d", vr.Records, verifyRecords)
	}
	rep.VerifyNsPerRecord = float64(rep.VerifyNs) / float64(verifyRecords)

	// 3) Read side over write side of a spilled ledger ten times that size.
	audit, err := RunAudit(10 * verifyRecords)
	if err != nil {
		return nil, err
	}
	rep.Audit = &audit
	return rep, nil
}

// WriteLedgerJSON writes the report consumed by the perf-trajectory
// tracking (BENCH_ledger.json).
func WriteLedgerJSON(path string, rep *LedgerReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// PrintLedgerBench renders the report as tables.
func PrintLedgerBench(w io.Writer, rep *LedgerReport) {
	tw := newTab(w)
	fmt.Fprintf(tw, "clients\teager req/s\tbatched req/s\tspeedup\tp99 eager\tp99 batched\n")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%s\t%s\t%s\n",
			r.Clients, r.EagerRPS, r.BatchedRPS, fmtRatio(r.Speedup),
			time.Duration(r.EagerP99Ns), time.Duration(r.BatchedP99Ns))
	}
	tw.Flush()
	fmt.Fprintf(w, "offline verification: %d records (%d checkpoints, %d B dump) in %s (%.0f ns/record)\n",
		rep.VerifyRecords, rep.VerifyCheckpoints, rep.DumpBytes,
		time.Duration(rep.VerifyNs), rep.VerifyNsPerRecord)
	if rep.Audit != nil {
		PrintAudit(w, *rep.Audit)
	}
}
