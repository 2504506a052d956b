package bench

import (
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/faas"
	"acctee/internal/loadgen"
	"acctee/internal/sgx"
	"acctee/internal/workloads"
)

// This file is the multi-core saturation matrix: the same fixed offered
// load (16 concurrent gateway clients, or 8 concurrent ledger appenders)
// re-measured at GOMAXPROCS 1, 4 and 16, with each cell's throughput
// expressed as a ratio over the single-proc cell. After the contention pass
// (lane affinity on the ledger's shard pick, striped instance free-lists,
// padded shard state, atomic gateway counters) the ratios are the figure
// that shows the hot path actually spreads across cores instead of
// serialising on shared locks. The rows land in BENCH.json's scaling
// section.
//
// The ratios are only meaningful up to the host's physical parallelism:
// GOMAXPROCS 16 on a 4-core box measures scheduler pressure, not speedup,
// and on a single-core host every cell collapses to ~1.0x. A host with
// fewer than 4 CPUs records the section as skipped, and the smoke gate
// skips, so nobody mistakes a small machine for a contention regression.

// ScalingProcs is the GOMAXPROCS matrix.
var ScalingProcs = []int{1, 4, 16}

// ScalingTrials is the best-of count per cell.
var ScalingTrials = 3

// ScalingSmokeFloor is the bench-smoke gate: at GOMAXPROCS 4 both the
// pooled gateway and the bounded ledger must reach this multiple of their
// single-proc throughput. Enforced only on hosts with >= 4 CPUs.
const ScalingSmokeFloor = 1.8

// ScalingRow is one GOMAXPROCS cell.
type ScalingRow struct {
	GoMaxProcs int `json:"gomaxprocs"`
	// Workers is the fixed offered concurrency (gateway clients or
	// appender goroutines) — identical in every row, so the only variable
	// across rows is available parallelism.
	Workers int `json:"workers"`
	// Value is the cell's throughput (gateway req/s or ledger appends/s).
	Value float64 `json:"value"`
	// Scaling is Value over the GOMAXPROCS=1 row's Value.
	Scaling float64 `json:"scaling_vs_1proc"`
}

// Scaling is the manifest's scaling section: both GOMAXPROCS matrices, or
// the reason this host cannot run them. Never both, never carried over
// from another run.
type Scaling struct {
	Skipped             string       `json:"skipped,omitempty"`
	GatewayReqPerSec    []ScalingRow `json:"gateway_req_per_sec,omitempty"`
	LedgerAppendsPerSec []ScalingRow `json:"ledger_appends_per_sec,omitempty"`
}

// ScalingSkipped says why a host with this many CPUs cannot show a 4-proc
// speedup, or "" when it can: the one threshold the manifest section and
// the smoke gate share.
func ScalingSkipped(cpus int) string {
	if cpus >= 4 {
		return ""
	}
	return fmt.Sprintf("host has %d CPUs; GOMAXPROCS=4 cannot exceed one core's throughput", cpus)
}

// RunScaling measures both matrices, the gateway at faasRequests resize
// requests per cell and the ledger at ledgerRecords appends, on a host
// with at least 4 CPUs.
func RunScaling(faasRequests, ledgerRecords int) (*Scaling, error) {
	if reason := ScalingSkipped(runtime.NumCPU()); reason != "" {
		return &Scaling{Skipped: reason}, nil
	}
	gw, err := RunFaaSScaling(faasRequests, nil)
	if err != nil {
		return nil, err
	}
	led, err := RunLedgerScaling(ledgerRecords, nil)
	if err != nil {
		return nil, err
	}
	return &Scaling{GatewayReqPerSec: gw, LedgerAppendsPerSec: led}, nil
}

// stampScaling fills each row's ratio over the procs=1 row.
func stampScaling(rows []ScalingRow) {
	var base float64
	for _, r := range rows {
		if r.GoMaxProcs == 1 {
			base = r.Value
		}
	}
	if base <= 0 {
		return
	}
	for i := range rows {
		rows[i].Scaling = rows[i].Value / base
	}
}

// bestOfProcs runs cell() ScalingTrials times under the given GOMAXPROCS
// (restoring the ambient value) and returns the fastest throughput.
func bestOfProcs(procs int, cell func() (float64, error)) (float64, error) {
	ambient := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(ambient)
	var best float64
	for t := 0; t < ScalingTrials; t++ {
		v, err := cell()
		if err != nil {
			return 0, err
		}
		if v > best {
			best = v
		}
	}
	return best, nil
}

// FaaSScalingClients is the fixed gateway concurrency of the matrix (the
// paper's h2load runs use 10; 16 keeps every GOMAXPROCS cell oversubscribed).
const FaaSScalingClients = 16

// runFaaSScalingCell serves `requests` resize requests from a pooled
// gateway at the current GOMAXPROCS and returns req/s.
func runFaaSScalingCell(requests int) (float64, error) {
	const imgSide = 24
	payload := workloads.TestImage(imgSide, imgSide)
	srv, err := faas.NewServerWithOptions(faas.Resize, faas.SetupWASM,
		faas.ServerOptions{PoolPrewarm: FaaSScalingClients})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	res := loadgen.GenerateLoad(ts.URL, FaaSScalingClients, requests, payload, imgSide, imgSide)
	if res.Errors > 0 {
		return 0, fmt.Errorf("bench: faas scaling cell: %d failed requests", res.Errors)
	}
	return res.ReqPerSec, nil
}

// RunFaaSScaling measures pooled-gateway throughput across the GOMAXPROCS
// matrix at a fixed 16-client load.
func RunFaaSScaling(requests int, procs []int) ([]ScalingRow, error) {
	if requests < 1 {
		requests = 1
	}
	if len(procs) == 0 {
		procs = ScalingProcs
	}
	var rows []ScalingRow
	for _, p := range procs {
		v, err := bestOfProcs(p, func() (float64, error) { return runFaaSScalingCell(requests) })
		if err != nil {
			return nil, fmt.Errorf("bench: faas scaling at %d procs: %w", p, err)
		}
		rows = append(rows, ScalingRow{GoMaxProcs: p, Workers: FaaSScalingClients, Value: v})
	}
	stampScaling(rows)
	return rows, nil
}

// LedgerScalingAppenders is the fixed appender concurrency of the matrix.
const LedgerScalingAppenders = 8

// runLedgerScalingCell appends `records` records from LedgerScalingAppenders
// concurrent goroutines to a bounded 4-shard ledger at the current
// GOMAXPROCS and returns appends/s. Bounded retention (the gateway's
// steady-state configuration) keeps compaction on the measured path.
func runLedgerScalingCell(records int) (float64, error) {
	encl, err := sgx.NewEnclave([]byte("scaling-bench AE"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		return 0, err
	}
	l, err := accounting.NewLedger(encl, accounting.LedgerOptions{
		Shards:    4,
		Retention: accounting.RetentionPolicy{MaxResidentRecords: RetentionMaxResident},
	})
	if err != nil {
		return 0, err
	}
	defer l.Close()

	each := records / LedgerScalingAppenders
	var wg sync.WaitGroup
	errs := make(chan error, LedgerScalingAppenders)
	t0 := time.Now()
	for g := 0; g < LedgerScalingAppenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			log := accounting.UsageLog{
				WorkloadHash:         [32]byte{byte(g)},
				WeightedInstructions: 1_000_000,
				PeakMemoryBytes:      1 << 20,
				Policy:               accounting.PeakMemory,
			}
			for i := 0; i < each; i++ {
				log.SimulatedCycles = uint64(i)
				if _, _, err := l.Append(log); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	close(errs)
	for err := range errs {
		return 0, err
	}
	return float64(each*LedgerScalingAppenders) / elapsed, nil
}

// RunLedgerScaling measures bounded-ledger append throughput across the
// GOMAXPROCS matrix at a fixed 8-appender load.
func RunLedgerScaling(records int, procs []int) ([]ScalingRow, error) {
	if records < LedgerScalingAppenders {
		records = LedgerScalingAppenders
	}
	if len(procs) == 0 {
		procs = ScalingProcs
	}
	var rows []ScalingRow
	for _, p := range procs {
		v, err := bestOfProcs(p, func() (float64, error) { return runLedgerScalingCell(records) })
		if err != nil {
			return nil, fmt.Errorf("bench: ledger scaling at %d procs: %w", p, err)
		}
		rows = append(rows, ScalingRow{GoMaxProcs: p, Workers: LedgerScalingAppenders, Value: v})
	}
	stampScaling(rows)
	return rows, nil
}

// ScalingSmokeResult is the bench-smoke scaling gate's measurement.
type ScalingSmokeResult struct {
	// HostCPUs decides whether the gate is enforceable: a host with fewer
	// than 4 CPUs cannot speed up at GOMAXPROCS 4, so the gate reports and
	// skips instead of failing on machine size.
	HostCPUs int
	// FaaS / Ledger are the GOMAXPROCS 4-vs-1 throughput ratios.
	FaaS   float64
	Ledger float64
}

// Enforceable reports whether the host has the parallelism the gate needs.
func (r ScalingSmokeResult) Enforceable() bool { return ScalingSkipped(r.HostCPUs) == "" }

// Pass applies the ScalingSmokeFloor to both ratios.
func (r ScalingSmokeResult) Pass() bool {
	return r.FaaS >= ScalingSmokeFloor && r.Ledger >= ScalingSmokeFloor
}

// RunScalingSmoke measures the GOMAXPROCS 4-vs-1 ratio for the pooled
// gateway and the bounded ledger at smoke-sized loads. The caller gates on
// Pass() only when Enforceable().
func RunScalingSmoke() (ScalingSmokeResult, error) {
	res := ScalingSmokeResult{HostCPUs: runtime.NumCPU()}
	faasRows, err := RunFaaSScaling(300, []int{1, 4})
	if err != nil {
		return res, err
	}
	ledgerRows, err := RunLedgerScaling(100_000, []int{1, 4})
	if err != nil {
		return res, err
	}
	for _, r := range faasRows {
		if r.GoMaxProcs == 4 {
			res.FaaS = r.Scaling
		}
	}
	for _, r := range ledgerRows {
		if r.GoMaxProcs == 4 {
			res.Ledger = r.Scaling
		}
	}
	return res, nil
}

// PrintScaling renders the section: the two matrices, or why not.
func PrintScaling(w io.Writer, s *Scaling) {
	if s.Skipped != "" {
		fmt.Fprintf(w, "skipped: %s\n", s.Skipped)
		return
	}
	for _, m := range []struct {
		label string
		rows  []ScalingRow
	}{{"pooled resize gateway, req/s", s.GatewayReqPerSec}, {"bounded 4-shard ledger, appends/s", s.LedgerAppendsPerSec}} {
		fmt.Fprintf(w, "%s (workers: %d)\n", m.label, m.rows[0].Workers)
		tw := newTab(w)
		fmt.Fprintln(tw, "gomaxprocs\tthroughput\tvs 1 proc")
		for _, r := range m.rows {
			fmt.Fprintf(tw, "%d\t%.0f\t%s\n", r.GoMaxProcs, r.Value, fmtRatio(r.Scaling))
		}
		tw.Flush()
	}
}
