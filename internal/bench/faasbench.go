package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"acctee/internal/faas"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/workloads"
)

// This file is the compile-once/run-many gateway experiment (the Fig. 9
// infrastructure re-measured around the CompiledModule artifact): how much
// per-request sandbox setup the shared artifact and instance pool save, and
// how gateway throughput scales with concurrent clients. The report lands
// in BENCH_faas.json next to BENCH_interp.json as part of the perf
// trajectory.

// FaaSClientCounts is the default concurrency sweep.
var FaaSClientCounts = []int{1, 4, 16}

// LatencyStats summarise a latency sample in nanoseconds.
type LatencyStats struct {
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MeanNs int64 `json:"mean_ns"`
}

// FaaSThroughputRow is one client-count measurement of the resize gateway
// (pooled instances over the cached CompiledModule). The recompile-per-
// request baseline it used to be compared against is recorded in this
// file's git history.
type FaaSThroughputRow struct {
	Clients          int     `json:"clients"`
	Requests         int     `json:"requests"`
	PooledRPS        float64 `json:"pooled_req_per_sec"`
	PooledErrors     int     `json:"pooled_errors"`
	PooledReqsServed int     `json:"pooled_requests_completed"`
}

// FaaSReport is the BENCH_faas.json payload.
type FaaSReport struct {
	Stamp
	Function string `json:"function"`
	Setup    string `json:"setup"`
	// GOMAXPROCS contextualises the throughput scaling: on a single-CPU
	// host concurrent clients cannot exceed one core's throughput.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Per-request sandbox setup latency on the resize function:
	// CompileInstantiate re-runs the full lowering pass per request (seed
	// behaviour); CachedInstantiate instantiates from one shared artifact;
	// PooledReset recycles an instance through the pool's deterministic
	// Reset.
	Samples            int          `json:"samples"`
	CompileInstantiate LatencyStats `json:"compile_instantiate"`
	CachedInstantiate  LatencyStats `json:"cached_instantiate"`
	PooledReset        LatencyStats `json:"pooled_reset"`
	// SpeedupP50 is CompileInstantiate.P50 / PooledReset.P50 — the
	// single-client instantiate-latency improvement.
	SpeedupP50 float64             `json:"instantiate_speedup_p50"`
	Rows       []FaaSThroughputRow `json:"throughput"`
	// Scaling holds the GOMAXPROCS matrix (acctee-bench -fig scaling); the
	// two figures update their own sections of BENCH_faas.json without
	// clobbering each other.
	Scaling *ScalingReport `json:"scaling,omitempty"`
}

// LoadFaaSJSON reads an existing BENCH_faas.json, so one figure can update
// its section while preserving the other's. A missing or unparsable file
// yields nil.
func LoadFaaSJSON(path string) *FaaSReport {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep FaaSReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil
	}
	return &rep
}

func summarise(ns []int64) LatencyStats {
	if len(ns) == 0 {
		return LatencyStats{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	var sum int64
	for _, v := range ns {
		sum += v
	}
	pct := func(p float64) int64 {
		i := int(p * float64(len(ns)-1))
		return ns[i]
	}
	return LatencyStats{P50Ns: pct(0.50), P99Ns: pct(0.99), MeanNs: sum / int64(len(ns))}
}

// RunFaaSBench measures sandbox setup latency and gateway throughput.
// samples is the per-variant latency sample count; requests the per-row
// load-generator total.
func RunFaaSBench(samples, requests int, clientCounts []int) (*FaaSReport, error) {
	if samples < 10 {
		samples = 10
	}
	if requests < 1 {
		requests = 1
	}
	if len(clientCounts) == 0 {
		clientCounts = FaaSClientCounts
	}

	// The instrumented resize function, as deployed by the hw-instr setup.
	m, err := workloads.BuildResize()
	if err != nil {
		return nil, err
	}
	res, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
	if err != nil {
		return nil, err
	}
	m = res.Module

	rep := &FaaSReport{
		Stamp:      NewStamp(),
		Function:   "resize",
		Setup:      "WASM",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Samples:    samples,
	}

	// 1) Per-request setup latency.
	timeIt := func(f func() error) (int64, error) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		return time.Since(t0).Nanoseconds(), nil
	}
	collect := func(f func() error) ([]int64, error) {
		ns := make([]int64, 0, samples)
		for i := 0; i < samples; i++ {
			d, err := timeIt(f)
			if err != nil {
				return nil, err
			}
			ns = append(ns, d)
		}
		return ns, nil
	}

	full, err := collect(func() error {
		_, err := interp.Instantiate(m, interp.Config{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: per-request compile: %w", err)
	}
	rep.CompileInstantiate = summarise(full)

	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		return nil, err
	}
	cached, err := collect(func() error {
		_, err := cm.Instantiate(interp.Config{})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: cached instantiate: %w", err)
	}
	rep.CachedInstantiate = summarise(cached)

	pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{Prewarm: 1})
	if err != nil {
		return nil, err
	}
	// Between timed Gets the instance serves a real request, so every timed
	// Reset re-zeroes genuinely dirtied memory — the steady-state gateway
	// cost, not the reset of a pristine instance.
	const latImgSide = 24
	latPayload := workloads.TestImage(latImgSide, latImgSide)
	serve := func(vm *interp.VM) error {
		in, err := vm.MemoryDirty(workloads.InBase, uint32(len(latPayload)))
		if err != nil {
			return err
		}
		copy(in, latPayload)
		_, err = vm.InvokeExport("run", latImgSide, latImgSide)
		return err
	}
	if vm, err := pool.Get(interp.Config{}); err != nil {
		return nil, err
	} else if err := serve(vm); err != nil {
		return nil, err
	} else {
		pool.Put(vm)
	}
	pooled := make([]int64, 0, samples)
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		vm, err := pool.Get(interp.Config{})
		if err != nil {
			return nil, fmt.Errorf("bench: pooled reset: %w", err)
		}
		pooled = append(pooled, time.Since(t0).Nanoseconds())
		if err := serve(vm); err != nil {
			return nil, fmt.Errorf("bench: pooled serve: %w", err)
		}
		pool.Put(vm)
	}
	rep.PooledReset = summarise(pooled)
	if rep.PooledReset.P50Ns > 0 {
		rep.SpeedupP50 = float64(rep.CompileInstantiate.P50Ns) / float64(rep.PooledReset.P50Ns)
	}

	// 2) Gateway throughput on the pooled serving path.
	const imgSide = 24
	payload := workloads.TestImage(imgSide, imgSide)
	for _, clients := range clientCounts {
		srv, err := faas.NewServerWithOptions(faas.Resize, faas.SetupWASM, faas.ServerOptions{PoolPrewarm: clients})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv)
		res := faas.GenerateLoad(ts.URL, clients, requests, payload, imgSide, imgSide)
		ts.Close()
		rep.Rows = append(rep.Rows, FaaSThroughputRow{
			Clients:          clients,
			Requests:         requests,
			PooledRPS:        res.ReqPerSec,
			PooledErrors:     res.Errors,
			PooledReqsServed: res.Requests,
		})
	}
	return rep, nil
}

// WriteFaaSJSON writes the report consumed by the perf-trajectory tracking
// (BENCH_faas.json).
func WriteFaaSJSON(path string, rep *FaaSReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// PrintFaaSBench renders the report as tables.
func PrintFaaSBench(w io.Writer, rep *FaaSReport) {
	tw := newTab(w)
	fmt.Fprintln(tw, "sandbox setup (resize)\tp50\tp99\tmean")
	rows := []struct {
		name string
		s    LatencyStats
	}{
		{"compile+instantiate (seed)", rep.CompileInstantiate},
		{"cached artifact instantiate", rep.CachedInstantiate},
		{"pooled reset", rep.PooledReset},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.name,
			time.Duration(r.s.P50Ns), time.Duration(r.s.P99Ns), time.Duration(r.s.MeanNs))
	}
	tw.Flush()
	fmt.Fprintf(w, "p50 instantiate speedup: %s\n\n", fmtRatio(rep.SpeedupP50))

	tw = newTab(w)
	fmt.Fprintln(tw, "clients\tpooled req/s\terrors")
	for _, r := range rep.Rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%d\n", r.Clients, r.PooledRPS, r.PooledErrors)
	}
	tw.Flush()
}
