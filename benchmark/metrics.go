package main

import (
	"math"
	"sort"
)

// A metric is one named number the benchmark prints. Every performance or
// simplicity claim about this repository is stated in these names.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	Bound float64
	// On lists the workloads that report the metric; nil means all five.
	On []string
}

// Workload names.
const (
	gwEcho      = "gw-echo"
	gwResize    = "gw-resize"
	aeCompute   = "ae-compute"
	deployCold  = "deploy-cold"
	ledgerAudit = "ledger-audit"
)

var (
	onGateway = []string{gwEcho, gwResize}
	onLedger  = []string{ledgerAudit}
)

// gatedMetrics are the end-to-end metrics every workload reports, measured
// with tracing off. They are BENCHMARK.json's end_to_end list: the driver
// requires each of them from every workload and never zero, so this list
// holds only what is honest on all five.
var gatedMetrics = []metric{
	// median wall time of one full set-up: input generation, construction,
	// prewarm, fixed warm-up ops
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// completed ops per second, upper quartile over the run's 1 s windows
	// (see quietRate; ledger-audit: durable appends/s, upper quartile over
	// the cycles of N / (appends + Compact + Close))
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// median op latency (ledger-audit: per 1000-append batch; ae-compute:
	// run_ms_geomean, because the median over a ten-program mix sits
	// between two programs' times and jumps from one to the other)
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// HeapAlloc after two runtime.GC() at the end of the timed run, before
	// teardown, with the benchmark's own samples released, less the same
	// reading before the workload's first set-up (deploy-cold: with every
	// module deployed once and retained)
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	// geometric mean over the workload's op kinds of the per-kind median op
	// time (ae-compute: per program; deploy-cold: per module; ledger-audit:
	// per cycle phase; gateways: one kind)
	{Name: "run_ms_geomean", Unit: "ms", Better: "lower", Bound: 0.25},
}

// specificMetrics are end-to-end metrics the driver does not gate: those that
// exist on one workload only (it wants every end-to-end metric from every
// workload) and latency_p99_ms, which does not repeat within any bound it
// accepts. They are printed by the full report, checked by -aa against these
// bounds, and mirrored in the per-layer list under their layer.
var specificMetrics = []metric{
	// failed ops / attempted ops; any rise is a regression (the driver reads
	// it from attempted/failed)
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
	// 99th percentile op latency over all timed ops (ledger-audit: per
	// 1000-append batch, so compaction stalls show). Not gated by the driver:
	// its ten-seed spread on the shared host reached 0.26 (deploy-cold),
	// over the largest bound the contract allows.
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// heap growth after GC with every compiled module retained, divided by
	// module count
	{Name: "compiled_kb_per_module", Unit: "KB", Better: "lower", Bound: 0.02, On: []string{deployCold}},
	// records per second through VerifySpillDir
	{Name: "verify_records_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: onLedger},
	// NewLedger on the closed spill directory
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, On: onLedger},
	// bytes on disk in the spill directory / records appended
	{Name: "spill_bytes_per_record", Unit: "B", Better: "lower", Bound: 0.01, On: onLedger},
}

// layerMetrics are BENCHMARK.json's per_layer list, measured by the traced
// run from outside each layer's public functions. A workload that never
// calls a layer reports 0 for it.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metric {
	ms := []metric{
		{Name: "wasm.decode_us", Unit: "us", Better: "lower", On: []string{deployCold}},      // binary.Decode p50
		{Name: "wasm.validate_us", Unit: "us", Better: "lower", On: []string{deployCold}},    // validate.Module p50
		{Name: "wasm.wat_parse_us", Unit: "us", Better: "lower", On: []string{deployCold}},   // wat.Parse of the WAT kernels p50
		{Name: "wasm.decode_mb_s", Unit: "MB/s", Better: "higher", On: []string{deployCold}}, // module bytes decoded / decode time

		{Name: "instrument.instrument_us", Unit: "us", Better: "lower", On: []string{deployCold}},        // instrument.Instrument (loop-based) p50
		{Name: "instrument.increments_placed", Unit: "count", Better: "lower", On: []string{deployCold}}, // Stats.IncrementsPlaced summed over the module set
		{Name: "instrument.size_ratio", Unit: "ratio", Better: "lower", On: []string{deployCold}},        // instrumented / original binary bytes over the module set
		{Name: "instrument.overhead_ratio", Unit: "ratio", Better: "lower", On: []string{aeCompute}},     // instrumented / uninstrumented invoke time, geomean over the mix

		{Name: "interp.compile_us", Unit: "us", Better: "lower", On: []string{deployCold}},                             // interp.Compile (all tiers, cost tables prewarmed) p50
		{Name: "interp.compiled_kb", Unit: "KB", Better: "lower", On: []string{deployCold}},                            // retained heap per compiled module
		{Name: "interp.instantiate_us", Unit: "us", Better: "lower", On: []string{deployCold}},                         // CompiledModule.Instantiate p50
		{Name: "interp.invoke_us", Unit: "us", Better: "lower", On: []string{gwEcho, gwResize, aeCompute, deployCold}}, // bare VM.InvokeExport p50 (ae-compute: geomean of per-program p50)
		{Name: "interp.minstr_s", Unit: "M/s", Better: "higher", On: []string{gwEcho, gwResize, aeCompute}},            // InstrCount / invoke time, millions per second
		{Name: "interp.pool_get_us", Unit: "us", Better: "lower", On: onGateway},                                       // InstancePool.Get with Reset of a dirtied instance p50
		{Name: "interp.payload_copy_us", Unit: "us", Better: "lower", On: onGateway},                                   // MemoryDirty+copy in plus MemoryView+copy out p50
		{Name: "interp.allocs_per_invoke", Unit: "count", Better: "lower", On: []string{gwEcho, gwResize, aeCompute}},  // heap allocations inside InvokeExport

		{Name: "sgx.epc_model_new_us", Unit: "us", Better: "lower", On: []string{gwEcho, gwResize, aeCompute, deployCold}}, // sgx.NewEPCModel p50 (called once per request and per Run)
		{Name: "sgx.epc_model_new_kb", Unit: "KB", Better: "lower", On: []string{gwEcho, gwResize, aeCompute, deployCold}}, // bytes allocated by one sgx.NewEPCModel
		{Name: "sgx.transitions_per_op", Unit: "count", Better: "lower", On: []string{gwEcho, gwResize, aeCompute}},        // Enclave.Transition calls per op
		{Name: "sgx.page_faults_per_op", Unit: "count", Better: "lower", On: []string{gwEcho, gwResize, aeCompute}},        // simulated EPC page faults per op
		{Name: "sgx.simulated_us_per_op", Unit: "us", Better: "lower", On: onGateway},                                      // (SimulatedCycles + transitions x TransitionCycles) / 3000: the time the gateway's burn spins, apart from real Go time
		{Name: "sgx.sign_us", Unit: "us", Better: "lower", On: onLedger},                                                   // Enclave.Sign p50

		{Name: "accounting.append_ns", Unit: "ns", Better: "lower", On: onLedger},                                             // Ledger.Append, one goroutine, resident store, mean
		{Name: "accounting.append_spill_ns", Unit: "ns", Better: "lower", On: onLedger},                                       // Ledger.Append, one goroutine, spill store, amortised over compactions
		{Name: "accounting.append_batch_p99_us", Unit: "us", Better: "lower", On: onLedger},                                   // p99 over batches of 1000 appends: foreground stalls from compaction
		{Name: "accounting.checkpoint_us", Unit: "us", Better: "lower", On: onLedger},                                         // Ledger.Checkpoint over 1000 new records p50
		{Name: "accounting.compact_ms", Unit: "ms", Better: "lower", On: onLedger},                                            // Ledger.Compact of a full resident tail p50
		{Name: "accounting.close_barrier_ms", Unit: "ms", Better: "lower", On: onLedger},                                      // Ledger.Close (drain and fsync) p50
		{Name: "accounting.dump_records_s", Unit: "1/s", Better: "higher", On: onLedger},                                      // records per second through WriteDump (binary) to a file
		{Name: "accounting.verify_stream_records_s", Unit: "1/s", Better: "higher", On: onLedger},                             // records per second through VerifyReader on the dump
		{Name: "accounting.verify_spill_ns_per_record", Unit: "ns", Better: "lower", On: onLedger},                            // VerifySpillDir time per record
		{Name: "accounting.recover_ms", Unit: "ms", Better: "lower", On: onLedger},                                            // NewLedger on the closed spill directory p50
		{Name: "accounting.spill_bytes_per_record", Unit: "B", Better: "lower", On: onLedger},                                 // spill directory bytes / records
		{Name: "accounting.resident_records", Unit: "count", Better: "lower", On: []string{gwEcho, gwResize, ledgerAudit}},    // Ledger.Resident at the end of the run
		{Name: "accounting.checkpoint_failures", Unit: "count", Better: "lower", On: []string{gwEcho, gwResize, ledgerAudit}}, // Ledger.CheckpointFailures, expected 0
		{Name: "accounting.degraded", Unit: "count", Better: "lower", On: []string{gwEcho, gwResize, ledgerAudit}},            // 1 if the spill pipeline degraded, expected 0

		{Name: "core.run_overhead_us", Unit: "us", Better: "lower", On: []string{aeCompute}},     // AccountingEnclave.Run minus the bare InvokeExport of the same program, mean over the mix of p50 differences
		{Name: "core.new_enclave_ms", Unit: "ms", Better: "lower", On: []string{deployCold}},     // NewAccountingEnclave p50
		{Name: "core.verify_evidence_us", Unit: "us", Better: "lower", On: []string{deployCold}}, // core.VerifyEvidence p50

		{Name: "faas.handler_us", Unit: "us", Better: "lower", On: onGateway},           // direct Server.ServeHTTP into an in-memory writer p50
		{Name: "faas.handler_self_us", Unit: "us", Better: "lower", On: onGateway},      // handler p50 minus layer-replay p50 (the replay root span): what the replay does not account for
		{Name: "faas.replay_coverage", Unit: "ratio", Better: "higher", On: onGateway},  // layer-replay p50 / handler p50; outside 0.90..1.10 the replay is missing a step
		{Name: "faas.http_overhead_us", Unit: "us", Better: "lower", On: onGateway},     // HTTP round trip p50 minus handler p50
		{Name: "faas.alloc_kb_per_op", Unit: "KB", Better: "lower", On: onGateway},      // bytes allocated per direct handler call
		{Name: "faas.allocs_per_op", Unit: "count", Better: "lower", On: onGateway},     // heap allocations per direct handler call
		{Name: "faas.new_server_ms", Unit: "ms", Better: "lower", On: onGateway},        // faas.NewServerWithOptions p50
		{Name: "faas.ledger_dump_ms", Unit: "ms", Better: "lower", On: onGateway},       // GET /ledger?bin=1 at the end of the traced run
		{Name: "faas.shed_total", Unit: "count", Better: "lower", On: onGateway},        // Server.Shed, expected 0
		{Name: "faas.interrupted_total", Unit: "count", Better: "lower", On: onGateway}, // Server.Interrupted, expected 0

		{Name: "loadgen.client_us", Unit: "us", Better: "lower", On: onGateway}, // round trip against a no-op handler p50: the generator's own share of faas.http_overhead_us
		{Name: "loadgen.window_iqr", Unit: "ratio", Better: "lower"},            // inter-quartile range of the per-window throughput / its median
		{Name: "loadgen.latency_p99_ms", Unit: "ms", Better: "lower"},           // 99th percentile op latency over the untraced segments: latency_p99_ms, demoted

		{Name: "runtime.cpu_ms_per_op", Unit: "ms", Better: "lower"},   // process CPU time (getrusage, user+system) per op
		{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"}, // TotalAlloc per op, whole process
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},    // GC cycles during the untraced segment
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},     // total GC pause during the untraced segment

		{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"}, // traced / untraced throughput_ops_s of the same closed loop
	}
	// One row per mix program, so an engine change that helps loop nests and
	// hurts calls shows both.
	for _, p := range computeMix {
		ms = append(ms, metric{Name: "interp.invoke_us." + p.Name, Unit: "us", Better: "lower",
			On: []string{aeCompute}})
	}
	return ms
}

// reportedOn says whether the metric is reported on the workload.
func (m metric) reportedOn(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// quantile returns the q-quantile of a sorted sample by linear
// interpolation (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns the sample in ascending order without touching it.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quietRate is the upper quartile of a run's window rates: the rate the
// program held in the quietest quarter of the run. The reference host is
// shared, its neighbours only ever slow a window, and when they are busy for
// about half a run the median window flips between the two levels: two
// ae-compute runs in such a spell (windows' inter-quartile range 36% and
// 24%) had a median window 25% under their neighbours' while the per-program
// median times were 17% over, and three such runs in ten put the spread over
// any bound the driver accepts. The program's own stalls (collections,
// compactions) come many to a second, so every window has its share of them.
func quietRate(rates []float64) float64 { return quantile(sortedCopy(rates), 0.75) }

// iqrShare is the inter-quartile range as a share of the median.
func iqrShare(v []float64) float64 {
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// geomean is the geometric mean of the positive entries.
func geomean(v []float64) float64 {
	var sum float64
	n := 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func total(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return total(v) / float64(len(v))
}
