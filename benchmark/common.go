package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// env is what every workload takes from the command line.
type env struct {
	seed    uint64
	clients int    // C, the closed-loop client count
	outDir  string // trace files and spill directories live here
	// scale is -duration-scale, at most 1: a smoke run cuts the fixed work
	// too (records per ledger cycle, repeats of single-call timings).
	scale float64
}

// scaled is n cut by the smoke scale, at least floor.
func (e env) scaled(n, floor int) int {
	return max(int(float64(n)*e.scale), floor)
}

// tally counts ops and end-of-run checks. A failed check is a failed op.
type tally struct {
	attempted int
	failed    int
	firstErr  error
}

// check counts one op or verification, failed when err is set.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// absorb adds another tally's counts.
func (t *tally) absorb(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// result is one untraced run of one workload.
type result struct {
	tally
	// values holds every end-to-end metric the workload reports, by name.
	values map[string]float64
	// notes are printed under the workload's rows: sample counts, spreads,
	// what the barrier was.
	notes []string
}

// traceResult is one traced run of one workload.
type traceResult struct {
	tally
	values map[string]float64 // per-layer metrics by name
	spans  []span
	notes  []string
}

// workload is one set of inputs and the system they drive.
type workload interface {
	// setup generates the inputs from the seed, builds the system under
	// test and runs the fixed warm-up ops. Its wall time is setup_s.
	setup() error
	// run is the timed run with tracing off, followed by the end-of-run
	// output checks.
	run(d time.Duration) result
	// trace is the separate traced run over the same inputs.
	trace(d time.Duration) traceResult
	// close tears down what setup built.
	close()
}

func newWorkload(name string, e env) (workload, error) {
	s, ok := specByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	switch name {
	case gwEcho, gwResize:
		return newGateway(s, e), nil
	case aeCompute:
		return newCompute(s, e), nil
	case deployCold:
		return newDeploy(s, e), nil
	default:
		return newAudit(s, e), nil
	}
}

// rng is splitmix64: small, seedable, and the same on every platform, so a
// seed names its inputs exactly.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) bytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// walk returns the i-th stop of client c on a seeded order that every client
// walks round and round, each from its own starting point.
func walk(order []int, clients, c, i int) int {
	n := len(order)
	return order[(c*n/clients+i)%n]
}

// liveHeapMB is HeapAlloc after two collections; the second empties the
// sync.Pool victim caches, so pooled instances nobody holds do not count.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocsPer reports the mean heap allocations and kilobytes of one fn call.
func allocsPer(n int, fn func()) (allocs, kb float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024
}

// spin busy-waits, as the gateway's burn does for simulated SGX cycles.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// simulatedTime converts simulated cycles to wall time at the gateway's
// assumed 3 GHz.
func simulatedTime(cycles uint64) time.Duration {
	return time.Duration(cycles) * time.Nanosecond / 3
}

// runOps runs perClient ops on each of `clients` goroutines and returns the
// first error: the warm-up, which has no clock.
func runOps(clients, perClient int, op opFunc) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, _, err := op(c, i); err != nil {
					errs[c] = fmt.Errorf("warm-up client %d op %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// traceRounds is how often loopTrace alternates untraced and traced
// segments: drift over the run (heap growth, page cache) then lands on both
// sides of trace.overhead_ratio.
const traceRounds = 2

// loopTrace runs the workload's loop untraced (ts nil) and traced by turns,
// d in all, and fills the loadgen, runtime and trace metrics every workload
// reports.
func loopTrace(d time.Duration, tr *traceResult, ts *tracers, loop func(d time.Duration, ts *tracers) runResult) {
	segment := d / (2 * traceRounds)
	var plainWindows, tracedWindows, plainMS []float64
	var used runtimeCounters
	var ops float64
	for round := 0; round < traceRounds; round++ {
		before := readRuntime()
		plain := loop(segment, nil)
		used.add(readRuntime(), before)
		ops += float64(plain.attempted - plain.failed)
		plainWindows = append(plainWindows, plain.rates...)
		for _, s := range plain.samples {
			plainMS = append(plainMS, float64(s.lat)/float64(time.Millisecond))
		}
		tr.absorb(plain.tally)

		traced := loop(segment, ts)
		tracedWindows = append(tracedWindows, traced.rates...)
		tr.absorb(traced.tally)
	}
	if ops > 0 {
		tr.values["runtime.cpu_ms_per_op"] = used.cpu.Seconds() * 1e3 / ops
		tr.values["runtime.alloc_kb_per_op"] = float64(used.totalAlloc) / 1024 / ops
	}
	tr.values["runtime.gc_cycles"] = float64(used.numGC)
	tr.values["runtime.gc_pause_ms"] = float64(used.pauseNS) / 1e6
	tr.values["loadgen.window_iqr"] = iqrShare(plainWindows)
	tr.values["loadgen.latency_p99_ms"] = quantile(sortedCopy(plainMS), 0.99)
	// The few windows of each side are equally long, so their mean rate is
	// the side's ops over its time.
	if plain := mean(plainWindows); plain > 0 {
		tr.values["trace.overhead_ratio"] = mean(tracedWindows) / plain
	}
}

// runtimeCounters is a reading of the process-wide counters.
type runtimeCounters struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
}

// add accumulates the counters spent between two readings.
func (c *runtimeCounters) add(after, before runtimeCounters) {
	c.cpu += after.cpu - before.cpu
	c.totalAlloc += after.totalAlloc - before.totalAlloc
	c.numGC += after.numGC - before.numGC
	c.pauseNS += after.pauseNS - before.pauseNS
}

// processCPU is the process's user plus system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{cpu: processCPU(), totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// scratchDir makes a fresh directory under the benchmark's out directory.
func scratchDir(e env, prefix string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, prefix+"-")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// fillEndToEnd stores the metrics common to every closed-loop workload.
func fillEndToEnd(values map[string]float64, sum summary) {
	values["throughput_ops_s"] = sum.throughput
	values["latency_p50_ms"] = sum.p50ms
	values["latency_p99_ms"] = sum.p99ms
	values["run_ms_geomean"] = sum.geomeanMs
}

// spreadNote states what the figures were taken from.
func spreadNote(sum summary) string {
	return fmt.Sprintf("throughput is the windows' upper quartile (their median %.4f/s, inter-quartile range %.1f%% of it); percentiles are over all %d timed ops",
		sum.allWindows, 100*sum.windowIQR, sum.samples)
}
