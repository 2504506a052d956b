// Command benchmark is this repository's one benchmark: five workloads that
// between them reach every layer (wasm, instrument, interp, sgx, accounting,
// core, faas), end-to-end metrics measured with tracing off, and a separate
// traced run per workload that times the calls into each layer's public
// functions from outside. See README.md in this directory.
//
//	go run ./benchmark                                   every workload, untraced then traced
//	go run ./benchmark -workload gw-echo -trace 0        one untraced run (what the driver calls)
//	go run ./benchmark -aa                               the whole set twice, compared against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// defaultSeed is the recorded default; the driver passes its own.
const defaultSeed = 1

// fullSetups is how many times a full-length untraced run sets up: setup_s
// is their median, so one slow key generation does not move it.
const fullSetups = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	trace    string // "0", "1" or "" for both
	aa       bool
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of every generated input: payload bytes, program order, usage-log values")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of one timed run")
	fs.Float64Var(&o.scale, "duration-scale", 1, "multiplies -seconds (and, below 1, the set-up repeats, ledger-audit's records per cycle and the repeats of single-call timings); for smoke tests")
	fs.StringVar(&o.trace, "trace", "", "0: untraced run only; 1: traced run only; default both")
	fs.BoolVar(&o.aa, "aa", false, "run the whole set twice on this binary and compare against the bounds")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files and scratch spill directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0 or 1\n", o.trace)
		return 2
	}
	if o.seconds <= 0 || o.scale <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -duration-scale must be positive")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, s := range specs {
			names = append(names, s.Name)
		}
	} else if _, ok := specByName(o.workload); !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}

	man := newManifest(o)
	man.print(stdout)
	first := runSet(o, names, stdout)
	code := 0
	if !first.correct() {
		code = 1
	}
	if o.aa {
		fmt.Fprintln(stdout, "\n== A/A: second set on the same binary ==")
		second := runSet(o, names, stdout)
		if !second.correct() {
			code = 1
		}
		if !compareSets(stdout, first, second) && code == 0 {
			code = 3
		}
	}
	if err := first.writeLastLine(stdout, man, o); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

// manifest stamps an invocation: every number it prints comes from this one
// run of this one binary.
type manifest struct {
	Commit       string  `json:"commit"`
	HostCPUs     int     `json:"host_cpus"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Seed         uint64  `json:"seed"`
	Clients      int     `json:"clients"`
	LoadShape    string  `json:"load_shape"`
	RunSeconds   float64 `json:"run_seconds"`
	SetupRepeats int     `json:"setup_repeats"`
	FlushPolicy  string  `json:"flush_policy"`
}

func newManifest(o options) manifest {
	m := manifest{
		Commit:       "unknown",
		HostCPUs:     runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Seed:         o.seed,
		Clients:      clientCount(),
		LoadShape:    "closed loop: each client sends its next op only after the previous reply",
		RunSeconds:   o.seconds * o.scale,
		SetupRepeats: setupRepeats(o.scale),
		FlushPolicy:  "no fsync per append or per request; sealed segments spill asynchronously; Ledger.Close is the only fsync barrier",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+dirty"
				}
			}
		}
	}
	return m
}

func (m manifest) print(w io.Writer) {
	fmt.Fprintf(w, "acctee benchmark  commit=%s host_cpus=%d GOMAXPROCS=%d %s\n", m.Commit, m.HostCPUs, m.GOMAXPROCS, m.GoVersion)
	fmt.Fprintf(w, "seed=%d  C=%d clients, %s\n", m.Seed, m.Clients, m.LoadShape)
	fmt.Fprintf(w, "timed run %.2f s per workload, setup_s is the median of %d set-ups\n", m.RunSeconds, m.SetupRepeats)
	fmt.Fprintf(w, "flush policy: %s\n", m.FlushPolicy)
}

// clientCount is C = GOMAXPROCS/2, at least 1 and at most maxClients. It is
// part of the frozen workload definition, so no flag overrides it. Only half
// the processors drive load: the rest is left to the server's goroutines,
// the collector and the spill writers. On the 2-vCPU reference host that is
// one client, by measurement: with two, both vCPUs are busy and whenever the
// hypervisor schedules them onto one physical core every op slows by half
// for seconds at a time (resize p50 11.9 to 18.0 ms between back-to-back
// runs, against 12.0 to 13.2 ms with one client).
func clientCount() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	if n > maxClients {
		n = maxClients
	}
	return n
}

func setupRepeats(scale float64) int {
	n := int(math.Round(fullSetups * math.Min(scale, 1)))
	if n < 1 {
		n = 1
	}
	return n
}

// outcome is what one workload produced in one set.
type outcome struct {
	name      string
	untraced  *result
	traced    *traceResult
	traceFile string
}

type set []outcome

func (s set) correct() bool {
	for _, o := range s {
		if o.untraced != nil && o.untraced.failed > 0 {
			return false
		}
		if o.traced != nil && o.traced.failed > 0 {
			return false
		}
	}
	return true
}

// runSet runs every named workload: untraced unless -trace 1, traced unless
// -trace 0.
func runSet(o options, names []string, w io.Writer) set {
	e := env{seed: o.seed, clients: clientCount(), outDir: o.outDir, scale: math.Min(o.scale, 1)}
	d := time.Duration(o.seconds * o.scale * float64(time.Second))
	var out set
	for _, name := range names {
		oc := outcome{name: name}
		if o.trace != "1" {
			res := runUntraced(name, e, d, setupRepeats(o.scale))
			oc.untraced = &res
			printUntraced(w, name, d, res)
		}
		if o.trace != "0" {
			tr := runTraced(name, e, d)
			oc.traced = &tr
			var err error
			if oc.traceFile, err = writeTrace(e.outDir, name, e.seed, tr.spans); err != nil {
				tr.check(fmt.Errorf("write trace: %w", err))
			}
			tr.spans = nil
			printTraced(w, name, tr, oc.traceFile)
		}
		out = append(out, oc)
	}
	return out
}

// runUntraced sets the workload up `setups` times (setup_s is the median),
// then times the last instance.
func runUntraced(name string, e env, d time.Duration, setups int) result {
	// What earlier workloads of this process left on the heap is not this
	// workload's.
	before := liveHeapMB()
	var setupS []float64
	for k := 0; ; k++ {
		w, err := newWorkload(name, e)
		if err != nil {
			return failedResult(err)
		}
		t0 := time.Now()
		err = w.setup()
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return failedResult(fmt.Errorf("set-up: %w", err))
		}
		if k < setups-1 {
			w.close()
			continue
		}
		res := w.run(d)
		w.close()
		res.values["live_heap_mb"] -= before
		res.values["setup_s"] = median(setupS)
		res.values["failed_share"] = float64(res.failed) / float64(res.attempted)
		return res
	}
}

func failedResult(err error) result {
	return result{tally: tally{attempted: 1, failed: 1, firstErr: err}, values: map[string]float64{"failed_share": 1}}
}

func runTraced(name string, e env, d time.Duration) traceResult {
	tr := traceResult{values: map[string]float64{}}
	w, err := newWorkload(name, e)
	if err != nil {
		tr.check(err)
		return tr
	}
	defer w.close()
	if err := w.setup(); err != nil {
		tr.check(fmt.Errorf("set-up: %w", err))
		return tr
	}
	return w.trace(d)
}

func printUntraced(w io.Writer, name string, d time.Duration, res result) {
	fmt.Fprintf(w, "\n== %s: untraced, %.2f s timed ==\n", name, d.Seconds())
	printMetrics(w, name, res.values, gatedMetrics, true)
	printMetrics(w, name, res.values, specificMetrics, true)
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if res.firstErr != nil {
		fmt.Fprintf(w, "  FIRST FAILURE: %v\n", res.firstErr)
	}
}

func printTraced(w io.Writer, name string, tr traceResult, file string) {
	fmt.Fprintf(w, "\n== %s: traced (per layer) ==\n", name)
	printMetrics(w, name, tr.values, layerMetrics, false)
	fmt.Fprintf(w, "  attempted %d, failed %d; spans in %s\n", tr.attempted, tr.failed, file)
	for _, n := range tr.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if tr.firstErr != nil {
		fmt.Fprintf(w, "  FIRST FAILURE: %v\n", tr.firstErr)
	}
}

// printMetrics prints the metrics the workload reports, by name and unit.
func printMetrics(w io.Writer, workload string, values map[string]float64, ms []metric, bounds bool) {
	for _, m := range ms {
		if !m.reportedOn(workload) {
			continue
		}
		line := fmt.Sprintf("  %-38s %14.4f %-6s (%s is better", m.Name, values[m.Name], m.Unit, m.Better)
		if bounds {
			if m.Bound > 0 {
				line += fmt.Sprintf(", bound %.2f", m.Bound)
			} else {
				line += ", any rise is a regression"
			}
		}
		fmt.Fprintln(w, line+")")
	}
}

// compareSets prints, per end-to-end metric and workload, both sets' values,
// their relative difference, and whether the second is within the metric's
// bound of the first.
func compareSets(w io.Writer, a, b set) bool {
	fmt.Fprintf(w, "\n== A/A comparison: second set against first, per bound ==\n")
	ok := true
	for i := range a {
		if a[i].untraced == nil || b[i].untraced == nil {
			continue
		}
		for _, m := range append(append([]metric{}, gatedMetrics...), specificMetrics...) {
			if !m.reportedOn(a[i].name) {
				continue
			}
			x, y := a[i].untraced.values[m.Name], b[i].untraced.values[m.Name]
			worse := 0.0
			if x != 0 {
				worse = (y - x) / x
				if m.Better == "higher" {
					worse = -worse
				}
			} else if y > 0 {
				worse = math.Inf(1)
			}
			verdict := "pass"
			if worse > m.Bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "  %-12s %-24s %14.4f %14.4f  worse by %+7.2f%%  bound %5.2f%%  %s\n",
				a[i].name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	return ok
}

// jsonMetric is one value of the last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func jsonMetrics(values map[string]float64, ms []metric) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		out[m.Name] = jsonMetric{Value: values[m.Name], Unit: m.Unit}
	}
	return out
}

// driverLine is the last line of a single-workload, single-mode run, in the
// shape the driver reads.
type driverLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeLastLine prints the run's one JSON object as the last line of output:
// the driver's shape for one workload in one mode, otherwise the manifest
// with every workload's numbers.
func (s set) writeLastLine(w io.Writer, man manifest, o options) error {
	enc := json.NewEncoder(w)
	if len(s) == 1 && o.trace != "" {
		oc := s[0]
		line := driverLine{}
		if oc.untraced != nil {
			line = driverLine{oc.untraced.failed == 0, oc.untraced.attempted, oc.untraced.failed,
				jsonMetrics(oc.untraced.values, gatedMetrics)}
		} else {
			line = driverLine{oc.traced.failed == 0, oc.traced.attempted, oc.traced.failed,
				jsonMetrics(oc.traced.values, layerMetrics)}
		}
		if line.Attempted < 1 {
			return errors.New("no op was attempted")
		}
		fmt.Fprintln(w)
		return enc.Encode(line)
	}
	type workloadJSON struct {
		Correct          bool                  `json:"correct"`
		Attempted        int                   `json:"attempted"`
		Failed           int                   `json:"failed"`
		EndToEnd         map[string]jsonMetric `json:"end_to_end,omitempty"`
		WorkloadSpecific map[string]jsonMetric `json:"workload_specific,omitempty"`
		PerLayer         map[string]jsonMetric `json:"per_layer,omitempty"`
	}
	doc := struct {
		Manifest  manifest                `json:"manifest"`
		Workloads map[string]workloadJSON `json:"workloads"`
	}{Manifest: man, Workloads: map[string]workloadJSON{}}
	for _, oc := range s {
		wj := workloadJSON{Correct: true}
		if r := oc.untraced; r != nil {
			wj.Attempted += r.attempted
			wj.Failed += r.failed
			wj.EndToEnd = jsonMetrics(r.values, gatedMetrics)
			var mine []metric
			for _, m := range specificMetrics {
				if m.reportedOn(oc.name) {
					mine = append(mine, m)
				}
			}
			wj.WorkloadSpecific = jsonMetrics(r.values, mine)
		}
		if t := oc.traced; t != nil {
			wj.Attempted += t.attempted
			wj.Failed += t.failed
			wj.PerLayer = jsonMetrics(t.values, layerMetrics)
		}
		wj.Correct = wj.Failed == 0
		doc.Workloads[oc.name] = wj
	}
	fmt.Fprintln(w)
	return enc.Encode(doc)
}
