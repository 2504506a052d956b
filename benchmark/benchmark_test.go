package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeAllEnv widens TestSmoke from one workload to all five.
const smokeAllEnv = "ACCTEE_BENCHMARK_SMOKE_ALL"

// TestSmoke runs the benchmark, untraced and traced, at a fiftieth of the
// length (the fixed work is cut by the same scale), and checks what it
// promises about its own output: every named metric present and finite,
// end-to-end metrics never zero, no failed op, a trace file whose span IDs
// are unique and whose self times are not negative, done in seconds.
//
// By default it runs gw-echo alone, about a second: the workload that
// reaches the most layers (net/http, faas, interp, sgx, accounting) and the
// three-way decomposition. With ACCTEE_BENCHMARK_SMOKE_ALL=1 it runs all
// five, about 7 s. The default is small because `go test ./...` runs
// packages side by side, and internal/accounting's
// TestCompactRacingWriteDump, which starts at the same moment, runs away
// when a neighbour takes a processor from it in its first second: at the
// seed commit it already fails about one `go test ./...` in six without
// this package, so tier-1 gets no more load from here than the check needs.
func TestSmoke(t *testing.T) {
	names := []string{gwEcho}
	all := os.Getenv(smokeAllEnv) != ""
	if all {
		names = nil
		for _, s := range specs {
			names = append(names, s.Name)
		}
	}
	start := time.Now()
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) { smokeWorkload(t, name) })
	}
	// The limit is tier-1's; all five under the race detector take 37 s.
	if took := time.Since(start); !all && took > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15 s", took)
	}
}

func smokeWorkload(t *testing.T, name string) {
	var stdout, stderr bytes.Buffer
	out := t.TempDir()
	if code := run([]string{"-workload", name, "-duration-scale", "0.02", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var doc struct {
		Manifest  manifest `json:"manifest"`
		Workloads map[string]struct {
			Correct   bool                  `json:"correct"`
			Attempted int                   `json:"attempted"`
			Failed    int                   `json:"failed"`
			EndToEnd  map[string]jsonMetric `json:"end_to_end"`
			PerLayer  map[string]jsonMetric `json:"per_layer"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if doc.Manifest.GoVersion == "" || doc.Manifest.Clients < 1 || doc.Manifest.HostCPUs < 1 {
		t.Errorf("manifest incomplete: %+v", doc.Manifest)
	}
	w, ok := doc.Workloads[name]
	if !ok {
		t.Fatalf("%s: missing from the result", name)
	}
	if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", w.Correct, w.Attempted, w.Failed)
	}
	for _, m := range gatedMetrics {
		v, ok := w.EndToEnd[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v (present %v), want finite and positive", m.Name, v.Value, ok)
		}
	}
	for _, m := range layerMetrics {
		v, ok := w.PerLayer[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("per-layer metric %s = %v (present %v), want finite", m.Name, v.Value, ok)
		}
		// A layer the workload calls must have been timed. The benchmark's
		// own rows (spreads, GC pauses) and counts may honestly read 0 in a
		// run this short.
		own := strings.HasPrefix(m.Name, "loadgen.") || strings.HasPrefix(m.Name, "runtime.") || strings.HasPrefix(m.Name, "trace.")
		if ok && m.reportedOn(name) && !own && m.Unit != "count" && v.Value == 0 {
			t.Errorf("per-layer metric %s is reported on this workload but reads 0", m.Name)
		}
	}
	checkTraceFile(t, filepath.Join(out, "trace-"+name+".json"))
}

// checkTraceFile requires of a written trace that span IDs are unique, every
// span ends after it starts, every parent exists, belongs to the same op and
// encloses its child, every op id is the ID of a root span, and no span's
// self time is negative.
func checkTraceFile(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		SpansTotal int           `json:"spans_total"`
		Summary    []nameSummary `json:"summary"`
		Spans      []span        `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if len(doc.Spans) == 0 || len(doc.Spans) != doc.SpansTotal {
		t.Errorf("%s: %d spans in the file, spans_total %d; a smoke trace must be whole and not empty", path, len(doc.Spans), doc.SpansTotal)
	}
	byID := make(map[int]span, len(doc.Spans))
	for _, s := range doc.Spans {
		if _, dup := byID[s.ID]; dup {
			t.Errorf("%s: span id %d is used twice", path, s.ID)
		}
		byID[s.ID] = s
		if s.EndNS < s.StartNS {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
	}
	for _, s := range doc.Spans {
		if root, ok := byID[s.Op]; !ok || root.Parent != 0 {
			t.Errorf("%s: span %d (%s) has op %d, which is not a root span", path, s.ID, s.Name, s.Op)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %d (%s) has unknown parent %d", path, s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			t.Errorf("%s: span %d (%s) of op %d has parent %d of op %d", path, s.ID, s.Name, s.Op, p.ID, p.Op)
		case s.StartNS < p.StartNS || s.EndNS > p.EndNS:
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, s.ID, s.Name, p.ID, p.Name)
		}
	}
	for id, self := range selfTimesNS(doc.Spans) {
		if self < 0 {
			t.Errorf("%s: span %d (%s) has self time %d ns", path, id, byID[id].Name, self)
		}
	}
	for _, row := range doc.Summary {
		if row.SelfUS < 0 || row.SelfUS > row.P50US {
			t.Errorf("%s: summary row %s has p50 %v us and self p50 %v us", path, row.Name, row.P50US, row.SelfUS)
		}
	}
}

// TestContract checks the metric and workload tables against the limits of
// the BENCHMARK.json contract and against the committed file itself.
func TestContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(specs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(gatedMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is malformed", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, s := range specs {
		check("workload", s.Name, "")
		if len(s.Why) > 200 || strings.Contains(s.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", s.Name)
		}
	}
	for _, m := range gatedMetrics {
		check("end-to-end metric", m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range layerMetrics {
		check("per-layer metric", m.Name, m.Unit)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if file.Workloads[i].Name != s.Name || file.Workloads[i].Why != s.Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program has %s: %s", i, file.Workloads[i], s.Name, s.Why)
		}
	}
	same := func(kind string, listed []entry, ms []metric, bounds bool) {
		if len(listed) != len(ms) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program has %d", len(listed), kind, len(ms))
		}
		for i, m := range ms {
			want := entry{Name: m.Name, Unit: m.Unit, Better: m.Better}
			if bounds {
				want.Bound = m.Bound
			}
			if listed[i] != want {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, the program has %+v", kind, i, listed[i], want)
			}
		}
	}
	same("end-to-end", file.EndToEnd, gatedMetrics, true)
	same("per-layer", file.PerLayer, layerMetrics, false)
}
