package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Tracing records a span around each call the benchmark makes into a
// layer's public functions. Spans live in memory and are written once, when
// the traced run ends; spans inside the program are a later change.

// span is one timed interval. Spans of one op share Op, which is the ID of
// the op's root span; Parent is the ID of the span that caused this one (0
// for a root). IDs are unique within a trace file and every start_ns and
// end_ns counts from the same instant.
type span struct {
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer is one goroutine's span buffer. It takes no lock: concurrent
// clients each own one, and collect merges them.
type tracer struct {
	t0    time.Time
	base  int // IDs are base+1, base+2, ... so they stay unique across tracers
	spans []span
}

// tracerIDStride separates the ID ranges of concurrent tracers.
const tracerIDStride = 1 << 24

// tracers is every tracer of one traced run. They are made by one call, so
// they share one clock origin and no two share an ID range: one per
// closed-loop client, one for a goroutine that coordinates the clients
// (ledger-audit's phases), and one for the single-client decomposition that
// follows the loop.
type tracers struct {
	clients []*tracer
	coord   *tracer
	single  *tracer
}

func newTracers(clients int) *tracers {
	t0 := time.Now()
	all := make([]*tracer, clients+2)
	for i := range all {
		all[i] = &tracer{t0: t0, base: i * tracerIDStride}
	}
	return &tracers{clients: all[:clients], coord: all[clients], single: all[clients+1]}
}

// collect returns every span recorded, roots of the coordinator first.
func (ts *tracers) collect() []span {
	spans := append([]span(nil), ts.coord.spans...)
	for _, t := range ts.clients {
		spans = append(spans, t.spans...)
	}
	return append(spans, ts.single.spans...)
}

// beginOp opens the root span of a new op and returns its ID, which is also
// the op id its descendants carry: op ids never repeat within a trace.
func (t *tracer) beginOp(name string) int {
	id := t.base + len(t.spans) + 1
	return t.begin(id, 0, name)
}

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	id := t.base + len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		StartNS: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	t.spans[id-t.base-1].EndNS = int64(time.Since(t.t0))
}

// timed records fn as a child span of parent.
func (t *tracer) timed(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// durationsUS returns, per span name, every span's duration in microseconds.
func durationsUS(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e3)
	}
	return out
}

// nameSummary is one span name's row in the trace file.
type nameSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50US  float64 `json:"p50_us"`
	SelfUS float64 `json:"self_p50_us"`
}

// selfTimesNS returns, per span ID, the span's duration minus the part of
// that interval its child spans cover. Children of one parent may run side
// by side (ledger-audit's appenders), so what they cover is the union of
// their intervals, not the sum.
func selfTimesNS(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		reached := s.StartNS
		for _, k := range kids {
			if k.EndNS > reached {
				covered += k.EndNS - max(k.StartNS, reached)
				reached = k.EndNS
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// summarizeSpans computes per-name median duration and median self time.
func summarizeSpans(spans []span) []nameSummary {
	selfNS := selfTimesNS(spans)
	dur := make(map[string][]float64)
	self := make(map[string][]float64)
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.EndNS-s.StartNS)/1e3)
		self[s.Name] = append(self[s.Name], float64(selfNS[s.ID])/1e3)
	}
	var out []nameSummary
	for name, d := range dur {
		out = append(out, nameSummary{Name: name, Count: len(d), P50US: median(d), SelfUS: median(self[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFileSpanCap bounds the spans written per file; the summary and the
// per-layer metrics always cover every span.
const traceFileSpanCap = 50_000

// writeTrace writes trace-<workload>.json under dir.
func writeTrace(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Workload   string        `json:"workload"`
		Seed       uint64        `json:"seed"`
		SpansTotal int           `json:"spans_total"`
		Summary    []nameSummary `json:"summary"`
		Spans      []span        `json:"spans"`
	}{Workload: workload, Seed: seed, SpansTotal: len(spans), Summary: summarizeSpans(spans), Spans: spans}
	if len(doc.Spans) > traceFileSpanCap {
		doc.Spans = doc.Spans[:traceFileSpanCap]
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
