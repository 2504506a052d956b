package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The load generator is closed loop: each of C clients sends its next op
// only after the previous reply, as the paper's h2load clients do. That is
// a decision, not a default: an open-loop probe at 2.5k req/s on a 2-CPU
// sandbox added ~0.6 ms of Go-timer wake-up to the p50 and its p99 varied
// 3x between runs, so an arrival schedule here would measure the scheduler.

// sample is one successfully completed op.
type sample struct {
	lat  time.Duration
	kind int
}

// opFunc runs client c's i-th op and checks its output. It times the op
// itself, so the output check stays outside the latency.
type opFunc func(c, i int) (kind int, lat time.Duration, err error)

// runResult is what one timed run produced.
type runResult struct {
	tally
	// rates holds each window's successful ops per second. A closed loop's
	// windows are consecutive slices of the run, 1 s each for runs of a
	// second or more; ledger-audit's are its cycles.
	rates   []float64
	samples []sample
}

// closedLoop drives op from `clients` goroutines for d. With tracers every
// op is also recorded as a root span on its client's tracer.
func closedLoop(clients int, d time.Duration, op opFunc, ts *tracers) runResult {
	type done struct {
		end  time.Duration // completion time since the run started
		lat  time.Duration
		kind int
	}
	type clientLog struct {
		tally
		done []done
	}
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			for i := 0; time.Since(start) < d; i++ {
				var span int
				if ts != nil {
					span = ts.clients[c].beginOp("op")
				}
				kind, lat, err := op(c, i)
				if ts != nil {
					ts.clients[c].end(span)
				}
				if err != nil {
					log.check(fmt.Errorf("client %d op %d: %w", c, i, err))
					continue
				}
				log.check(nil)
				log.done = append(log.done, done{end: time.Since(start), lat: lat, kind: kind})
			}
		}(c)
	}
	wg.Wait()

	nWin := int(d / time.Second)
	if nWin < 1 {
		nWin = 1
	}
	winLen := d / time.Duration(nWin)
	res := runResult{rates: make([]float64, nWin)}
	for i := range logs {
		res.absorb(logs[i].tally)
		for _, op := range logs[i].done {
			res.samples = append(res.samples, sample{lat: op.lat, kind: op.kind})
			// An op counts towards each window by the share of its time spent
			// inside it: whole-op counts would move a window's rate in steps
			// of one op, which is over 1% on gw-resize. The part of an op in
			// flight at the deadline that lies past the last window counts
			// nowhere.
			begin := op.end - op.lat
			for w := int(begin / winLen); w < nWin && time.Duration(w)*winLen < op.end; w++ {
				from := max(begin, time.Duration(w)*winLen)
				to := min(op.end, time.Duration(w+1)*winLen)
				res.rates[w] += float64(to-from) / float64(op.lat)
			}
		}
	}
	for w := range res.rates {
		res.rates[w] /= winLen.Seconds()
	}
	return res
}

// summary is the end-to-end view of a run. Every timed op counts towards
// the percentiles, so a stall that hits one window in ten still moves the
// p99.
type summary struct {
	throughput float64 // quietRate of the windows
	allWindows float64 // median over the windows of ops/s
	windowIQR  float64 // inter-quartile range of the window rates / their median
	p50ms      float64
	p99ms      float64
	geomeanMs  float64 // geomean over kinds of the per-kind median latency
	samples    int
}

// summarize reduces the samples. A failed op has no sample: it is missing
// from every latency figure.
func (r *runResult) summarize(kinds int) summary {
	sum := summary{throughput: quietRate(r.rates), allWindows: median(r.rates), windowIQR: iqrShare(r.rates), samples: len(r.samples)}
	lats := make([]float64, 0, len(r.samples))
	perKind := make([][]float64, kinds)
	for _, s := range r.samples {
		ms := float64(s.lat) / float64(time.Millisecond)
		lats = append(lats, ms)
		perKind[s.kind] = append(perKind[s.kind], ms)
	}
	sort.Float64s(lats)
	sum.p50ms, sum.p99ms = quantile(lats, 0.50), quantile(lats, 0.99)
	kindP50ms := make([]float64, kinds)
	for k, v := range perKind {
		kindP50ms[k] = median(v)
	}
	sum.geomeanMs = geomean(kindP50ms)
	return sum
}
