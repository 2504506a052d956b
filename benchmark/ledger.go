package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/sgx"
)

// audit is ledger-audit: the accounting layer's writes beside its
// reads, with no interpreter and no HTTP. One cycle is
//
//	phase A: C goroutines Append N seeded usage logs under spill retention,
//	         then one Compact (so the resident tail is spilled too) and
//	         Close — the only fsync barrier;
//	phase B: reopen the directory (recovery), VerifySpillDir, WriteDump
//	         (binary) to a file, VerifyReader on the file.
//
// Every cycle uses a fresh directory. The latency sample is one batch of
// 1000 appends, so a compaction stalling the foreground shows in the p99.
type audit struct {
	spec    spec
	env     env
	enclave *sgx.Enclave
	cycleNo int
	// done holds every completed cycle since the last resetStats, in order.
	done []*auditCycle
}

// Phase names, also the span names of the traced run.
const (
	phaseAppend       = "accounting.append_phase"
	phaseCompact      = "accounting.compact"
	phaseClose        = "accounting.close_barrier"
	phaseRecover      = "accounting.recover"
	phaseVerifySpill  = "accounting.verify_spill"
	phaseDump         = "accounting.dump"
	phaseVerifyStream = "accounting.verify_stream"
)

func newAudit(s spec, e env) *audit { return &audit{spec: s, env: e} }

func (w *audit) setup() error {
	var err error
	w.enclave, err = sgx.NewEnclave([]byte(core.AEMeasurement().String()), sgx.ModeHardware, sgx.DefaultCostParams())
	if err != nil {
		return err
	}
	w.resetStats()
	// The warm-up is one cycle at a tenth of the size: it opens every code
	// path (spill writer, recovery, both verifiers) before the clock starts.
	for i := 0; i < w.spec.WarmupOps; i++ {
		c, err := w.cycle(w.cycleRecords()/10, nil)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		c.remove()
	}
	w.resetStats()
	return nil
}

func (w *audit) resetStats() { w.done = nil }

// cycleRecords is N, the appends of one cycle: ledgerCycleRecords, or fewer
// in a smoke run.
func (w *audit) cycleRecords() int { return w.env.scaled(ledgerCycleRecords, 5*ledgerBatch) }

// over collects one figure from every completed cycle.
func (w *audit) over(figure func(*auditCycle) float64) []float64 {
	out := make([]float64, len(w.done))
	for i, c := range w.done {
		out[i] = figure(c)
	}
	return out
}

// phaseTime returns the figure that reads one phase's time, in seconds.
func phaseTime(name string) func(*auditCycle) float64 {
	return func(c *auditCycle) float64 { return c.phases[name] }
}

func (w *audit) close() {}

func (w *audit) retention(dir string, resident int) accounting.LedgerOptions {
	return accounting.LedgerOptions{Retention: accounting.RetentionPolicy{MaxResidentRecords: resident, SpillDir: dir}}
}

// usage derives the i-th usage log of a stream from its generator.
func usage(r *rng) accounting.UsageLog {
	v := r.next()
	return accounting.UsageLog{
		WeightedInstructions: v%1_000_000 + 1,
		PeakMemoryBytes:      (v>>20%64 + 1) * 65536,
		IOBytesIn:            v >> 26 % 4096,
		IOBytesOut:           v >> 38 % 4096,
		SimulatedCycles:      v >> 50,
		Policy:               accounting.PeakMemory,
	}
}

// sentTotals mirrors the ledger's aggregation over the logs one goroutine
// sent.
type sentTotals struct {
	records, weighted, peak, in, out, cycles uint64
}

func (t *sentTotals) add(u *accounting.UsageLog) {
	t.records++
	t.weighted += u.WeightedInstructions
	if u.PeakMemoryBytes > t.peak {
		t.peak = u.PeakMemoryBytes
	}
	t.in += u.IOBytesIn
	t.out += u.IOBytesOut
	t.cycles += u.SimulatedCycles
}

func (t *sentTotals) merge(o sentTotals) {
	t.records += o.records
	t.weighted += o.weighted
	if o.peak > t.peak {
		t.peak = o.peak
	}
	t.in += o.in
	t.out += o.out
	t.cycles += o.cycles
}

// matches compares the totals with those a ledger or a verifier reports.
func (t sentTotals) matches(what string, got accounting.UsageLog) error {
	want := accounting.UsageLog{WeightedInstructions: t.weighted, PeakMemoryBytes: t.peak,
		IOBytesIn: t.in, IOBytesOut: t.out, SimulatedCycles: t.cycles, Sequence: t.records}
	got.Policy, got.WorkloadHash = 0, [32]byte{}
	if got != want {
		return fmt.Errorf("%s totals %+v, appended %+v", what, got, want)
	}
	return nil
}

// auditCycle is one finished cycle.
type auditCycle struct {
	dir            string
	dumpPath       string
	records        int
	batches        []time.Duration    // latency of each batch of appends
	phases         map[string]float64 // seconds per phase
	appendS        float64            // phase A in seconds: appends, Compact, Close
	tookS          float64            // the whole cycle
	bytesPerRecord float64            // spill directory bytes / records
}

func (c *auditCycle) remove() { _ = os.RemoveAll(c.dir) } // scratch; a leftover is only disk

// cycle runs one cycle of n records. With tracers every phase and every
// batch is a span under one op id.
func (w *audit) cycle(n int, ts *tracers) (*auditCycle, error) {
	w.cycleNo++
	dir, err := scratchDir(w.env, "spill-"+w.spec.Name)
	if err != nil {
		return nil, err
	}
	c := &auditCycle{dir: dir, dumpPath: filepath.Join(dir, "dump.bin"), records: n}
	fail := func(err error) (*auditCycle, error) {
		c.remove()
		return nil, fmt.Errorf("cycle %d: %w", w.cycleNo, err)
	}
	// phase times one step and, in the traced run, records it as a span on
	// the coordinator's tracer; fn receives the span's ID.
	root := 0
	start := time.Now()
	if ts != nil {
		root = ts.coord.beginOp("op")
		defer func() { ts.coord.end(root) }()
	}
	c.phases = map[string]float64{}
	phase := func(name string, fn func(span int) error) error {
		id := 0
		if ts != nil {
			id = ts.coord.begin(root, root, name)
		}
		t0 := time.Now()
		err := fn(id)
		c.phases[name] = time.Since(t0).Seconds()
		if ts != nil {
			ts.coord.end(id)
		}
		return err
	}

	opts := w.retention(dir, ledgerResident)
	l, err := accounting.NewLedger(w.enclave, opts)
	if err != nil {
		return fail(err)
	}
	clients := w.env.clients
	tallies := make([]sentTotals, clients)
	batches := make([][]time.Duration, clients)
	errs := make([]error, clients)
	err = phase(phaseAppend, func(appendSpan int) error {
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rng(w.env.seed ^ uint64(w.cycleNo)<<32 ^ uint64(g)<<56)
				// Local totals: neighbours in the shared slice would
				// ping-pong one cache line on every append.
				var sent sentTotals
				defer func() { tallies[g] = sent }()
				share := n / clients
				if g == 0 {
					share += n % clients
				}
				for done := 0; done < share; {
					size := ledgerBatch
					if share-done < size {
						size = share - done
					}
					span := 0
					if ts != nil {
						span = ts.clients[g].begin(root, appendSpan, "accounting.append_batch")
					}
					t0 := time.Now()
					for i := 0; i < size; i++ {
						u := usage(&r)
						if _, _, err := l.Append(u); err != nil {
							errs[g] = err
							return
						}
						sent.add(&u)
					}
					lat := time.Since(t0)
					if ts != nil {
						ts.clients[g].end(span)
					}
					done += size
					batches[g] = append(batches[g], lat)
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		// Compact spills the resident tail, so after Close every record
		// is on disk and the reopened totals must equal what was appended.
		err = phase(phaseCompact, func(int) error { _, err := l.Compact(); return err })
	}
	_ = phase(phaseClose, func(int) error { l.Close(); return nil })
	if err != nil {
		return fail(err)
	}
	c.appendS = time.Since(start).Seconds()
	if degraded, cause := l.Degraded(); degraded {
		return fail(fmt.Errorf("spill pipeline degraded: %v", cause))
	}
	var sent sentTotals
	for g := range tallies {
		sent.merge(tallies[g])
		c.batches = append(c.batches, batches[g]...)
	}
	spilled, err := dirBytes(dir)
	if err != nil {
		return fail(err)
	}

	var reopened *accounting.Ledger
	if err := phase(phaseRecover, func(int) (err error) {
		reopened, err = accounting.NewLedger(w.enclave, opts)
		return err
	}); err != nil {
		return fail(err)
	}
	defer reopened.Close()
	if err := sent.matches("reopened ledger", reopened.Totals()); err != nil {
		return fail(err)
	}
	verify := accounting.VerifyOptions{Key: w.enclave.PublicKey()}
	if err := phase(phaseVerifySpill, func(int) error {
		vr, err := accounting.VerifySpillDir(dir, verify)
		if err != nil {
			return err
		}
		return sent.matches("VerifySpillDir", vr.Totals)
	}); err != nil {
		return fail(err)
	}
	if err := phase(phaseDump, func(int) error {
		f, err := os.Create(c.dumpPath)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := reopened.WriteDump(bw, accounting.DumpOptions{Binary: true}); err != nil {
			_ = f.Close() // the dump error is the one to report
			return err
		}
		if err := bw.Flush(); err != nil {
			_ = f.Close() // the flush error is the one to report
			return err
		}
		return f.Close()
	}); err != nil {
		return fail(err)
	}
	if err := phase(phaseVerifyStream, func(int) error {
		f, err := os.Open(c.dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		vr, err := accounting.VerifyReader(bufio.NewReaderSize(f, 1<<20), verify)
		if err != nil {
			return err
		}
		return sent.matches("VerifyReader", vr.Totals)
	}); err != nil {
		return fail(err)
	}
	c.tookS = time.Since(start).Seconds()
	c.bytesPerRecord = float64(spilled) / float64(n)
	w.done = append(w.done, c)
	return c, nil
}

// checkTamper flips one seeded byte in a copy of the cycle's dump; the
// verifier must reject it, so a verifier that accepts everything cannot
// look fast.
func (w *audit) checkTamper(c *auditCycle) error {
	dump, err := os.ReadFile(c.dumpPath)
	if err != nil {
		return err
	}
	r := rng(w.env.seed)
	// The second half of the file is record frames only.
	at := len(dump)/2 + int(r.next()%uint64(len(dump)/2))
	dump[at] ^= 0x01
	if _, err := accounting.VerifyReader(bytes.NewReader(dump), accounting.VerifyOptions{Key: w.enclave.PublicKey()}); err == nil {
		return fmt.Errorf("dump with byte %d of %d flipped still verifies", at, len(dump))
	}
	return nil
}

// cycles repeats full-size cycles for d (at least one). Each cycle is one
// window of the result, rated by records over the whole cycle's time, and
// its batches are the samples. The last cycle's dump also takes the
// flipped-byte check.
func (w *audit) cycles(d time.Duration, ts *tracers) runResult {
	var res runResult
	start := time.Now()
	for {
		c, err := w.cycle(w.cycleRecords(), ts)
		if err != nil {
			res.check(err)
			return res
		}
		last := time.Since(start) >= d
		if last {
			res.check(w.checkTamper(c))
		}
		c.remove()
		res.attempted += len(c.batches)
		for _, lat := range c.batches {
			res.samples = append(res.samples, sample{lat: lat})
		}
		res.rates = append(res.rates, float64(c.records)/c.tookS)
		if last {
			return res
		}
	}
}

// phaseGeomeanMS is run_ms_geomean for this workload: the geometric mean
// of the per-phase median times over the cycles, so the read side
// (recovery, both verifiers, the dump) weighs as much as the append side.
func (w *audit) phaseGeomeanMS() float64 {
	meds := []float64{median(w.over(func(c *auditCycle) float64 { return c.appendS })) * 1e3}
	for _, name := range []string{phaseRecover, phaseVerifySpill, phaseDump, phaseVerifyStream} {
		meds = append(meds, median(w.over(phaseTime(name)))*1e3)
	}
	return geomean(meds)
}

func (w *audit) run(d time.Duration) result {
	w.resetStats()
	loop := w.cycles(d, nil)
	sum := loop.summarize(1)
	res := result{tally: loop.tally, values: map[string]float64{}}
	res.notes = append(res.notes,
		fmt.Sprintf("a window is one cycle of %d records, %d goroutines appending; the latency sample is one batch of %d appends",
			w.cycleRecords(), w.env.clients, ledgerBatch),
		spreadNote(sum),
		"throughput_ops_s is the upper quartile over the cycles of N / (appends + Compact + Close), and Close is the only fsync barrier; the spread above rates a window by the whole cycle, audit phases included",
		"reopened totals, VerifySpillDir and VerifyReader totals equalled what was appended; the flipped-byte dump failed verification")
	loop.samples = nil
	fillEndToEnd(res.values, sum)
	appendRate := func(c *auditCycle) float64 { return float64(c.records) / c.appendS }
	res.values["throughput_ops_s"] = quietRate(w.over(appendRate))
	res.values["run_ms_geomean"] = w.phaseGeomeanMS()
	if v := median(w.over(phaseTime(phaseVerifySpill))); v > 0 {
		res.values["verify_records_s"] = float64(w.cycleRecords()) / v
	}
	res.values["recover_s"] = median(w.over(phaseTime(phaseRecover)))
	res.values["spill_bytes_per_record"] = median(w.over(func(c *auditCycle) float64 { return c.bytesPerRecord }))

	// live_heap_mb is the heap of a ledger in the middle of its work: one
	// more cycle's worth of appends, still open, the spill writer idle.
	dir, err := scratchDir(w.env, "spill-"+w.spec.Name)
	if err != nil {
		res.check(err)
		return res
	}
	defer os.RemoveAll(dir)
	l, err := accounting.NewLedger(w.enclave, w.retention(dir, ledgerResident))
	if err != nil {
		res.check(err)
		return res
	}
	defer l.Close()
	r := rng(w.env.seed)
	for i := 0; i < w.cycleRecords(); i++ {
		if _, _, err := l.Append(usage(&r)); err != nil {
			res.check(err)
			return res
		}
	}
	// Drained, so the heap holds the resident tail and not however many
	// sealed frames the spill writer happened to have pending.
	res.check(l.Store().Drain())
	res.values["live_heap_mb"] = liveHeapMB()
	return res
}

func (w *audit) trace(d time.Duration) traceResult {
	tr := traceResult{values: map[string]float64{}}
	w.resetStats()
	// Plain and traced cycles both feed the per-layer numbers: they run the
	// same calls, and the spans only add a clock read around each.
	var batchUS []float64
	ts := newTracers(w.env.clients)
	loopTrace(2*d/3, &tr, ts, func(d time.Duration, ts *tracers) runResult {
		loop := w.cycles(d, ts)
		for _, s := range loop.samples {
			batchUS = append(batchUS, float64(s.lat)/float64(time.Microsecond))
		}
		return loop
	})
	n := float64(w.cycleRecords())
	phaseS := func(name string) float64 { return median(w.over(phaseTime(name))) }
	tr.values["accounting.append_batch_p99_us"] = quantile(sortedCopy(batchUS), 0.99)
	tr.values["accounting.close_barrier_ms"] = phaseS(phaseClose) * 1e3
	tr.values["accounting.recover_ms"] = phaseS(phaseRecover) * 1e3
	tr.values["accounting.spill_bytes_per_record"] = median(w.over(func(c *auditCycle) float64 { return c.bytesPerRecord }))
	if v := phaseS(phaseVerifySpill); v > 0 {
		tr.values["accounting.verify_spill_ns_per_record"] = v * 1e9 / n
	}
	if v := phaseS(phaseDump); v > 0 {
		tr.values["accounting.dump_records_s"] = n / v
	}
	if v := phaseS(phaseVerifyStream); v > 0 {
		tr.values["accounting.verify_stream_records_s"] = n / v
	}
	tr.notes = append(tr.notes, fmt.Sprintf("%d cycles of %d records, untraced and traced by turns", len(w.done), w.cycleRecords()))
	tr.spans = ts.collect()
	tr.check(w.traceSingleCalls(&tr))
	return tr
}

// traceSingleCalls times the calls a cycle makes too rarely, or too
// entangled with other goroutines, to read off its spans: a lone Append on
// either store, Checkpoint, Compact and Sign.
func (w *audit) traceSingleCalls(tr *traceResult) error {
	appends := w.env.scaled(100_000, 2*ledgerBatch)
	r := rng(w.env.seed)
	appendNS := func(l *accounting.Ledger) (float64, error) {
		t0 := time.Now()
		for i := 0; i < appends; i++ {
			if _, _, err := l.Append(usage(&r)); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(appends), nil
	}

	resident, err := accounting.NewLedger(w.enclave, accounting.LedgerOptions{})
	if err != nil {
		return err
	}
	defer resident.Close()
	if tr.values["accounting.append_ns"], err = appendNS(resident); err != nil {
		return err
	}
	var checkpoints []float64
	for k := 0; k < w.env.scaled(30, 3); k++ {
		for i := 0; i < ledgerBatch; i++ {
			if _, _, err := resident.Append(usage(&r)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := resident.Checkpoint(); err != nil {
			return err
		}
		checkpoints = append(checkpoints, float64(time.Since(t0))/float64(time.Microsecond))
	}
	tr.values["accounting.checkpoint_us"] = median(checkpoints)

	dir, err := scratchDir(w.env, "spill-"+w.spec.Name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spilling, err := accounting.NewLedger(w.enclave, w.retention(dir, ledgerResident))
	if err != nil {
		return err
	}
	defer spilling.Close()
	if tr.values["accounting.append_spill_ns"], err = appendNS(spilling); err != nil {
		return err
	}
	fillLedgerHealth(tr.values, spilling)

	// Compact of a full resident tail: retention high enough that nothing
	// compacts on its own.
	manualDir, err := scratchDir(w.env, "spill-"+w.spec.Name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(manualDir)
	manual, err := accounting.NewLedger(w.enclave, w.retention(manualDir, 1<<30))
	if err != nil {
		return err
	}
	defer manual.Close()
	var compacts []float64
	for k := 0; k < w.env.scaled(10, 1); k++ {
		for i := 0; i < ledgerResident; i++ {
			if _, _, err := manual.Append(usage(&r)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if _, err := manual.Compact(); err != nil {
			return err
		}
		compacts = append(compacts, float64(time.Since(t0))/float64(time.Millisecond))
	}
	tr.values["accounting.compact_ms"] = median(compacts)

	var signs []float64
	msg := r.bytes(200)
	for k := 0; k < 200; k++ {
		t0 := time.Now()
		if _, err := w.enclave.Sign(msg); err != nil {
			return err
		}
		signs = append(signs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	tr.values["sgx.sign_us"] = median(signs)
	return nil
}
