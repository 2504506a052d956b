package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// compute is ae-compute: the paper's volunteer / pay-by-computation path.
// Each op is one AccountingEnclave.Run (hardware mode, pooled) of one
// program of the mix, in seeded order, with no HTTP.
type compute struct {
	spec  spec
	env   env
	order []int // seeded order in which every client walks the mix
	progs []*hosted
}

// hosted is one mix program deployed in its own accounting enclave.
type hosted struct {
	prog         program
	original     *wasm.Module
	instrumented *wasm.Module
	counter      uint32
	ae           *core.AccountingEnclave
	want         uint64 // native reference result
	weighted     uint64 // WeightedInstructions of one run: identical on every repeat
	runs         atomic.Uint64
}

func newCompute(s spec, e env) *compute { return &compute{spec: s, env: e} }

func (w *compute) setup() error {
	r := rng(w.env.seed)
	w.order = r.perm(len(computeMix))
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		return err
	}
	w.progs = nil
	for _, p := range computeMix {
		h := &hosted{prog: p, want: p.Want()}
		if h.original, err = p.Build(); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		var ev core.Evidence
		if h.instrumented, ev, err = ie.Instrument(h.original); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		h.counter = ev.CounterGlobal
		h.ae, err = core.NewAccountingEnclave(sgx.ModeHardware, sgx.DefaultCostParams(), nil,
			h.instrumented, ev, ie.PublicKey())
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		w.progs = append(w.progs, h)
		if err := h.ae.SetPoolConfig(interp.PoolConfig{Prewarm: w.env.clients}); err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		// The first run fixes the program's weighted instruction count;
		// every later run must report exactly it.
		res, err := h.ae.Run(core.RunOptions{Entry: "run", Args: p.Args})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		h.weighted = res.Record.Log.WeightedInstructions
		h.runs.Add(1)
	}
	// The first runs above are half the warm-up; one more of each fills it.
	for i := len(computeMix); i < w.spec.WarmupOps; i++ {
		if _, _, err := w.runOne(0, i); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *compute) close() {
	for _, h := range w.progs {
		h.ae.Close()
	}
}

func (w *compute) programIndex(c, i int) int { return walk(w.order, w.env.clients, c, i) }

// runOne is the op: one Run, checked against the native reference and the
// program's fixed weighted instruction count.
func (w *compute) runOne(c, i int) (int, time.Duration, error) {
	k := w.programIndex(c, i)
	h := w.progs[k]
	t0 := time.Now()
	res, err := h.ae.Run(core.RunOptions{Entry: "run", Args: h.prog.Args})
	lat := time.Since(t0)
	if err != nil {
		return k, 0, fmt.Errorf("%s: %w", h.prog.Name, err)
	}
	h.runs.Add(1)
	return k, lat, h.checkRun(res)
}

func (h *hosted) checkRun(res core.RunResult) error {
	if len(res.Results) != 1 || res.Results[0] != h.want {
		return fmt.Errorf("%s: result %v, native reference %#x", h.prog.Name, res.Results, h.want)
	}
	if got := res.Record.Log.WeightedInstructions; got != h.weighted {
		return fmt.Errorf("%s: %d weighted instructions, first run had %d", h.prog.Name, got, h.weighted)
	}
	return nil
}

// newRunModel is the per-run cost model AccountingEnclave.Run builds.
func newRunModel() *sgx.EPCModel {
	return sgx.NewEPCModel(sgx.ModeHardware, sgx.DefaultCostParams(), weights.Unit())
}

// invokeConfig is the sandbox configuration AccountingEnclave.Run uses, so
// a bare invoke pays the same cost-model and grow hooks.
func (h *hosted) invokeConfig(engine interp.Engine) interp.Config {
	return interp.Config{
		Engine:    engine,
		Imports:   core.DefaultImports(h.ae.LibOS()),
		CostModel: newRunModel(),
		GrowHook:  func(*interp.VM, uint32, uint32) {},
	}
}

// checkOracle runs the instrumented program on the default engine and on
// the structured reference engine and compares what internal/interp's
// differential tests compare: results, the instrumented counter,
// InstrCount and Cost. The counter must also be what the enclave charged.
func (h *hosted) checkOracle() error {
	type observation struct {
		result, counter, instrs, cost uint64
	}
	observe := func(engine interp.Engine) (observation, error) {
		vm, err := interp.Instantiate(h.instrumented, h.invokeConfig(engine))
		if err != nil {
			return observation{}, err
		}
		res, err := vm.InvokeExport("run", h.prog.Args...)
		if err != nil {
			return observation{}, err
		}
		counter, err := vm.Global(h.counter)
		if err != nil {
			return observation{}, err
		}
		return observation{res[0], counter, vm.InstrCount(), vm.Cost()}, nil
	}
	ref, err := observe(interp.EngineStructured)
	if err != nil {
		return fmt.Errorf("%s on the structured engine: %w", h.prog.Name, err)
	}
	got, err := observe(interp.Engine(0))
	if err != nil {
		return fmt.Errorf("%s on the default engine: %w", h.prog.Name, err)
	}
	if got != ref {
		return fmt.Errorf("%s: default engine %+v, structured oracle %+v", h.prog.Name, got, ref)
	}
	if ref.result != h.want || ref.counter != h.weighted {
		return fmt.Errorf("%s: oracle result %#x counter %d, want %#x and %d",
			h.prog.Name, ref.result, ref.counter, h.want, h.weighted)
	}
	return nil
}

// checkLedgers requires each enclave's ledger to hold exactly the runs made
// and their weighted total.
func (w *compute) checkLedgers() error {
	for _, h := range w.progs {
		runs := h.runs.Load()
		totals := h.ae.Ledger().Totals()
		if totals.Sequence != runs || totals.WeightedInstructions != runs*h.weighted {
			return fmt.Errorf("%s: ledger holds %d records and %d weighted instructions, want %d and %d",
				h.prog.Name, totals.Sequence, totals.WeightedInstructions, runs, runs*h.weighted)
		}
	}
	return nil
}

func (w *compute) run(d time.Duration) result {
	res := result{values: map[string]float64{}}
	for _, h := range w.progs {
		res.check(h.checkOracle())
	}
	loop := closedLoop(w.env.clients, d, w.runOne, nil)
	sum := loop.summarize(len(w.progs))
	res.absorb(loop.tally)
	res.notes = append(res.notes, spreadNote(sum),
		"before the timed run every program agreed with the structured-engine oracle on result, counter, InstrCount and Cost")
	loop.samples = nil
	fillEndToEnd(res.values, sum)
	// The median over the mix sits between two programs' times and jumps
	// from one to the other; the per-program medians' geomean does not.
	res.values["latency_p50_ms"] = sum.geomeanMs
	res.check(w.checkLedgers())
	res.values["live_heap_mb"] = liveHeapMB()
	return res
}

func (w *compute) trace(d time.Duration) traceResult {
	tr := traceResult{values: map[string]float64{}}
	ts := newTracers(w.env.clients)
	loopTrace(d/2, &tr, ts, func(d time.Duration, ts *tracers) runResult {
		return closedLoop(w.env.clients, d, w.runOne, ts)
	})

	// Bare pools over the instrumented and the original module of every
	// program: what Run costs beyond the invoke, and what the instrumented
	// counter costs inside it.
	type barePools struct{ instrumented, original *interp.InstancePool }
	pools := make([]barePools, len(w.progs))
	for k, h := range w.progs {
		for _, side := range []struct {
			m    *wasm.Module
			pool **interp.InstancePool
		}{{h.instrumented, &pools[k].instrumented}, {h.original, &pools[k].original}} {
			cm, err := interp.Compile(side.m, interp.CompileOptions{CostModels: []interp.CostModel{h.invokeConfig(0).CostModel}})
			if err == nil {
				*side.pool, err = cm.NewPool(h.invokeConfig(0), interp.PoolConfig{Prewarm: 1})
			}
			if err != nil {
				tr.check(fmt.Errorf("%s: bare pool: %w", h.prog.Name, err))
				return tr
			}
		}
	}

	t := ts.single
	var instrs, faults float64
	// Enclave.Transitions is cumulative per enclave and only Run reports
	// it, so transitions per op come from each program's first and last
	// reading here and the runs between them.
	type reading struct{ first, last, runs uint64 }
	transitions := make([]reading, len(w.progs))
	// bare invokes the program on a pooled instance, the invoke alone in
	// the span, and returns the run's InstrCount.
	bare := func(root, k int, pool *interp.InstancePool, name string) (uint64, error) {
		h := w.progs[k]
		cfg := h.invokeConfig(0)
		t.timed(root, root, "sgx.epc_model_new", func() {
			cfg.CostModel = newRunModel()
		})
		vm, err := pool.Get(cfg)
		if err != nil {
			return 0, err
		}
		defer pool.Put(vm)
		var res []uint64
		t.timed(root, root, name, func() { res, err = vm.InvokeExport("run", h.prog.Args...) })
		if err != nil {
			return 0, err
		}
		if res[0] != h.want {
			return 0, fmt.Errorf("%s: bare invoke returned %#x, native reference %#x", h.prog.Name, res[0], h.want)
		}
		return vm.InstrCount(), nil
	}
	deadline := time.Now().Add(d / 2)
	ops := 0
	for ; time.Now().Before(deadline) || ops < len(w.progs); ops++ {
		k := w.programIndex(0, ops)
		h := w.progs[k]
		root := t.beginOp("three_way")

		var res core.RunResult
		var err error
		t.timed(root, root, "core.run."+h.prog.Name, func() {
			res, err = h.ae.Run(core.RunOptions{Entry: "run", Args: h.prog.Args})
		})
		if err == nil {
			h.runs.Add(1)
			err = h.checkRun(res)
			faults += float64(res.PageFaults)
			rd := &transitions[k]
			if rd.runs == 0 {
				rd.first = res.Transitions
			}
			rd.last = res.Transitions
			rd.runs++
		}
		tr.check(err)

		n, err := bare(root, k, pools[k].instrumented, "interp.invoke."+h.prog.Name)
		instrs += float64(n)
		tr.check(err)
		_, err = bare(root, k, pools[k].original, "interp.invoke_original."+h.prog.Name)
		tr.check(err)
		t.end(root)
	}
	tr.spans = ts.collect()

	us := durationsUS(t.spans)
	var invoke, ratio, overhead []float64
	var invokeTotal float64
	for _, h := range w.progs {
		inv := us["interp.invoke."+h.prog.Name]
		p50 := median(inv)
		tr.values["interp.invoke_us."+h.prog.Name] = p50
		invoke = append(invoke, p50)
		if orig := median(us["interp.invoke_original."+h.prog.Name]); orig > 0 {
			ratio = append(ratio, p50/orig)
		}
		overhead = append(overhead, median(us["core.run."+h.prog.Name])-p50)
		invokeTotal += total(inv)
	}
	tr.values["interp.invoke_us"] = geomean(invoke)
	tr.values["instrument.overhead_ratio"] = geomean(ratio)
	tr.values["core.run_overhead_us"] = mean(overhead)
	tr.values["sgx.epc_model_new_us"] = median(us["sgx.epc_model_new"])
	if invokeTotal > 0 {
		tr.values["interp.minstr_s"] = instrs / invokeTotal
	}
	if ops > 0 {
		tr.values["sgx.page_faults_per_op"] = faults / float64(ops)
	}
	var crossed, between float64
	for _, rd := range transitions {
		if rd.runs > 1 {
			crossed += float64(rd.last - rd.first)
			between += float64(rd.runs - 1)
		}
	}
	if between > 0 {
		tr.values["sgx.transitions_per_op"] = crossed / between
	}
	tr.notes = append(tr.notes, fmt.Sprintf("%d ops driven three ways (Run, bare instrumented invoke, bare original invoke), one client", ops))

	_, kb := allocsPer(100, func() { newRunModel() })
	tr.values["sgx.epc_model_new_kb"] = kb
	var invokeAllocs float64
	for k, h := range w.progs {
		vm, err := pools[k].instrumented.Get(h.invokeConfig(0))
		if err != nil {
			tr.check(err)
			continue
		}
		a, _ := allocsPer(1, func() { _, err = vm.InvokeExport("run", h.prog.Args...) })
		pools[k].instrumented.Put(vm)
		tr.check(err)
		invokeAllocs += a
	}
	tr.values["interp.allocs_per_invoke"] = invokeAllocs / float64(len(w.progs))
	tr.check(w.checkLedgers())
	return tr
}
