package main

import (
	"fmt"
	"runtime"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	wasmbin "acctee/internal/wasm/binary"
	"acctee/internal/wasm/validate"
	"acctee/internal/wasm/wat"
)

// deploy is deploy-cold: each op takes one module from bytes to its first
// result — binary.Decode, validate.Module, InstrumentationEnclave.Instrument,
// NewAccountingEnclave (evidence check, compile, ledger), first Run, Close.
// It runs the wasm, instrument and interp layers the other way round from
// the execution workloads: a change that runs faster by compiling more
// shows its price here.
type deploy struct {
	spec  spec
	env   env
	ie    *core.InstrumentationEnclave
	order []int
	mods  []*coldModule
}

// coldModule is one module of the deploy set as the op receives it.
type coldModule struct {
	prog     program
	bytes    []byte
	want     uint64
	weighted uint64 // WeightedInstructions of the first run: identical on every deployment
}

func newDeploy(s spec, e env) *deploy { return &deploy{spec: s, env: e} }

func (w *deploy) setup() error {
	r := rng(w.env.seed)
	w.order = r.perm(len(deploySet))
	var err error
	if w.ie, err = core.NewInstrumentationEnclave(instrument.LoopBased, nil); err != nil {
		return err
	}
	w.mods = nil
	for _, p := range deploySet {
		m, err := p.Build()
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		bin, err := wasmbin.Encode(m)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		w.mods = append(w.mods, &coldModule{prog: p, bytes: bin, want: p.Want()})
	}
	// The warm-up deploys every module once, which also fixes each
	// module's weighted instruction count.
	for k, cm := range w.mods {
		d, err := w.deployModule(k, untraced)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		d.ae.Close()
		cm.weighted = d.res.Record.Log.WeightedInstructions
	}
	return nil
}

func (w *deploy) close() {}

// stepFunc runs one named step of the op; the traced run wraps each in a
// span, the timed run just calls it.
type stepFunc func(name string, fn func())

func untraced(_ string, fn func()) { fn() }

// deployment is one module taken from bytes to its first result.
type deployment struct {
	decoded      *wasm.Module
	instrumented *wasm.Module
	evidence     core.Evidence
	ae           *core.AccountingEnclave
	res          core.RunResult
}

// deployModule takes module k from bytes to its first result, step by
// step, and checks the result against the native reference and the
// module's fixed weighted instruction count (once the warm-up has fixed
// it). The caller closes the enclave.
func (w *deploy) deployModule(k int, step stepFunc) (deployment, error) {
	cm := w.mods[k]
	var d deployment
	var err error
	fail := func(err error) (deployment, error) {
		if d.ae != nil {
			d.ae.Close()
		}
		return deployment{}, fmt.Errorf("%s: %w", cm.prog.Name, err)
	}
	step("wasm.decode", func() { d.decoded, err = wasmbin.Decode(cm.bytes) })
	if err != nil {
		return fail(err)
	}
	step("wasm.validate", func() { err = validate.Module(d.decoded) })
	if err != nil {
		return fail(err)
	}
	step("core.ie_instrument", func() { d.instrumented, d.evidence, err = w.ie.Instrument(d.decoded) })
	if err != nil {
		return fail(err)
	}
	step("core.new_enclave", func() {
		d.ae, err = core.NewAccountingEnclave(sgx.ModeHardware, sgx.DefaultCostParams(), nil,
			d.instrumented, d.evidence, w.ie.PublicKey())
	})
	if err != nil {
		return fail(err)
	}
	step("core.run", func() { d.res, err = d.ae.Run(core.RunOptions{Entry: "run", Args: cm.prog.Args}) })
	if err != nil {
		return fail(err)
	}
	if len(d.res.Results) != 1 || d.res.Results[0] != cm.want {
		return fail(fmt.Errorf("result %v, native reference %#x", d.res.Results, cm.want))
	}
	if got := d.res.Record.Log.WeightedInstructions; cm.weighted != 0 && got != cm.weighted {
		return fail(fmt.Errorf("%d weighted instructions, first deployment had %d", got, cm.weighted))
	}
	return d, nil
}

func (w *deploy) moduleIndex(c, i int) int { return walk(w.order, w.env.clients, c, i) }

// deployOne is the op.
func (w *deploy) deployOne(c, i int) (int, time.Duration, error) {
	k := w.moduleIndex(c, i)
	t0 := time.Now()
	d, err := w.deployModule(k, untraced)
	if err != nil {
		return k, 0, err
	}
	d.ae.Close()
	return k, time.Since(t0), nil
}

// compiledKBPerModule compiles every module of the set, keeps the
// artifacts, and divides the heap they added by their number.
func (w *deploy) compiledKBPerModule() (float64, error) {
	before := liveHeapMB()
	kept := make([]*interp.CompiledModule, 0, len(w.mods))
	for _, cm := range w.mods {
		m, err := wasmbin.Decode(cm.bytes)
		if err != nil {
			return 0, err
		}
		inst, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			return 0, err
		}
		compiled, err := interp.Compile(inst.Module, interp.CompileOptions{CostModels: []interp.CostModel{newRunModel()}})
		if err != nil {
			return 0, err
		}
		kept = append(kept, compiled)
	}
	after := liveHeapMB()
	runtime.KeepAlive(kept)
	return (after - before) * 1024 / float64(len(kept)), nil
}

func (w *deploy) run(d time.Duration) result {
	loop := closedLoop(w.env.clients, d, w.deployOne, nil)
	sum := loop.summarize(len(w.mods))
	res := result{tally: loop.tally, values: map[string]float64{}}
	res.notes = append(res.notes, spreadNote(sum))
	loop.samples = nil
	fillEndToEnd(res.values, sum)

	kb, err := w.compiledKBPerModule()
	res.check(err)
	res.values["compiled_kb_per_module"] = kb

	// live_heap_mb is the heap with the whole set deployed: every module's
	// enclave, compiled artifact, pooled instance and ledger held at once.
	var held []*core.AccountingEnclave
	for k := range w.mods {
		d, err := w.deployModule(k, untraced)
		res.check(err)
		if err == nil {
			held = append(held, d.ae)
		}
	}
	res.values["live_heap_mb"] = liveHeapMB()
	for _, ae := range held {
		ae.Close()
	}
	return res
}

func (w *deploy) trace(d time.Duration) traceResult {
	tr := traceResult{values: map[string]float64{}}
	ts := newTracers(w.env.clients)
	loopTrace(d/2, &tr, ts, func(d time.Duration, ts *tracers) runResult {
		return closedLoop(w.env.clients, d, w.deployOne, ts)
	})

	// Each op id first runs the op itself, one span per public call, and
	// then replays what NewAccountingEnclave does inside through public
	// functions: VerifyEvidence, validate.Module, sgx.NewEnclave, ModuleHash,
	// NewEPCModel, interp.Compile, accounting.NewLedger, and the first
	// instantiation and invoke.
	t := ts.single
	var decodedBytes float64
	deadline := time.Now().Add(d / 2)
	ops := 0
	for ; time.Now().Before(deadline) || ops < len(w.mods); ops++ {
		k := w.moduleIndex(0, ops)
		err := w.traceOne(t, k)
		tr.check(err)
		decodedBytes += float64(len(w.mods[k].bytes))
	}
	tr.spans = ts.collect()

	us := durationsUS(t.spans)
	for metric, name := range map[string]string{
		"wasm.decode_us":           "wasm.decode",
		"wasm.validate_us":         "wasm.validate",
		"wasm.wat_parse_us":        "wasm.wat_parse",
		"instrument.instrument_us": "instrument.instrument",
		"interp.compile_us":        "interp.compile",
		"interp.instantiate_us":    "interp.instantiate",
		"interp.invoke_us":         "interp.invoke",
		"sgx.epc_model_new_us":     "sgx.epc_model_new",
		"core.verify_evidence_us":  "core.verify_evidence",
	} {
		tr.values[metric] = median(us[name])
	}
	tr.values["core.new_enclave_ms"] = median(us["core.new_enclave"]) / 1e3
	var decodeUS float64
	for _, v := range us["wasm.decode"] {
		decodeUS += v
	}
	if decodeUS > 0 {
		tr.values["wasm.decode_mb_s"] = decodedBytes / decodeUS * 1e6 / (1 << 20)
	}
	opUS := median(us["op.steps"])
	tr.notes = append(tr.notes, fmt.Sprintf(
		"%d ops decomposed, one client; of the op's p50 %.0f us: compile %.0f + instrument %.0f + verify evidence %.0f us, first run %.0f us",
		ops, opUS, tr.values["interp.compile_us"], tr.values["instrument.instrument_us"],
		tr.values["core.verify_evidence_us"], median(us["core.run"])))

	var placed, original, instrumented float64
	for _, cm := range w.mods {
		m, err := wasmbin.Decode(cm.bytes)
		if err != nil {
			tr.check(err)
			continue
		}
		inst, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			tr.check(err)
			continue
		}
		bin, err := wasmbin.Encode(inst.Module)
		tr.check(err)
		placed += float64(inst.Stats.IncrementsPlaced)
		original += float64(len(cm.bytes))
		instrumented += float64(len(bin))
	}
	tr.values["instrument.increments_placed"] = placed
	if original > 0 {
		tr.values["instrument.size_ratio"] = instrumented / original
	}
	kb, err := w.compiledKBPerModule()
	tr.check(err)
	tr.values["interp.compiled_kb"] = kb
	_, kb = allocsPer(100, func() { newRunModel() })
	tr.values["sgx.epc_model_new_kb"] = kb
	return tr
}

// traceOne deploys module k once, span by span, and then replays under the
// same op id what NewAccountingEnclave does inside.
func (w *deploy) traceOne(t *tracer, k int) error {
	cm := w.mods[k]
	root := t.beginOp("op.steps")
	op := root
	step := func(name string, fn func()) { t.timed(op, root, name, fn) }
	d, err := w.deployModule(k, step)
	if err == nil {
		step("core.close", d.ae.Close)
	}
	t.end(root)
	if err != nil {
		return err
	}
	m, inst, ev := d.decoded, d.instrumented, d.evidence

	replay := t.begin(op, 0, "replay")
	defer t.end(replay)
	if cm.prog.WAT != "" {
		src, err := watSource(cm.prog.WAT)
		if err != nil {
			return err
		}
		t.timed(op, replay, "wasm.wat_parse", func() { _, err = wat.Parse(src) })
		if err != nil {
			return err
		}
	}
	t.timed(op, replay, "instrument.instrument", func() {
		_, err = instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
	})
	if err != nil {
		return err
	}
	t.timed(op, replay, "core.verify_evidence", func() { err = core.VerifyEvidence(inst, ev, w.ie.PublicKey()) })
	if err != nil {
		return err
	}
	t.timed(op, replay, "wasm.validate_instrumented", func() { err = validate.Module(inst) })
	if err != nil {
		return err
	}
	var enclave *sgx.Enclave
	t.timed(op, replay, "sgx.new_enclave", func() {
		enclave, err = sgx.NewEnclave([]byte("deploy-cold replay"), sgx.ModeHardware, sgx.DefaultCostParams())
	})
	if err != nil {
		return err
	}
	t.timed(op, replay, "core.module_hash", func() { _, err = core.ModuleHash(inst) })
	if err != nil {
		return err
	}
	// NewAccountingEnclave builds one cost model to prewarm the compile and
	// the first Run builds another; both are timed apart from the compile.
	var model *sgx.EPCModel
	t.timed(op, replay, "sgx.epc_model_new", func() { model = newRunModel() })
	var compiled *interp.CompiledModule
	t.timed(op, replay, "interp.compile", func() {
		compiled, err = interp.Compile(inst, interp.CompileOptions{CostModels: []interp.CostModel{model}})
	})
	if err != nil {
		return err
	}
	var ledger *accounting.Ledger
	t.timed(op, replay, "accounting.new_ledger", func() {
		ledger, err = accounting.NewLedger(enclave, accounting.LedgerOptions{})
	})
	if err != nil {
		return err
	}
	ledger.Close()
	t.timed(op, replay, "sgx.epc_model_new", func() { model = newRunModel() })
	var vm *interp.VM
	t.timed(op, replay, "interp.instantiate", func() {
		vm, err = compiled.Instantiate(interp.Config{CostModel: model})
	})
	if err != nil {
		return err
	}
	var out []uint64
	t.timed(op, replay, "interp.invoke", func() { out, err = vm.InvokeExport("run", cm.prog.Args...) })
	if err != nil {
		return err
	}
	if out[0] != cm.want {
		return fmt.Errorf("%s: replayed first invoke returned %#x, native reference %#x", cm.prog.Name, out[0], cm.want)
	}
	return nil
}
