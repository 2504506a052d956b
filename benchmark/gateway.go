package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/faas"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/workloads"
)

// gateway is gw-echo and gw-resize: the paper's full AccTEE configuration
// (SetupSGXHWIO: instrumented, I/O-accounted, ledger on) behind an HTTP
// server on loopback with keep-alive connections.
type gateway struct {
	spec spec
	env  env
	fn   faas.Function

	payloads [][]byte
	want     [][]byte // expected response per payload
	width    string   // X-Width / X-Height header values
	height   string

	spillDir string
	srv      *faas.Server
	ts       *httptest.Server
	client   *http.Client
	clients  []gatewayClient
}

// gatewayClient is one closed-loop client's state: its read buffer and what
// it has seen since set-up (warm-up included), for the end-of-run ledger
// check. The pad keeps neighbours off one cache line.
type gatewayClient struct {
	buf      bytes.Buffer
	ok       uint64 // 2xx responses with the right body
	weighted uint64 // sum of X-Weighted-Instructions over them
	_        [64]byte
}

func newGateway(s spec, e env) *gateway {
	g := &gateway{spec: s, env: e, fn: faas.Echo}
	if s.Name == gwResize {
		g.fn = faas.Resize
	}
	return g
}

func (g *gateway) serverOptions(spillDir string) faas.ServerOptions {
	return faas.ServerOptions{
		PoolPrewarm: g.env.clients,
		Ledger: accounting.LedgerOptions{Retention: accounting.RetentionPolicy{
			MaxResidentRecords: gatewayResident, SpillDir: spillDir}},
	}
}

func (g *gateway) setup() error {
	r := rng(g.env.seed)
	g.payloads, g.want = nil, nil
	for i := 0; i < payloadVariants; i++ {
		if g.fn == faas.Echo {
			p := r.bytes(echoPayloadLen)
			g.payloads = append(g.payloads, p)
			g.want = append(g.want, workloads.NativeEcho(p))
		} else {
			p := r.bytes(resizeEdge * resizeEdge * 4)
			g.payloads = append(g.payloads, p)
			g.want = append(g.want, workloads.NativeResize(p, resizeEdge, resizeEdge))
		}
	}
	g.width, g.height = "0", "0"
	if g.fn == faas.Resize {
		g.width, g.height = strconv.Itoa(resizeEdge), strconv.Itoa(resizeEdge)
	}
	var err error
	if g.spillDir, err = scratchDir(g.env, "spill-"+g.spec.Name); err != nil {
		return err
	}
	if g.srv, err = faas.NewServerWithOptions(g.fn, faas.SetupSGXHWIO, g.serverOptions(g.spillDir)); err != nil {
		return err
	}
	g.ts = httptest.NewServer(g.srv)
	g.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: g.env.clients + 4, MaxIdleConnsPerHost: g.env.clients + 4}}
	g.clients = make([]gatewayClient, g.env.clients)
	return runOps(g.env.clients, (g.spec.WarmupOps+g.env.clients-1)/g.env.clients, g.post)
}

func (g *gateway) close() {
	if g.client != nil {
		g.client.CloseIdleConnections()
	}
	if g.ts != nil {
		g.ts.Close()
	}
	if g.srv != nil {
		g.srv.Close()
	}
	if g.spillDir != "" {
		_ = os.RemoveAll(g.spillDir) // scratch; a leftover is only disk
	}
}

// payloadIndex spreads the clients over the payload variants.
func (g *gateway) payloadIndex(c, i int) int { return (c*11 + i) % len(g.payloads) }

func (g *gateway) newRequest(url string, idx int) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(g.payloads[idx]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Width", g.width)
	req.Header.Set("X-Height", g.height)
	return req, nil
}

// book checks one response to payload idx — a failed op is a non-2xx, a
// wrong body or a missing X-Weighted-Instructions — and books a good one to
// client c for the end-of-run ledger check.
func (g *gateway) book(c, idx, status int, body []byte, header http.Header) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d", status)
	}
	if !bytes.Equal(body, g.want[idx]) {
		return fmt.Errorf("response body differs from the native %s of payload %d", g.fn, idx)
	}
	weighted, err := strconv.ParseUint(header.Get("X-Weighted-Instructions"), 10, 64)
	if err != nil || weighted == 0 {
		return fmt.Errorf("X-Weighted-Instructions %q", header.Get("X-Weighted-Instructions"))
	}
	g.clients[c].ok++
	g.clients[c].weighted += weighted
	return nil
}

// post is the op: one POST, timed from request creation to the body's last
// byte, then checked. A transport error fails the op too.
func (g *gateway) post(c, i int) (int, time.Duration, error) {
	idx := g.payloadIndex(c, i)
	cl := &g.clients[c]
	t0 := time.Now()
	req, err := g.newRequest(g.ts.URL, idx)
	if err != nil {
		return 0, 0, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // read to the end above; nothing left to report
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if err := g.book(c, idx, resp.StatusCode, cl.buf.Bytes(), resp.Header); err != nil {
		return 0, 0, err
	}
	return 0, lat, nil
}

// verifyLedger fetches the binary dump and verifies it under the enclave
// key: the record count must equal the successes the clients saw since
// set-up and the totals must equal the X-Weighted-Instructions they summed.
// It returns how long the GET took.
func (g *gateway) verifyLedger() (time.Duration, error) {
	t0 := time.Now()
	resp, err := g.client.Get(g.ts.URL + faas.LedgerPath + "?bin=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	dump, err := io.ReadAll(resp.Body)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	vr, err := accounting.VerifyReader(bytes.NewReader(dump), accounting.VerifyOptions{Key: g.srv.Enclave().PublicKey()})
	if err != nil {
		return 0, fmt.Errorf("ledger dump: %w", err)
	}
	var ops, weighted uint64
	for i := range g.clients {
		ops += g.clients[i].ok
		weighted += g.clients[i].weighted
	}
	if uint64(vr.Records) != ops {
		return 0, fmt.Errorf("ledger holds %d records, clients saw %d successes", vr.Records, ops)
	}
	if vr.Totals.WeightedInstructions != weighted {
		return 0, fmt.Errorf("ledger totals %d weighted instructions, clients summed %d",
			vr.Totals.WeightedInstructions, weighted)
	}
	return took, nil
}

func (g *gateway) run(d time.Duration) result {
	loop := closedLoop(g.env.clients, d, g.post, nil)
	sum := loop.summarize(1)
	res := result{tally: loop.tally, values: map[string]float64{}}
	res.notes = append(res.notes, spreadNote(sum))
	loop.samples = nil
	fillEndToEnd(res.values, sum)
	_, err := g.verifyLedger()
	res.check(err)
	if err == nil {
		res.notes = append(res.notes, "GET /ledger?bin=1 verified under the enclave key: record count and weighted totals equal what the clients saw")
	}
	res.values["live_heap_mb"] = liveHeapMB()
	return res
}

// memWriter is the in-memory http.ResponseWriter of the direct handler call.
type memWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// reset empties the writer for the next call.
func (w *memWriter) reset() {
	for k := range w.header {
		delete(w.header, k)
	}
	w.status, w.body = 0, w.body[:0]
}

// checkDirect checks a direct handler call's response as post checks a
// reply, and books it to client 0.
func (g *gateway) checkDirect(w *memWriter, idx int) error {
	if err := g.book(0, idx, w.status, w.body, w.header); err != nil {
		return fmt.Errorf("direct handler call: %w", err)
	}
	return nil
}

// replay issues, through public functions only, the sequence the handler
// runs per request, on its own compiled module, pool, enclave and ledger
// built the way faas.NewServerWithOptions builds them. The benchmark may
// not put spans inside the program, so this is how the handler's time is
// split by layer.
type replay struct {
	fn       faas.Function
	costs    sgx.CostParams
	enclave  *sgx.Enclave
	ledger   *accounting.Ledger
	pool     *interp.InstancePool
	counter  uint32
	modHash  [32]byte
	spillDir string

	faults float64 // simulated page faults over all ops
	cycles float64 // simulated cycles (EPC + transitions) over all ops
	instrs float64 // InstrCount over all ops
}

func (g *gateway) newReplay() (*replay, error) {
	build := workloads.BuildEcho
	if g.fn == faas.Resize {
		build = workloads.BuildResize
	}
	m, err := build()
	if err != nil {
		return nil, err
	}
	inst, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
	if err != nil {
		return nil, err
	}
	rp := &replay{fn: g.fn, costs: sgx.DefaultCostParams(), counter: inst.CounterGlobal}
	if rp.modHash, err = core.ModuleHash(inst.Module); err != nil {
		return nil, err
	}
	if rp.enclave, err = sgx.NewEnclave([]byte(core.AEMeasurement().String()), sgx.ModeHardware, rp.costs); err != nil {
		return nil, err
	}
	if rp.spillDir, err = scratchDir(g.env, "spill-replay"); err != nil {
		return nil, err
	}
	if rp.ledger, err = accounting.NewLedger(rp.enclave, g.serverOptions(rp.spillDir).Ledger); err != nil {
		return nil, err
	}
	compiled, err := interp.Compile(inst.Module, interp.CompileOptions{CostModels: []interp.CostModel{rp.newModel()}})
	if err != nil {
		rp.close()
		return nil, err
	}
	rp.pool, err = compiled.NewPool(interp.Config{CostModel: rp.newModel()}, interp.PoolConfig{Prewarm: g.env.clients})
	if err != nil {
		rp.close()
		return nil, err
	}
	return rp, nil
}

// newModel is the per-request cost model the gateway builds.
func (rp *replay) newModel() *sgx.EPCModel {
	return sgx.NewEPCModel(sgx.ModeHardware, rp.costs, nil)
}

// invoke calls the function on a sandbox that already holds the payload.
func (rp *replay) invoke(vm *interp.VM, body []byte) ([]uint64, error) {
	if rp.fn == faas.Echo {
		return vm.InvokeExport("run", uint64(len(body)))
	}
	return vm.InvokeExport("run", resizeEdge, resizeEdge)
}

func (rp *replay) close() {
	rp.ledger.Close()
	_ = os.RemoveAll(rp.spillDir) // scratch; a leftover is only disk
}

// serve is one replayed request, each step a child span of parent.
func (rp *replay) serve(t *tracer, op, parent int, body []byte, want []byte) error {
	var (
		model *sgx.EPCModel
		vm    *interp.VM
		res   []uint64
		out   []byte
		err   error
	)
	t.timed(op, parent, "sgx.epc_model_new", func() { model = rp.newModel() })
	t.timed(op, parent, "interp.pool_get", func() {
		vm, err = rp.pool.Get(interp.Config{CostModel: model})
	})
	if err != nil {
		return err
	}
	cycles := rp.enclave.Transition()
	t.timed(op, parent, "sgx.simulated_burn", func() { spin(simulatedTime(cycles)) })
	t.timed(op, parent, "interp.payload_in", func() {
		var in []byte
		if in, err = vm.MemoryDirty(workloads.InBase, uint32(len(body))); err == nil {
			copy(in, body)
		}
	})
	if err != nil {
		return err
	}
	t.timed(op, parent, "interp.invoke", func() { res, err = rp.invoke(vm, body) })
	if err != nil {
		return err
	}
	t.timed(op, parent, "interp.payload_out", func() {
		var view []byte
		if view, err = vm.MemoryView(workloads.OutBase, uint32(res[0])); err == nil {
			out = make([]byte, len(view))
			copy(out, view)
		}
	})
	if err != nil {
		return err
	}
	t.timed(op, parent, "accounting.append", func() {
		counter, _ := vm.Global(rp.counter) // the index came from the instrumenter
		_, _, err = rp.ledger.Append(accounting.UsageLog{
			WorkloadHash:         rp.modHash,
			WeightedInstructions: counter,
			PeakMemoryBytes:      uint64(vm.MemorySize()),
			SimulatedCycles:      vm.Cost(),
			Policy:               accounting.PeakMemory,
			IOBytesIn:            uint64(len(body)),
			IOBytesOut:           uint64(len(out)),
		})
	})
	if err != nil {
		return err
	}
	leave := rp.enclave.Transition()
	t.timed(op, parent, "sgx.simulated_burn", func() {
		spin(simulatedTime(vm.Cost()))
		spin(simulatedTime(leave))
	})
	cycles += vm.Cost() + leave
	rp.faults += float64(model.PageFaults())
	rp.cycles += float64(cycles)
	rp.instrs += float64(vm.InstrCount())
	t.timed(op, parent, "interp.pool_put", func() { rp.pool.Put(vm) })
	if !bytes.Equal(out, want) {
		return fmt.Errorf("replayed %s output differs from the native reference", rp.fn)
	}
	return nil
}

// traceOpsCap bounds the three-way decomposition; past it the medians no
// longer move and the trace file only grows.
const traceOpsCap = 3000

func (g *gateway) trace(d time.Duration) traceResult {
	tr := traceResult{values: map[string]float64{}}
	transitionsBefore := g.srv.Enclave().Transitions()
	ts := newTracers(g.env.clients)
	loopTrace(d/2, &tr, ts, func(d time.Duration, ts *tracers) runResult {
		return closedLoop(g.env.clients, d, g.post, ts)
	})
	if ops := tr.attempted - tr.failed; ops > 0 {
		tr.values["sgx.transitions_per_op"] = float64(g.srv.Enclave().Transitions()-transitionsBefore) / float64(ops)
	}

	rp, err := g.newReplay()
	if err != nil {
		tr.check(fmt.Errorf("layer replay: %w", err))
		return tr
	}
	defer rp.close()

	// Every op is driven three ways under one op id: the HTTP round trip, a
	// direct ServeHTTP call, and the layer replay. The direct call's
	// request carries a cancellable context, as a served request does, so
	// the handler arms its interrupt watcher there too.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t := ts.single
	w := &memWriter{header: http.Header{}}
	deadline := time.Now().Add(d / 2)
	ops := 0
	for ; ops < traceOpsCap && time.Now().Before(deadline); ops++ {
		idx := g.payloadIndex(0, ops)
		root := t.beginOp("three_way")

		id := t.begin(root, root, "loadgen.round_trip")
		_, _, err := g.post(0, ops)
		t.end(id)
		tr.check(err)

		req, err := g.newRequest("/", idx)
		if err != nil {
			tr.check(err)
			break
		}
		req = req.WithContext(ctx)
		w.reset()
		id = t.begin(root, root, "faas.handler")
		g.srv.ServeHTTP(w, req)
		t.end(id)
		tr.check(g.checkDirect(w, idx))

		id = t.begin(root, root, "replay")
		err = rp.serve(t, root, id, g.payloads[idx], g.want[idx])
		t.end(id)
		tr.check(err)
		t.end(root)
	}
	tr.spans = ts.collect()

	us := durationsUS(t.spans)
	handler, replayed, trip := median(us["faas.handler"]), median(us["replay"]), median(us["loadgen.round_trip"])
	tr.values["faas.handler_us"] = handler
	tr.values["faas.handler_self_us"] = handler - replayed
	if handler > 0 {
		tr.values["faas.replay_coverage"] = replayed / handler
	}
	tr.values["faas.http_overhead_us"] = trip - handler
	tr.values["interp.invoke_us"] = median(us["interp.invoke"])
	tr.values["interp.pool_get_us"] = median(us["interp.pool_get"])
	tr.values["interp.payload_copy_us"] = median(us["interp.payload_in"]) + median(us["interp.payload_out"])
	tr.values["sgx.epc_model_new_us"] = median(us["sgx.epc_model_new"])
	if ops > 0 {
		tr.values["sgx.page_faults_per_op"] = rp.faults / float64(ops)
		tr.values["sgx.simulated_us_per_op"] = rp.cycles / 3000 / float64(ops)
	}
	if invokeUS := total(us["interp.invoke"]); invokeUS > 0 {
		tr.values["interp.minstr_s"] = rp.instrs / invokeUS
	}
	tr.notes = append(tr.notes, fmt.Sprintf("%d ops driven three ways (round trip, direct handler, layer replay), one client", ops))

	g.traceAllocations(ctx, rp, &tr)
	g.traceFixedCosts(&tr)

	took, err := g.verifyLedger()
	tr.check(err)
	tr.values["faas.ledger_dump_ms"] = float64(took) / float64(time.Millisecond)
	tr.values["faas.shed_total"] = float64(g.srv.Shed())
	tr.values["faas.interrupted_total"] = float64(g.srv.Interrupted())
	fillLedgerHealth(tr.values, g.srv.Ledger())
	return tr
}

// traceAllocations counts allocations per direct handler call, per
// NewEPCModel and per bare invoke.
func (g *gateway) traceAllocations(ctx context.Context, rp *replay, tr *traceResult) {
	const n = 20 // the counts repeat exactly; more calls only take longer
	reqs := make([]*http.Request, n)
	for i := range reqs {
		req, err := g.newRequest("/", g.payloadIndex(0, i))
		if err != nil {
			tr.check(err)
			return
		}
		reqs[i] = req.WithContext(ctx)
	}
	w := &memWriter{header: http.Header{}}
	i := 0
	allocs, kb := allocsPer(n, func() {
		w.reset()
		g.srv.ServeHTTP(w, reqs[i])
		if err := g.checkDirect(w, g.payloadIndex(0, i)); err != nil {
			tr.check(err)
		}
		i++
	})
	tr.values["faas.allocs_per_op"] = allocs
	tr.values["faas.alloc_kb_per_op"] = kb

	_, kb = allocsPer(n, func() { rp.newModel() })
	tr.values["sgx.epc_model_new_kb"] = kb

	var invokeAllocs float64
	body := g.payloads[0]
	for k := 0; k < n; k++ {
		vm, err := rp.pool.Get(interp.Config{CostModel: rp.newModel()})
		if err != nil {
			tr.check(err)
			return
		}
		if in, err := vm.MemoryDirty(workloads.InBase, uint32(len(body))); err == nil {
			copy(in, body)
		}
		a, _ := allocsPer(1, func() { _, err = rp.invoke(vm, body) })
		rp.pool.Put(vm)
		if err != nil {
			tr.check(err)
			return
		}
		invokeAllocs += a
	}
	tr.values["interp.allocs_per_invoke"] = invokeAllocs / n
}

// traceFixedCosts times gateway construction and the load generator's own
// round trip against a handler that does nothing.
func (g *gateway) traceFixedCosts(tr *traceResult) {
	var construct []float64
	for k := 0; k < g.env.scaled(3, 1); k++ {
		dir, err := scratchDir(g.env, "spill-construct")
		if err != nil {
			tr.check(err)
			return
		}
		t0 := time.Now()
		srv, err := faas.NewServerWithOptions(g.fn, faas.SetupSGXHWIO, g.serverOptions(dir))
		construct = append(construct, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			tr.check(err)
		} else {
			srv.Close()
		}
		_ = os.RemoveAll(dir) // scratch; a leftover is only disk
	}
	tr.values["faas.new_server_ms"] = median(construct)

	noop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a no-op handler still drains its request
		w.WriteHeader(http.StatusOK)
	}))
	defer noop.Close()
	var trips []float64
	for i := 0; i < g.env.scaled(500, 20); i++ {
		t0 := time.Now()
		req, err := g.newRequest(noop.URL, g.payloadIndex(0, i))
		if err != nil {
			tr.check(err)
			return
		}
		resp, err := g.client.Do(req)
		if err != nil {
			tr.check(err)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // drained above
		trips = append(trips, float64(time.Since(t0))/float64(time.Microsecond))
	}
	tr.values["loadgen.client_us"] = median(trips)
}

// fillLedgerHealth reports the ledger's end-of-run state.
func fillLedgerHealth(values map[string]float64, l *accounting.Ledger) {
	values["accounting.resident_records"] = float64(l.Resident())
	failures, _ := l.CheckpointFailures()
	values["accounting.checkpoint_failures"] = float64(failures)
	if degraded, _ := l.Degraded(); degraded {
		values["accounting.degraded"] = 1
	}
}
