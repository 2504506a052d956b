// Package faas implements the serverless evaluation infrastructure of the
// paper (§5.3, Fig. 9): an HTTP gateway that instantiates one WebAssembly
// sandbox per request ("To maintain isolation between the functions, the
// HTTP Server instantiates a new WebAssembly module for every incoming
// request"), six deployment setups (WASM, WASM-SGX SIM, WASM-SGX HW, HW
// +instrumentation, HW +I/O accounting, and the JavaScript/OpenFaaS
// baseline). Simulated time (enclave crossings, EPC paging, the JS
// dispatch) is reported in each response's Server-Timing header, not spent.
package faas

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	"acctee/internal/workloads"
)

// Function selects the deployed FaaS function.
type Function int

// Deployed functions.
const (
	Echo Function = iota + 1
	Resize
)

// String names the function.
func (f Function) String() string {
	if f == Echo {
		return "echo"
	}
	return "resize"
}

// Setup is one of the paper's six deployment configurations.
type Setup int

// Deployment setups of Fig. 9.
const (
	SetupWASM Setup = iota + 1
	SetupSGXSim
	SetupSGXHW
	SetupSGXHWInstr
	SetupSGXHWIO
	SetupJS
)

var setupNames = [...]string{SetupWASM: "WASM", SetupSGXSim: "WASM-SGX SIM", SetupSGXHW: "WASM-SGX HW",
	SetupSGXHWInstr: "WASM-SGX HW instr.", SetupSGXHWIO: "WASM-SGX HW I/O", SetupJS: "JS"}

// String names the setup as in Fig. 9.
func (s Setup) String() string {
	if s < SetupWASM || s > SetupJS {
		return "setup?"
	}
	return setupNames[s]
}

// JSDispatchCost models the OpenFaaS classic-watchdog fork/exec plus Docker
// network hop the paper's JS baseline pays on every request (modelled, since
// Docker is unavailable here: README, "Paper versus measured"). Like the
// wasm setups' enclave cycles, it is reported as the response's simulated
// time, not spent.
const JSDispatchCost = 12 * time.Millisecond

// Server is the FaaS gateway for one function in one setup. The function
// module is compiled once at construction; requests are served from a pool
// of sandbox instances deterministically reset between requests ("To
// maintain isolation between the functions, the HTTP Server instantiates a
// new WebAssembly module for every incoming request" — the reset gives the
// same isolation without repeating the lowering pass).
//
// The instrumented setups deploy the function in AccTEE, as the paper's FaaS
// evaluation does: a core.AccountingEnclave checks the instrumentation
// enclave's evidence, runs every request and chains its usage record (a trap
// or an interrupt too) onto its hash-chained ledger. A response carries the
// record's receipt in X-Acct-Shard / X-Acct-Sequence / X-Acct-Chain, and the
// ledger endpoints serve records, checkpoints, the dump and compaction
// (ServerOptions.Ledger.Retention automates the last).
type Server struct {
	fn      Function
	setup   Setup
	opts    ServerOptions
	ae      *core.AccountingEnclave // instrumented setups only
	sandbox *core.Sandbox           // the plain wasm setups: no ledger
	costs   sgx.CostParams
	// Request counters are atomics, not a shared mutex: every response on
	// every connection bumps them, and a lock here serializes otherwise
	// independent requests at the very end of the handler.
	requests atomic.Uint64
	// Admission control: sem holds one slot per concurrently executing
	// invocation (nil = unlimited), queued counts requests waiting for a
	// slot, shed counts 429s issued, interrupted counts invocations the
	// deadline cut short.
	sem         chan struct{}
	queued      atomic.Int64
	shed        atomic.Uint64
	interrupted atomic.Uint64
	mux         *http.ServeMux
}

// ServerOptions tune the gateway's instance pool, its accounting ledger and
// its overload behaviour.
type ServerOptions struct {
	// PoolPrewarm pre-instantiates this many sandbox instances at startup.
	PoolPrewarm int
	// Ledger tunes the instrumented setups' usage ledger: shard count,
	// per-record eager signing (the per-request-signature baseline), and
	// periodic checkpointing. Ignored by uninstrumented setups.
	Ledger accounting.LedgerOptions
	// RequestTimeout bounds each function invocation end to end. The
	// deadline (combined with the client disconnecting, via the request
	// context) propagates into the interpreter as a cooperative interrupt:
	// the run aborts at the next accounting segment boundary, the work
	// actually executed is charged to the ledger, and the response is a
	// 504 carrying the receipt of the partial run. Zero = no deadline.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing invocations; excess requests
	// wait on the bounded queue (MaxQueue) and are shed with 429 beyond
	// it. Zero = unlimited (no admission control). Ledger read endpoints
	// and health probes are never gated — they must answer precisely when
	// the gateway is saturated.
	MaxInFlight int
	// MaxQueue bounds how many admitted requests may wait for an execution
	// slot. Zero = no waiting room: requests shed as soon as every slot is
	// busy.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed (default 50ms when MaxQueue > 0). Short on
	// purpose: under sustained overload a long queue only converts
	// rejections into slow rejections.
	QueueTimeout time.Duration
}

// NewServer builds the gateway with default options (pooled instances over
// a cached compiled artifact).
func NewServer(fn Function, setup Setup) (*Server, error) {
	return NewServerWithOptions(fn, setup, ServerOptions{})
}

// NewServerWithOptions builds (and, where applicable, instruments) the
// function module once — the paper's cached-instrumentation deployment —
// compiles it into the shared execution artifact, and returns the gateway.
func NewServerWithOptions(fn Function, setup Setup, opts ServerOptions) (*Server, error) {
	s := &Server{fn: fn, setup: setup, opts: opts, costs: sgx.DefaultCostParams()}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	if opts.QueueTimeout <= 0 {
		s.opts.QueueTimeout = 50 * time.Millisecond
	}
	s.mux = http.NewServeMux()
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, s.apply(rt))
	}
	if setup == SetupJS {
		return s, nil
	}
	build := workloads.BuildEcho
	if fn == Resize {
		build = workloads.BuildResize
	}
	m, err := build()
	if err != nil {
		return nil, fmt.Errorf("faas: build function: %w", err)
	}
	if setup == SetupSGXHWInstr || setup == SetupSGXHWIO {
		if s.ae, err = deploy(m, s.costs, opts); err != nil {
			return nil, err
		}
		return s, nil
	}
	// Of the plain setups only HW charges anything: a crossing each way and
	// a per-request EPC model's paging, its segment sums cached at compile.
	var warm []interp.CostModel
	var cross func() uint64
	if setup == SetupSGXHW {
		warm = []interp.CostModel{sgx.NewEPCModel(sgx.ModeHardware, s.costs, nil)}
		cross = func() uint64 { return s.costs.TransitionCycles }
	}
	compiled, err := interp.Compile(m, interp.CompileOptions{CostModels: warm})
	if err != nil {
		return nil, fmt.Errorf("faas: compile function: %w", err)
	}
	if s.sandbox, err = core.NewSandbox(compiled, interp.Config{}, interp.PoolConfig{Prewarm: opts.PoolPrewarm}, cross); err != nil {
		return nil, fmt.Errorf("faas: %w", err)
	}
	return s, nil
}

// deploy runs the instrumented setups' deployment (§3.3): the
// instrumentation enclave instruments the function and signs the evidence,
// and the accounting enclave checks it and compiles the module once. Its
// ledger keeps one chained record per request, batch-signed at checkpoints
// and, with ServerOptions.Ledger.Retention configured, bounded in memory.
func deploy(m *wasm.Module, costs sgx.CostParams, opts ServerOptions) (*core.AccountingEnclave, error) {
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		return nil, err
	}
	inst, ev, err := ie.Instrument(m)
	if err != nil {
		return nil, fmt.Errorf("faas: instrument: %w", err)
	}
	ae, err := core.NewAccountingEnclave(sgx.ModeHardware, costs, nil, inst, ev, ie.PublicKey())
	if err != nil {
		return nil, fmt.Errorf("faas: %w", err)
	}
	if err = ae.SetLedgerOptions(opts.Ledger); err == nil {
		err = ae.SetPoolConfig(interp.PoolConfig{Prewarm: opts.PoolPrewarm})
	}
	if err != nil {
		// A failed construction must not leak the ledger's checkpoint
		// goroutine or spill file handles (TestServerCreateCloseNoLeak).
		ae.Close()
		return nil, fmt.Errorf("faas: %w", err)
	}
	return ae, nil
}

// Ledger exposes the gateway's usage ledger (nil for uninstrumented
// setups).
func (s *Server) Ledger() *accounting.Ledger {
	if s.ae == nil {
		return nil
	}
	return s.ae.Ledger()
}

// Enclave exposes the accounting enclave's enclave in the instrumented
// setups, nil in the others: its public key verifies ledger records and
// checkpoints, under core.AEMeasurement.
func (s *Server) Enclave() *sgx.Enclave {
	if s.ae == nil {
		return nil
	}
	return s.ae.Enclave()
}

// Close stops the ledger's periodic checkpoint goroutine, if configured,
// and closes its spill files. Close is idempotent.
func (s *Server) Close() {
	if s.ae != nil {
		s.ae.Close()
	}
}

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// Ledger and health endpoint paths on the gateway.
const (
	ReceiptPath    = "/receipt"
	CheckpointPath = "/checkpoint"
	LedgerPath     = "/ledger"
	CompactPath    = "/compact"
	// HealthPath is the liveness probe: 200 whenever the process can
	// answer, with pool/queue/ledger state in the body.
	HealthPath = "/healthz"
	// ReadyPath is the readiness probe: 503 once the ledger's spill
	// pipeline has degraded (durability lost), 200 otherwise, same body.
	ReadyPath = "/readyz"
)

// Stable machine-readable error codes carried in 4xx/5xx JSON bodies
// ({"error":{"code":...}}). Details are logged server-side, never echoed:
// error strings are not an API, and internal paths do not belong on the
// wire.
const (
	ErrCodeOverloaded       = "overloaded"
	ErrCodeDeadlineExceeded = "deadline_exceeded"
	ErrCodeInvokeFailed     = "invoke_failed"
	ErrCodeCheckpointFailed = "checkpoint_failed"
	ErrCodeCompactFailed    = "compact_failed"
	ErrCodePayloadTooLarge  = "payload_too_large"
	ErrCodeBadRequest       = "bad_request"
	ErrCodeNotFound         = "not_found"
	ErrCodeMethodNotAllowed = "method_not_allowed"
	ErrCodeInternal         = "internal"
)

// writeError responds with a stable machine-readable error code and logs
// the underlying detail server-side.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	if err != nil {
		log.Printf("faas: %s: %v", code, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":{\"code\":%q}}\n", code)
}

// admit claims an execution slot, waiting on the bounded queue when every
// slot is busy. It returns false when the request should be shed (queue
// full, queue-wait timed out, or the client gave up while queued).
func (s *Server) admit(r *http.Request) bool {
	if s.sem == nil {
		return true
	}
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.opts.MaxQueue <= 0 {
		return false
	}
	if n := s.queued.Add(1); n > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		return false
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return true
	case <-time.After(s.opts.QueueTimeout):
		return false
	case <-r.Context().Done():
		return false
	}
}

// HealthStatus is the /healthz and /readyz response body.
type HealthStatus struct {
	Setup       string        `json:"setup"`
	Function    string        `json:"function"`
	Requests    uint64        `json:"requests"`
	InFlight    int           `json:"in_flight"`
	MaxInFlight int           `json:"max_in_flight"`
	Queued      int64         `json:"queued"`
	MaxQueue    int           `json:"max_queue"`
	Shed        uint64        `json:"shed"`
	Interrupted uint64        `json:"interrupted"`
	Ledger      *LedgerHealth `json:"ledger,omitempty"`
}

// LedgerHealth is the ledger-pipeline slice of HealthStatus (instrumented
// setups only).
type LedgerHealth struct {
	Resident           int    `json:"resident"`
	Spilled            uint64 `json:"spilled"`
	CheckpointFailures uint64 `json:"checkpoint_failures"`
	Degraded           bool   `json:"degraded"`
	DegradedCause      string `json:"degraded_cause,omitempty"`
}

// Health snapshots the gateway's pool, queue, and ledger-pipeline state.
func (s *Server) Health() HealthStatus {
	h := HealthStatus{
		Setup:       s.setup.String(),
		Function:    s.fn.String(),
		Requests:    s.requests.Load(),
		InFlight:    len(s.sem),
		MaxInFlight: s.opts.MaxInFlight,
		Queued:      s.queued.Load(),
		MaxQueue:    s.opts.MaxQueue,
		Shed:        s.shed.Load(),
		Interrupted: s.interrupted.Load(),
	}
	if l := s.Ledger(); l != nil {
		lh := &LedgerHealth{
			Resident: l.Resident(),
			Spilled:  l.SpilledRecords(),
		}
		lh.CheckpointFailures, _ = l.CheckpointFailures()
		if deg, cause := l.Degraded(); deg {
			lh.Degraded = true
			if cause != nil {
				lh.DegradedCause = cause.Error()
			}
		}
		h.Ledger = lh
	}
	return h
}

// serveHealth answers the liveness and readiness probes. Readiness fails
// (503) once the spill pipeline has degraded: the gateway still accounts
// correctly but has lost durability, so a balancer should rotate it out.
func (s *Server) serveHealth(w http.ResponseWriter, ready bool) {
	h := s.Health()
	status := http.StatusOK
	if ready && h.Ledger != nil && h.Ledger.Degraded {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Shed returns how many requests were rejected with 429 by admission
// control.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// Interrupted returns how many invocations the deadline cut short.
func (s *Server) Interrupted() uint64 { return s.interrupted.Load() }

// policy is what the route table applies around a row's handler: ledger
// rows answer 404 where there is no ledger, and only invoke rows pass
// admission control, so probes and ledger reads answer under saturation.
type policy int

const (
	probe policy = iota
	ledger
	invoke
)

// route is a row of the route table: a ServeMux pattern, policy, handler.
type route struct {
	pattern string
	policy  policy
	serve   func(s *Server, w http.ResponseWriter, r *http.Request)
}

// routes is the gateway's route table. A GET pattern serves HEAD too, so a
// HEAD probe never invokes, nor does a GET or HEAD of "/" itself (a load
// balancer's health check). Every other method or path falls through to "/"
// and invokes: a POST to /receipt, or a GET of /favicon.ico, runs the
// function. A method-only "GET /" row would close the last, but ServeMux
// refuses it beside the method-less /compact row.
var routes = []route{
	{"GET " + HealthPath, probe, func(s *Server, w http.ResponseWriter, _ *http.Request) { s.serveHealth(w, false) }},
	{"GET " + ReadyPath, probe, func(s *Server, w http.ResponseWriter, _ *http.Request) { s.serveHealth(w, true) }},
	{"GET " + ReceiptPath, ledger, (*Server).serveReceipt},
	{"GET " + CheckpointPath, ledger, (*Server).serveCheckpoint},
	{"GET " + LedgerPath, ledger, (*Server).serveDump},
	// Compaction mutates ledger state: a crawler's or a monitor's GET must
	// never trigger it.
	{"POST " + CompactPath, ledger, (*Server).serveCompact},
	{CompactPath, probe, refuse(http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed)},
	{"GET /{$}", probe, refuse(http.StatusNotFound, ErrCodeNotFound)},
	{"/", invoke, (*Server).serveInvoke},
}

// refuse is a row's handler that answers status with an error code and
// does nothing else.
func refuse(status int, code string) func(*Server, http.ResponseWriter, *http.Request) {
	return func(_ *Server, w http.ResponseWriter, _ *http.Request) { writeError(w, status, code, nil) }
}

// apply wraps a row's handler in its policy: the one place admission
// control and the ledger's absence are applied.
func (s *Server) apply(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch {
		case rt.policy == ledger && s.ae == nil:
			writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
			return
		case rt.policy != invoke: // probes and ledger reads are never gated
		case !s.admit(r): // before the body is read: a shed costs next to nothing
			s.shed.Add(1)
			// Retry-After steers well-behaved clients (and the load
			// generator's backoff) away while the pool is saturated.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, ErrCodeOverloaded, nil)
			return
		case s.sem != nil:
			defer func() { <-s.sem }()
		}
		rt.serve(s, w, r)
	}
}

// ServeHTTP routes the request by the route table (routes). A POST to "/"
// invokes the function: the body is the payload, and for resize the image
// dimensions travel in X-Width/X-Height.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// serveInvoke runs the function once on the request's body.
func (s *Server) serveInvoke(w http.ResponseWriter, r *http.Request) {
	// A declared length over the ceiling is refused before a byte is read;
	// one within it is read into one buffer of that size (ReadAll regrows
	// from 512 B: ~3x the payload in throwaway buffers), and a body that
	// ends short of it is a bad payload. An undeclared body is cut off at
	// MaxPayload+1 bytes instead of being buffered whole and measured.
	n := r.ContentLength
	if n > workloads.MaxPayload {
		writeError(w, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge, nil)
		return
	}
	var body []byte
	var err error
	if n > 0 {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, workloads.MaxPayload))
	}
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodePayloadTooLarge, nil)
		} else {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, nil)
		}
		return
	}
	width, _ := strconv.Atoi(r.Header.Get("X-Width"))
	height, _ := strconv.Atoi(r.Header.Get("X-Height"))

	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}

	p := &payload{body: body, accounted: s.setup == SetupSGXHWIO}
	var res core.RunResult
	simNs := float64(JSDispatchCost)
	switch {
	case s.setup != SetupJS:
		res, err = s.run(ctx, p, width, height)
		simNs = float64(res.EnclaveCycles) / sgx.CyclesPerNs
	case s.fn == Echo:
		p.out = workloads.JSEcho(body)
	default:
		p.out = workloads.JSResize(body, width, height)
	}
	w.Header().Set("Server-Timing", "sim;dur="+strconv.FormatFloat(simNs/1e6, 'f', -1, 64))
	if counter := res.Record.Log.WeightedInstructions; counter > 0 {
		w.Header().Set("X-Weighted-Instructions", strconv.FormatUint(counter, 10))
	}
	if res.Record.Hash != ([32]byte{}) {
		// The response's ledger receipt: where the request's usage record
		// landed and the shard chain head it produced.
		rcpt := res.Receipt
		w.Header().Set("X-Acct-Shard", strconv.FormatUint(uint64(rcpt.Shard), 10))
		w.Header().Set("X-Acct-Sequence", strconv.FormatUint(rcpt.Sequence, 10))
		// One string per response for a fixed 32-byte value:
		// hex.EncodeToString allocates its buffer and the string, and
		// Sprintf("%x", ...) reflects over the array.
		var head [64]byte
		hex.Encode(head[:], rcpt.ChainHead[:])
		w.Header().Set("X-Acct-Chain", string(head[:]))
	}
	if err != nil {
		if errors.Is(err, interp.ErrInterrupted) {
			// The deadline cut the run short at a segment boundary. The
			// work actually executed is already charged — the receipt
			// headers above point at the partial run's ledger record, as
			// they point at a trapped run's below.
			s.interrupted.Add(1)
			writeError(w, http.StatusGatewayTimeout, ErrCodeDeadlineExceeded, err)
			return
		}
		writeError(w, http.StatusInternalServerError, ErrCodeInvokeFailed, err)
		return
	}
	s.requests.Add(1)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.out)
}

// serveReceipt answers /receipt?shard=S&seq=N with the record.
func (s *Server) serveReceipt(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	shard, err1 := strconv.ParseUint(q.Get("shard"), 10, 32)
	seq, err2 := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, nil)
		return
	}
	rec, ok := s.Ledger().Record(uint32(shard), seq)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// serveCheckpoint batch-signs the ledger's current state on request (the
// paper's "upon request" log) and returns the signed checkpoint.
func (s *Server) serveCheckpoint(w http.ResponseWriter, _ *http.Request) {
	sc, err := s.Ledger().Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeCheckpointFailed, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

// serveDump streams the offline-verifiable dump (acctee-verify input) in
// O(segment) memory; ?truncated=1 anchors it at the last compaction
// checkpoint (?bin=1 is ignored). On a write error the headers are gone,
// and the truncated body fails to parse, as a verifier should see it.
func (s *Server) serveDump(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = s.Ledger().WriteDump(w, accounting.DumpOptions{Truncated: r.URL.Query().Get("truncated") == "1"})
}

// serveCompact runs one bounded-retention compaction: sign a checkpoint
// covering every lane, seal what it covers (spill or drop), and report what
// was released — before scraping a truncated dump, or to bound memory
// without an automatic retention trigger.
func (s *Server) serveCompact(w http.ResponseWriter, _ *http.Request) {
	res, err := s.Ledger().Compact()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeCompactFailed, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// run runs the function once on the request's payload: in the accounting
// enclave, which records every run it starts (a trap or an interrupt too),
// or in the plain setups' sandbox, which records none.
func (s *Server) run(ctx context.Context, p *payload, width, height int) (core.RunResult, error) {
	var args []uint64
	if s.fn == Echo {
		args = []uint64{uint64(len(p.body))}
	} else {
		args = []uint64{uint64(width), uint64(height)}
	}
	opts := core.RunOptions{Entry: "run", Args: args, Payload: p}
	if s.ae != nil {
		return s.ae.RunContext(ctx, opts)
	}
	var model *sgx.EPCModel
	if s.setup == SetupSGXHW {
		// EPC residency is per run: each request gets a fresh model.
		model = sgx.NewEPCModel(sgx.ModeHardware, s.costs, nil)
	}
	return s.sandbox.Run(ctx, interp.Config{}, model, opts, nil)
}

// payload is one request's body on its way into a sandbox and the
// function's response on its way out, copied by the sandbox through
// core.RunOptions.Payload; the bytes it reports are the record's I/O, which
// only SetupSGXHWIO accounts.
type payload struct {
	body, out []byte
	accounted bool
}

// CopyIn writes the body at workloads.InBase.
func (p *payload) CopyIn(vm *interp.VM) (uint64, error) {
	in, err := vm.MemoryDirty(workloads.InBase, uint32(len(p.body)))
	if err != nil {
		return 0, fmt.Errorf("faas: payload: %w", err)
	}
	copy(in, p.body)
	return p.io(len(p.body)), nil
}

// CopyOut copies the response, as many bytes as the function returned, from
// workloads.OutBase.
func (p *payload) CopyOut(vm *interp.VM, results []uint64) (uint64, error) {
	view, err := vm.MemoryView(workloads.OutBase, uint32(results[0]))
	if err != nil {
		return 0, fmt.Errorf("faas: response: %w", err)
	}
	p.out = make([]byte, len(view))
	copy(p.out, view)
	return p.io(len(p.out)), nil
}

func (p *payload) io(n int) uint64 {
	if !p.accounted {
		return 0
	}
	return uint64(n)
}
