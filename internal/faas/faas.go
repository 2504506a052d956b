// Package faas implements the serverless evaluation infrastructure of the
// paper (§5.3, Fig. 9): an HTTP gateway that instantiates one WebAssembly
// sandbox per request ("To maintain isolation between the functions, the
// HTTP Server instantiates a new WebAssembly module for every incoming
// request"), six deployment setups (WASM, WASM-SGX SIM, WASM-SGX HW, HW
// +instrumentation, HW +I/O accounting, and the JavaScript/OpenFaaS
// baseline), and a concurrent load generator standing in for h2load.
package faas

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
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

// String names the setup as in Fig. 9.
func (s Setup) String() string {
	switch s {
	case SetupWASM:
		return "WASM"
	case SetupSGXSim:
		return "WASM-SGX SIM"
	case SetupSGXHW:
		return "WASM-SGX HW"
	case SetupSGXHWInstr:
		return "WASM-SGX HW instr."
	case SetupSGXHWIO:
		return "WASM-SGX HW I/O"
	case SetupJS:
		return "JS"
	}
	return "setup?"
}

// JSDispatchCost models the OpenFaaS classic-watchdog fork/exec plus Docker
// network hop the paper's JS baseline pays on every request (modelled, since
// Docker is unavailable here: README, "Paper versus measured"). It is
// busy-waited, not slept, because the watchdog burns CPU on fork+exec.
var JSDispatchCost = 12 * time.Millisecond

// Server is the FaaS gateway for one function in one setup. The function
// module is compiled once at construction; requests are served from a pool
// of sandbox instances deterministically reset between requests ("To
// maintain isolation between the functions, the HTTP Server instantiates a
// new WebAssembly module for every incoming request" — the reset gives the
// same isolation without repeating the lowering pass).
//
// In the instrumented setups every response additionally chains a usage
// record onto a sharded hash-chained ledger and returns a receipt in the
// X-Acct-Shard / X-Acct-Sequence / X-Acct-Chain headers; GET /receipt,
// GET /checkpoint and GET /ledger expose the record, a freshly batch-signed
// checkpoint, and the (streamed) offline-verifiable dump
// (cmd/acctee-verify; ?truncated=1 anchors it at the last compaction
// checkpoint), and /compact seals everything the current checkpoint covers
// so a long-running gateway's resident ledger stays bounded
// (ServerOptions.Ledger.Retention automates the trigger).
type Server struct {
	fn      Function
	setup   Setup
	opts    ServerOptions
	pool    *interp.InstancePool // nil for SetupJS
	counter uint32               // instrumented counter global (instr setups)
	enclave *sgx.Enclave         // nil for non-SGX setups
	ledger  *accounting.Ledger   // instrumented setups only
	modHash [32]byte
	costs   sgx.CostParams
	// Request counters are atomics, not a shared mutex: every response on
	// every connection bumps them, and a lock here serializes otherwise
	// independent requests at the very end of the handler.
	requests atomic.Uint64
	ioBytes  atomic.Uint64
	// Admission control: sem holds one slot per concurrently executing
	// invocation (nil = unlimited), queued counts requests waiting for a
	// slot, shed counts 429s issued, interrupted counts invocations the
	// deadline cut short.
	sem         chan struct{}
	queued      atomic.Int64
	shed        atomic.Uint64
	interrupted atomic.Uint64
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

// defaultQueueTimeout bounds a queued request's wait when the operator
// configured a queue but no explicit timeout.
const defaultQueueTimeout = 50 * time.Millisecond

// NewServer builds the gateway with default options (pooled instances over
// a cached compiled artifact).
func NewServer(fn Function, setup Setup) (*Server, error) {
	return NewServerWithOptions(fn, setup, ServerOptions{})
}

// NewServerWithOptions builds (and, where applicable, instruments) the
// function module once — the paper's cached-instrumentation deployment —
// compiles it into the shared execution artifact, and returns the gateway.
func NewServerWithOptions(fn Function, setup Setup, opts ServerOptions) (srv *Server, err error) {
	s := &Server{fn: fn, setup: setup, opts: opts, costs: sgx.DefaultCostParams()}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	if setup == SetupJS {
		return s, nil
	}
	// A construction failure after the ledger exists must not leak its
	// periodic-checkpoint goroutine or spill file handles (pinned by
	// TestServerCreateCloseNoLeak).
	defer func() {
		if err != nil && s.ledger != nil {
			s.ledger.Close()
		}
	}()
	var m *wasm.Module
	if fn == Echo {
		m, err = workloads.BuildEcho()
	} else {
		m, err = workloads.BuildResize()
	}
	if err != nil {
		return nil, fmt.Errorf("faas: build function: %w", err)
	}
	if setup == SetupSGXHWInstr || setup == SetupSGXHWIO {
		res, err := instrument.Instrument(m, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			return nil, fmt.Errorf("faas: instrument: %w", err)
		}
		m = res.Module
		s.counter = res.CounterGlobal
	}
	if s.modHash, err = core.ModuleHash(m); err != nil {
		return nil, fmt.Errorf("faas: hash function module: %w", err)
	}
	if setup != SetupWASM {
		mode := sgx.ModeSimulation
		if setup >= SetupSGXHW {
			mode = sgx.ModeHardware
		}
		encl, err := sgx.NewEnclave([]byte(core.AEMeasurement().String()), mode, s.costs)
		if err != nil {
			return nil, err
		}
		s.enclave = encl
	}
	if setup == SetupSGXHWInstr || setup == SetupSGXHWIO {
		// The instrumented gateways keep the verifiable usage ledger: one
		// chained record per request, batch-signed at checkpoints and — with
		// ServerOptions.Ledger.Retention configured — bounded in memory,
		// sealed segments spilling to disk or being dropped behind signed
		// checkpoints.
		if s.ledger, err = accounting.NewLedger(s.enclave, opts.Ledger); err != nil {
			return nil, fmt.Errorf("faas: ledger: %w", err)
		}
	}
	var warm []interp.CostModel
	if model := s.requestModel(); model != nil {
		warm = append(warm, model)
	}
	compiled, err := interp.Compile(m, interp.CompileOptions{CostModels: warm})
	if err != nil {
		return nil, fmt.Errorf("faas: compile function: %w", err)
	}
	s.pool, err = compiled.NewPool(interp.Config{CostModel: s.requestModel()},
		interp.PoolConfig{Prewarm: opts.PoolPrewarm})
	if err != nil {
		return nil, fmt.Errorf("faas: instance pool: %w", err)
	}
	return s, nil
}

// requestModel returns a fresh per-request cost model, or nil when the
// setup charges none. Models are stateful (EPC residency), so each request
// gets its own; all share one cost fingerprint, so segment sums are cached.
func (s *Server) requestModel() interp.CostModel {
	if s.enclave != nil && s.enclave.Mode() == sgx.ModeHardware {
		return sgx.NewEPCModel(sgx.ModeHardware, s.costs, nil)
	}
	return nil
}

// Ledger exposes the gateway's usage ledger (nil for uninstrumented
// setups).
func (s *Server) Ledger() *accounting.Ledger { return s.ledger }

// Enclave exposes the gateway's accounting enclave (nil for SetupWASM and
// SetupJS) — its public key verifies ledger records and checkpoints.
func (s *Server) Enclave() *sgx.Enclave { return s.enclave }

// Close stops the ledger's periodic checkpoint goroutine, if configured,
// and closes its spill files. Close is idempotent.
func (s *Server) Close() {
	if s.ledger != nil {
		s.ledger.Close()
	}
}

// Requests returns the number of requests served.
func (s *Server) Requests() uint64 { return s.requests.Load() }

// IOBytes returns the accounted I/O volume (SetupSGXHWIO only).
func (s *Server) IOBytes() uint64 { return s.ioBytes.Load() }

// Ledger endpoint paths on the gateway.
const (
	ReceiptPath    = "/receipt"
	CheckpointPath = "/checkpoint"
	LedgerPath     = "/ledger"
	CompactPath    = "/compact"
)

// Health endpoint paths on the gateway.
const (
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
// slot is busy. It returns a release func on success and false when the
// request should be shed (queue full, queue-wait timed out, or the client
// gave up while queued).
func (s *Server) admit(r *http.Request) (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
	}
	if s.opts.MaxQueue <= 0 {
		return nil, false
	}
	if n := s.queued.Add(1); n > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		return nil, false
	}
	defer s.queued.Add(-1)
	qt := s.opts.QueueTimeout
	if qt <= 0 {
		qt = defaultQueueTimeout
	}
	timer := time.NewTimer(qt)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	case <-timer.C:
		return nil, false
	case <-r.Context().Done():
		return nil, false
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
	if s.ledger != nil {
		lh := &LedgerHealth{
			Resident: s.ledger.Resident(),
			Spilled:  s.ledger.SpilledRecords(),
		}
		lh.CheckpointFailures, _ = s.ledger.CheckpointFailures()
		if deg, cause := s.ledger.Degraded(); deg {
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

// ServeHTTP handles one function invocation. The request body is the
// payload; for resize the image dimensions travel in X-Width/X-Height.
// GET requests on /receipt, /checkpoint and /ledger serve the accounting
// endpoints instead of invoking the function.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case HealthPath, ReadyPath:
		// Probes are never gated by admission control — they must answer
		// precisely when the gateway is saturated or degraded.
		if r.Method == http.MethodGet {
			s.serveHealth(w, r.URL.Path == ReadyPath)
			return
		}
	case ReceiptPath, CheckpointPath, LedgerPath:
		// Read endpoints are GET-only; a POST to these paths falls through
		// to function invocation, as before.
		if r.Method == http.MethodGet {
			switch r.URL.Path {
			case ReceiptPath:
				s.serveReceipt(w, r)
			case CheckpointPath:
				s.serveCheckpoint(w)
			case LedgerPath:
				s.serveLedger(w, r)
			}
			return
		}
	case CompactPath:
		// Compaction mutates ledger state (signs a checkpoint, seals and
		// spills segments, advances the truncation anchor): POST only, so
		// crawlers and monitoring probes issuing GETs can never trigger it.
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, nil)
			return
		}
		s.serveCompact(w)
		return
	}
	// Admission control gates only the invocation path, before the body is
	// read — a shed request costs the gateway next to nothing.
	release, ok := s.admit(r)
	if !ok {
		s.shed.Add(1)
		// Retry-After steers well-behaved clients (and GenerateLoad's
		// backoff) away while the pool is saturated.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ErrCodeOverloaded, nil)
		return
	}
	defer release()

	// The ceiling applies to the read itself: an oversize body is cut off
	// at MaxPayload+1 bytes instead of being buffered whole and measured.
	// A declared length within the ceiling is read into one buffer of that
	// size (ReadAll regrows from 512 B: ~3x the payload in throwaway
	// buffers); a body that ends short of it is a bad payload as before.
	limited := http.MaxBytesReader(w, r.Body, workloads.MaxPayload)
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= workloads.MaxPayload {
		body = make([]byte, n)
		_, err = io.ReadFull(limited, body)
	} else {
		body, err = io.ReadAll(limited)
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

	var out []byte
	var counter uint64
	var rcpt *accounting.Receipt
	switch s.setup {
	case SetupJS:
		out = s.serveJS(body, width, height)
	default:
		out, counter, rcpt, err = s.serveWasm(ctx, body, width, height)
	}
	if counter > 0 {
		w.Header().Set("X-Weighted-Instructions", strconv.FormatUint(counter, 10))
	}
	if rcpt != nil {
		// The response's ledger receipt: where the request's usage record
		// landed and the shard chain head it produced.
		w.Header().Set("X-Acct-Shard", strconv.FormatUint(uint64(rcpt.Shard), 10))
		w.Header().Set("X-Acct-Sequence", strconv.FormatUint(rcpt.Sequence, 10))
		// hex.EncodeToString, not Sprintf("%x", ...): Sprintf reflects over
		// the array on every response, an allocation-heavy detour on the
		// hot path for a fixed 32-byte value.
		w.Header().Set("X-Acct-Chain", hex.EncodeToString(rcpt.ChainHead[:]))
	}
	if err != nil {
		if errors.Is(err, interp.ErrInterrupted) {
			// The deadline cut the run short at a segment boundary. The
			// work actually executed is already charged — the receipt
			// headers above point at the partial run's ledger record.
			s.interrupted.Add(1)
			writeError(w, http.StatusGatewayTimeout, ErrCodeDeadlineExceeded, err)
			return
		}
		writeError(w, http.StatusInternalServerError, ErrCodeInvokeFailed, err)
		return
	}
	s.requests.Add(1)
	if s.setup == SetupSGXHWIO {
		s.ioBytes.Add(uint64(len(body) + len(out)))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// serveReceipt returns the ledger record named by ?shard=S&seq=N.
func (s *Server) serveReceipt(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
		return
	}
	shard, err1 := strconv.ParseUint(r.URL.Query().Get("shard"), 10, 32)
	seq, err2 := strconv.ParseUint(r.URL.Query().Get("seq"), 10, 64)
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, nil)
		return
	}
	rec, ok := s.ledger.Record(uint32(shard), seq)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// serveCheckpoint batch-signs the ledger's current state on request (the
// paper's "upon request" log) and returns the signed checkpoint.
func (s *Server) serveCheckpoint(w http.ResponseWriter) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
		return
	}
	sc, err := s.ledger.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeCheckpointFailed, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

// serveLedger streams the offline-verifiable dump (acctee-verify input)
// straight to the response in O(segment) memory — the gateway never
// materialises the record array, however long it has been running.
// ?truncated=1 anchors the dump at the last compaction checkpoint: a
// non-zero starting sequence per shard, heads carried forward from the
// anchor, verifiable against the anchor's signature alone. The body is
// always the dump container (application/octet-stream); the ?bin=1 of
// earlier clients is ignored.
func (s *Server) serveLedger(w http.ResponseWriter, r *http.Request) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
		return
	}
	opts := accounting.DumpOptions{Truncated: r.URL.Query().Get("truncated") == "1"}
	w.Header().Set("Content-Type", "application/octet-stream")
	// On error the headers are gone; the truncated body will fail to
	// parse, which is the correct failure mode for a verifier.
	_ = s.ledger.WriteDump(w, opts)
}

// serveCompact runs one bounded-retention compaction on request: sign a
// checkpoint covering every lane, seal what it covers (spill or drop), and
// report what was released. Operators hit it before scraping a truncated
// dump, or to bound memory on gateways without an automatic retention
// trigger.
func (s *Server) serveCompact(w http.ResponseWriter) {
	if s.ledger == nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, nil)
		return
	}
	res, err := s.ledger.Compact()
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

func (s *Server) serveWasm(ctx context.Context, body []byte, width, height int) ([]byte, uint64, *accounting.Receipt, error) {
	cfg := interp.Config{CostModel: s.requestModel()}
	// Deadline propagation: a context that can expire arms a cooperative
	// interrupt flag the engines poll at segment-leader charge points, so
	// an expired deadline aborts the run with exactly the executed work
	// accounted (and charged to the ledger below).
	if ctx.Done() != nil {
		intr := new(atomic.Bool)
		if ctx.Err() != nil {
			intr.Store(true)
		} else {
			// AfterFunc registers on the context; it starts no goroutine
			// unless the context actually ends while the request runs.
			stop := context.AfterFunc(ctx, func() { intr.Store(true) })
			defer stop()
		}
		cfg.Interrupt = intr
	}
	vm, err := s.pool.Get(cfg)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("faas: instantiate: %w", err)
	}
	defer s.pool.Put(vm)
	if s.enclave != nil {
		// request enters the enclave, response leaves it
		burn(s.enclave.Transition())
		defer burn(s.enclave.Transition())
	}
	in, err := vm.MemoryDirty(workloads.InBase, uint32(len(body)))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("faas: payload: %w", err)
	}
	copy(in, body)
	var res []uint64
	if s.fn == Echo {
		res, err = vm.InvokeExport("run", uint64(len(body)))
	} else {
		res, err = vm.InvokeExport("run", uint64(width), uint64(height))
	}
	runErr := err
	interruptedRun := errors.Is(runErr, interp.ErrInterrupted)
	if runErr != nil && !interruptedRun {
		return nil, 0, nil, fmt.Errorf("faas: run: %w", runErr)
	}
	var out []byte
	if runErr == nil {
		n := uint32(res[0])
		view, err := vm.MemoryView(workloads.OutBase, n)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("faas: response: %w", err)
		}
		out = make([]byte, n)
		copy(out, view)
	}
	var counter uint64
	var rcpt *accounting.Receipt
	if s.setup == SetupSGXHWInstr || s.setup == SetupSGXHWIO {
		counter, _ = vm.Global(s.counter)
		// Chain the request's usage record onto the ledger. No signature
		// is paid here unless eager signing is configured — checkpoints
		// vouch for the record in batch.
		log := accounting.UsageLog{
			WorkloadHash:         s.modHash,
			WeightedInstructions: counter,
			PeakMemoryBytes:      uint64(vm.MemorySize()),
			SimulatedCycles:      vm.Cost(),
			Policy:               accounting.PeakMemory,
		}
		if s.setup == SetupSGXHWIO {
			log.IOBytesIn = uint64(len(body))
			log.IOBytesOut = uint64(len(out))
		}
		receipt, _, err := s.ledger.Append(log)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("faas: ledger: %w", err)
		}
		rcpt = &receipt
	}
	// EPC paging cycles burn wall-clock on real hardware.
	if s.enclave != nil && s.enclave.Mode() == sgx.ModeHardware {
		burn(vm.Cost())
	}
	if interruptedRun {
		// The partial run's record is appended above — the work done up to
		// the interrupt is charged; the error (wrapping ErrInterrupted)
		// travels up with the receipt so the 504 can carry it.
		return nil, counter, rcpt, fmt.Errorf("faas: run: %w", runErr)
	}
	return out, counter, rcpt, nil
}

func (s *Server) serveJS(body []byte, width, height int) []byte {
	spin(JSDispatchCost)
	if s.fn == Echo {
		return workloads.JSEcho(body)
	}
	return workloads.JSResize(body, width, height)
}

// burn converts simulated cycles into wall-clock time at an assumed
// 3 GHz so hardware-mode penalties show up in throughput, as on real SGX.
func burn(cycles uint64) {
	if cycles == 0 {
		return
	}
	spin(time.Duration(cycles) * time.Nanosecond / 3)
}

// spin busy-waits (enclave transitions and fork/exec burn CPU, they do not
// yield it).
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// ---------------------------------------------------------------------------
// load generator (h2load stand-in)

// LoadResult is one load-generation run's outcome. Failed requests are
// never silently absorbed into the throughput figure: Requests and
// ReqPerSec count successful (2xx) responses only, and ByStatus breaks the
// rest down so a run full of 500s is visible in the bench numbers.
type LoadResult struct {
	// Requests counts successfully completed (2xx) requests.
	Requests int
	Duration time.Duration
	// Errors counts transport failures plus non-2xx responses.
	Errors int
	// ByStatus counts responses per HTTP status code; transport errors
	// (no response at all) are recorded under status 0.
	ByStatus map[int]int
	// WeightedInstructions sums the X-Weighted-Instructions header over
	// successful responses. Non-2xx responses never contribute, whether or
	// not the server attached the header before failing.
	WeightedInstructions uint64
	// Shed counts 429/503 responses observed, including ones a retry
	// later turned into a success — overload visible even when the
	// backoff absorbs it.
	Shed int
	// Retried counts retry attempts issued after a shed response.
	Retried int
	// ReqPerSec is successful-request throughput.
	ReqPerSec float64
	// LatencyP50/P95/P99 are per-request latency percentiles over every
	// completed request (including failures — a tail regression that only
	// shows on errors must not hide), measured from request creation to
	// body drain.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
}

// percentile returns the p-quantile of a sorted latency sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// LoadOptions tune GenerateLoadWithOptions beyond the classic
// clients/total shape.
type LoadOptions struct {
	Clients int
	Total   int
	Payload []byte
	Width   int
	Height  int
	// Timeout bounds each request attempt end to end (default 10s): a
	// wedged gateway costs the client one timeout, not forever.
	Timeout time.Duration
	// Retries caps retry attempts per request after a 429/503 response
	// (default 2; negative = no retries). Other statuses and transport
	// errors are never retried — they are results, not backpressure.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between retries (default 2ms, doubled per attempt, ±50% jitter).
	RetryBackoff time.Duration
}

// GenerateLoad drives the URL with `clients` concurrent connections until
// `total` requests have completed, mirroring the paper's h2load usage
// (10 concurrent clients). It is GenerateLoadWithOptions with defaults.
func GenerateLoad(url string, clients, total int, payload []byte, width, height int) LoadResult {
	return GenerateLoadWithOptions(url, LoadOptions{
		Clients: clients, Total: total, Payload: payload,
		Width: width, Height: height,
	})
}

// GenerateLoadWithOptions drives the URL with opts.Clients concurrent
// connections until opts.Total requests have completed. Each request gets
// a deadline, and 429/503 responses (the gateway shedding load) are
// retried with jittered exponential backoff up to opts.Retries times — a
// well-behaved client backs off when the server asks it to. Per-request
// latency is measured from first attempt to final completion, backoff
// included: that is the latency an end user of a retrying client sees.
//
// The clients share one Transport sized to keep an idle connection per
// client: the default Transport caps idle connections per host at 2, so
// with 10+ clients most requests would tear down and re-dial their
// connection — measuring TCP setup, not the gateway.
func GenerateLoadWithOptions(url string, opts LoadOptions) LoadResult {
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 2 * time.Millisecond
	}
	transport := &http.Transport{
		MaxIdleConns:        opts.Clients + 4,
		MaxIdleConnsPerHost: opts.Clients + 4,
	}
	defer transport.CloseIdleConnections()
	var (
		mu        sync.Mutex
		res       = LoadResult{ByStatus: make(map[int]int)}
		latencies = make([]time.Duration, 0, opts.Total)
		wg        sync.WaitGroup
		client    = &http.Client{Transport: transport}
	)
	record := func(status int, weighted uint64, took time.Duration, shed, retried int) {
		mu.Lock()
		defer mu.Unlock()
		res.ByStatus[status]++
		res.Shed += shed
		res.Retried += retried
		latencies = append(latencies, took)
		if status >= 200 && status < 300 {
			res.Requests++
			res.WeightedInstructions += weighted
		} else {
			res.Errors++
		}
	}
	// attempt issues one HTTP request and reports its status (0 =
	// transport error) plus the accounting header on success.
	attempt := func() (status int, weighted uint64) {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytesReader(opts.Payload))
		if err != nil {
			return 0, 0
		}
		req.Header.Set("X-Width", strconv.Itoa(opts.Width))
		req.Header.Set("X-Height", strconv.Itoa(opts.Height))
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0
		}
		// Drain for connection reuse, but only count the body of a
		// successful response; the accounting header is parsed only
		// on success, so a 500 with or without it lands identically
		// in ByStatus/Errors.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			weighted, _ = strconv.ParseUint(resp.Header.Get("X-Weighted-Instructions"), 10, 64)
		}
		return resp.StatusCode, weighted
	}
	start := time.Now()
	next := make(chan struct{}, opts.Total)
	for i := 0; i < opts.Total; i++ {
		next <- struct{}{}
	}
	close(next)
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				t0 := time.Now()
				var shed, retried int
				status, weighted := attempt()
				for status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					shed++
					if retried >= opts.Retries {
						break
					}
					retried++
					// Jittered exponential backoff (±50%) so a shed burst
					// does not come back as a synchronized retry burst.
					d := opts.RetryBackoff << (retried - 1)
					d = d/2 + time.Duration(rand.Int63n(int64(d)))
					time.Sleep(d)
					status, weighted = attempt()
				}
				record(status, weighted, time.Since(t0), shed, retried)
			}
		}()
	}
	wg.Wait()
	res.Duration = time.Since(start)
	res.ReqPerSec = float64(res.Requests) / res.Duration.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.LatencyP50 = percentile(latencies, 0.50)
	res.LatencyP95 = percentile(latencies, 0.95)
	res.LatencyP99 = percentile(latencies, 0.99)
	return res
}

func bytesReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct {
	b   []byte
	pos int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}
