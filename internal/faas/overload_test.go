package faas_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/faas"
	"acctee/internal/fault"
	"acctee/internal/workloads"
)

// TestAdmissionControlShedsUnderOverload: with one execution slot, no
// waiting room, and deliberately slow requests, concurrent callers must
// split into served (200) and shed (429 + Retry-After + stable error
// code) — never queue unboundedly, never 5xx.
func TestAdmissionControlShedsUnderOverload(t *testing.T) {
	old := faas.JSDispatchCost
	faas.JSDispatchCost = 20 * time.Millisecond
	defer func() { faas.JSDispatchCost = old }()
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupJS, faas.ServerOptions{
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 8
	var (
		wg      sync.WaitGroup
		served  atomic.Int64
		shed    atomic.Int64
		unknown atomic.Int64
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL, []byte("x"), 0, 0)
			switch resp.StatusCode {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shed response missing Retry-After")
				}
				var e struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != faas.ErrCodeOverloaded {
					t.Errorf("shed body %q, want error code %q", body, faas.ErrCodeOverloaded)
				}
			default:
				unknown.Add(1)
				t.Errorf("status %d, want 200 or 429", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("overload shed every request — nothing was served")
	}
	if shed.Load() == 0 {
		t.Fatal("8 concurrent 20ms requests against 1 slot shed nothing")
	}
	if got := srv.Shed(); got != uint64(shed.Load()) {
		t.Errorf("server counted %d shed, clients saw %d", got, shed.Load())
	}
}

// TestAdmissionQueueAbsorbsBurst: a bounded queue with a timeout longer
// than the burst turns would-be sheds into slightly delayed successes.
func TestAdmissionQueueAbsorbsBurst(t *testing.T) {
	old := faas.JSDispatchCost
	faas.JSDispatchCost = 2 * time.Millisecond
	defer func() { faas.JSDispatchCost = old }()
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupJS, faas.ServerOptions{
		MaxInFlight:  1,
		MaxQueue:     8,
		QueueTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 6
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := post(t, ts.URL, []byte("x"), 0, 0)
			if resp.StatusCode == http.StatusOK {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if served.Load() != clients {
		t.Fatalf("served %d of %d — the queue shed a burst it had room for", served.Load(), clients)
	}
}

// TestRequestDeadlineInterruptsAndCharges: an expired deadline must abort
// the run cooperatively — 504 with the stable code, a ledger receipt for
// the partial (here: zero-work) run in the headers, the record reachable
// through /receipt, and the lane still advancing for later requests.
func TestRequestDeadlineInterruptsAndCharges(t *testing.T) {
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
		RequestTimeout: time.Nanosecond, // expired before the run starts
		Ledger:         accounting.LedgerOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := post(t, ts.URL, []byte("hello"), 0, 0)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != faas.ErrCodeDeadlineExceeded {
		t.Fatalf("504 body %q, want error code %q", body, faas.ErrCodeDeadlineExceeded)
	}
	// The interrupted run still produced a chained, reachable record
	// charging exactly the work done (none — the deadline fired before
	// the first segment).
	shard := resp.Header.Get("X-Acct-Shard")
	seq := resp.Header.Get("X-Acct-Sequence")
	if shard == "" || seq == "" || resp.Header.Get("X-Acct-Chain") == "" {
		t.Fatalf("504 carries no ledger receipt: shard=%q seq=%q", shard, seq)
	}
	rresp, rbody := get(t, ts.URL+faas.ReceiptPath+"?shard="+shard+"&seq="+seq)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/receipt for the interrupted run: status %d", rresp.StatusCode)
	}
	var rec accounting.Record
	if err := json.Unmarshal(rbody, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Log.WeightedInstructions != 0 {
		t.Errorf("pre-expired deadline charged %d weighted instructions, want 0", rec.Log.WeightedInstructions)
	}
	if srv.Interrupted() != 1 {
		t.Errorf("Interrupted() = %d, want 1", srv.Interrupted())
	}

	// The lane keeps chaining behind the interrupted record.
	resp2, _ := post(t, ts.URL, []byte("hello"), 0, 0)
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("second request: status %d, want 504", resp2.StatusCode)
	}
	s1, _ := strconv.ParseUint(seq, 10, 64)
	s2, _ := strconv.ParseUint(resp2.Header.Get("X-Acct-Sequence"), 10, 64)
	if s2 != s1+1 {
		t.Errorf("sequence %d then %d — interrupted runs must advance the lane", s1, s2)
	}
}

// TestHealthEndpoints: /healthz and /readyz answer GETs with the gateway's
// pool/queue/ledger state; a healthy instrumented gateway is ready.
func TestHealthEndpoints(t *testing.T) {
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
		MaxInFlight: 4,
		MaxQueue:    2,
		Ledger:      accounting.LedgerOptions{Shards: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if resp, _ := post(t, ts.URL, []byte("x"), 0, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke: status %d", resp.StatusCode)
	}
	for _, path := range []string{faas.HealthPath, faas.ReadyPath} {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, resp.StatusCode)
		}
		var h faas.HealthStatus
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if h.MaxInFlight != 4 || h.MaxQueue != 2 {
			t.Errorf("%s: limits %d/%d, want 4/2", path, h.MaxInFlight, h.MaxQueue)
		}
		if h.Requests != 1 {
			t.Errorf("%s: requests %d, want 1", path, h.Requests)
		}
		if h.Ledger == nil || h.Ledger.Degraded {
			t.Errorf("%s: ledger health %+v, want present and not degraded", path, h.Ledger)
		}
	}
}

// TestLoadGeneratorRetriesSheddedRequests: the load generator backs off
// and retries 429s, so a transient shed becomes a delayed success — and
// both the shed and the retries stay visible in the result.
func TestLoadGeneratorRetriesSheddedRequests(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	res := faas.GenerateLoadWithOptions(ts.URL, faas.LoadOptions{
		Clients: 1, Total: 1, Payload: []byte("x"),
		RetryBackoff: time.Millisecond,
	})
	if res.Requests != 1 || res.Errors != 0 {
		t.Fatalf("Requests/Errors = %d/%d, want 1/0 (retries must absorb the shed)", res.Requests, res.Errors)
	}
	if res.Shed != 2 || res.Retried != 2 {
		t.Fatalf("Shed/Retried = %d/%d, want 2/2", res.Shed, res.Retried)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	return resp, body
}

// TestErrorBodiesCarryOnlyACode drives every error path of ServeHTTP and
// holds each non-2xx body to {"error":{"code":…}} and nothing else:
// details go to the server log, never onto the wire — error strings are
// not an API, and they name internal paths. (The readiness probe's 503 is
// no error path: it answers with the same health body as its 200.)
func TestErrorBodiesCarryOnlyACode(t *testing.T) {
	old := faas.JSDispatchCost
	faas.JSDispatchCost = 200 * time.Millisecond
	defer func() { faas.JSDispatchCost = old }()
	server := func(fn faas.Function, setup faas.Setup, opts faas.ServerOptions) *faas.Server {
		srv, err := faas.NewServerWithOptions(fn, setup, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	plain := server(faas.Echo, faas.SetupWASM, faas.ServerOptions{})
	resize := server(faas.Resize, faas.SetupWASM, faas.ServerOptions{})
	ledger := server(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{Ledger: accounting.LedgerOptions{Shards: 1}})
	late := server(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
		RequestTimeout: time.Nanosecond, Ledger: accounting.LedgerOptions{Shards: 1},
	})
	busy := server(faas.Echo, faas.SetupJS, faas.ServerOptions{MaxInFlight: 1})
	// A ledger whose disk refuses every write: checkpoints cannot persist.
	inj := fault.New()
	inj.FailWrites(1, 1<<40, nil)
	deadDisk := server(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{Ledger: accounting.LedgerOptions{
		Shards: 1, Retention: accounting.RetentionPolicy{SpillDir: t.TempDir()}, Faults: inj,
	}})

	req := func(method, target string, body []byte) *http.Request {
		return httptest.NewRequest(method, target, bytes.NewReader(body))
	}
	short := req(http.MethodPost, "/", make([]byte, 10))
	short.ContentLength = 100
	badDims := req(http.MethodPost, "/", make([]byte, 16))
	badDims.Header.Set("X-Width", "100000")
	badDims.Header.Set("X-Height", "100000")
	for _, row := range []struct {
		name   string
		srv    http.Handler
		req    *http.Request
		status int
		code   string
	}{
		{"receipt-without-a-ledger", plain, req(http.MethodGet, faas.ReceiptPath+"?shard=0&seq=0", nil), 404, faas.ErrCodeNotFound},
		{"checkpoint-without-a-ledger", plain, req(http.MethodGet, faas.CheckpointPath, nil), 404, faas.ErrCodeNotFound},
		{"ledger-without-a-ledger", plain, req(http.MethodGet, faas.LedgerPath, nil), 404, faas.ErrCodeNotFound},
		{"compact-without-a-ledger", plain, req(http.MethodPost, faas.CompactPath, nil), 404, faas.ErrCodeNotFound},
		{"compact-by-get", ledger, req(http.MethodGet, faas.CompactPath, nil), 405, faas.ErrCodeMethodNotAllowed},
		{"receipt-without-coordinates", ledger, req(http.MethodGet, faas.ReceiptPath+"?shard=x", nil), 400, faas.ErrCodeBadRequest},
		{"receipt-of-no-record", ledger, req(http.MethodGet, faas.ReceiptPath+"?shard=0&seq=999", nil), 404, faas.ErrCodeNotFound},
		{"short-body", plain, short, 400, faas.ErrCodeBadRequest},
		{"oversized-body", plain, req(http.MethodPost, "/", make([]byte, workloads.MaxPayload+1)), 413, faas.ErrCodePayloadTooLarge},
		{"invocation-traps", resize, badDims, 500, faas.ErrCodeInvokeFailed},
		{"deadline", late, req(http.MethodPost, "/", []byte("hello")), 504, faas.ErrCodeDeadlineExceeded},
		{"checkpoint-cannot-persist", deadDisk, req(http.MethodGet, faas.CheckpointPath, nil), 500, faas.ErrCodeCheckpointFailed},
		{"compact-cannot-persist", deadDisk, req(http.MethodPost, faas.CompactPath, nil), 500, faas.ErrCodeCompactFailed},
		{"overloaded", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Hold the only slot with one slow request, then knock.
			held := make(chan struct{})
			go func() {
				defer close(held)
				busy.ServeHTTP(httptest.NewRecorder(), req(http.MethodPost, "/", []byte("x")))
			}()
			for busy.Health().InFlight == 0 {
				time.Sleep(time.Millisecond)
			}
			busy.ServeHTTP(w, r)
			<-held
		}), req(http.MethodPost, "/", []byte("x")), 429, faas.ErrCodeOverloaded},
		{"unmarshalable-response", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			faas.WriteJSON(w, http.StatusOK, make(chan int))
		}), req(http.MethodGet, "/", nil), 500, faas.ErrCodeInternal},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			row.srv.ServeHTTP(w, row.req)
			want := fmt.Sprintf("{\"error\":{\"code\":%q}}\n", row.code)
			if w.Code != row.status || w.Body.String() != want {
				t.Fatalf("status %d, body %q; want %d, %q", w.Code, w.Body.String(), row.status, want)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
		})
	}
}
