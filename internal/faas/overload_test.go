package faas_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/faas"
	"acctee/internal/fault"
	"acctee/internal/workloads"
)

// holdSlot starts a request on srv whose declared two-byte body is not yet
// written. Admission runs before the body is read, so once the handler has
// read the first byte the request holds an execution slot, and it keeps the
// slot until release writes the second byte. release returns the held
// request's status.
func holdSlot(t *testing.T, srv http.Handler) (release func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	req := httptest.NewRequest(http.MethodPost, "/", pr)
	req.ContentLength = 2
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(w, req)
	}()
	// An unbuffered pipe: the write returns once the handler has read it.
	if _, err := pw.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	return func() int {
		_, _ = pw.Write([]byte("y"))
		_ = pw.Close()
		<-done
		return w.Code
	}
}

// TestAdmissionControlShedsUnderOverload: with one execution slot held and
// no waiting room, every concurrent caller is shed (429 + Retry-After +
// stable error code) — never queued, never 5xx — and the holder is served
// once it finishes, after which the slot serves again.
func TestAdmissionControlShedsUnderOverload(t *testing.T) {
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupJS, faas.ServerOptions{
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	release := holdSlot(t, srv)
	const clients = 8
	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL, []byte("x"), 0, 0)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("status %d while the only slot is held, want 429", resp.StatusCode)
				return
			}
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
		}()
	}
	wg.Wait()
	if code := release(); code != http.StatusOK {
		t.Fatalf("the request holding the slot: status %d, want 200", code)
	}
	if got := srv.Shed(); got != uint64(shed.Load()) || got != clients {
		t.Errorf("server counted %d shed, clients saw %d, want %d", got, shed.Load(), clients)
	}
	if resp, _ := post(t, ts.URL, []byte("x"), 0, 0); resp.StatusCode != http.StatusOK {
		t.Errorf("after the slot was released: status %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionQueueAbsorbsBurst: a bounded queue turns would-be sheds into
// delayed successes. A burst that arrives while the only slot is held waits
// in the queue, and every request of it is served once the slot is free.
func TestAdmissionQueueAbsorbsBurst(t *testing.T) {
	const clients = 6
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupJS, faas.ServerOptions{
		MaxInFlight:  1,
		MaxQueue:     clients,
		QueueTimeout: time.Minute, // no queued request's wait runs out here
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	release := holdSlot(t, srv)
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
	// The whole burst is queued behind the held slot before it frees.
	for srv.Health().Queued < clients {
		runtime.Gosched()
	}
	if code := release(); code != http.StatusOK {
		t.Fatalf("the request holding the slot: status %d, want 200", code)
	}
	wg.Wait()
	if served.Load() != clients || srv.Shed() != 0 {
		t.Fatalf("served %d of %d, shed %d — the queue shed a burst it had room for", served.Load(), clients, srv.Shed())
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

// TestRoutePolicy reads the route table and drives every row on a gateway
// whose one execution slot is held, with no queue: exactly the invoke rows
// are gated and shed 429, while every probe and ledger row answers. Every
// probe and ledger path has a row that does not invoke.
func TestRoutePolicy(t *testing.T) {
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
		MaxInFlight: 1,
		Ledger:      accounting.LedgerOptions{Shards: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// One record, so that /receipt?shard=0&seq=0 has one to serve.
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", strings.NewReader("x")))
	if w.Code != http.StatusOK {
		t.Fatalf("invoke: status %d", w.Code)
	}
	release := holdSlot(t, srv)

	answered := map[string]bool{}
	var gated uint64
	for _, rt := range faas.Routes() {
		method, path, ok := strings.Cut(rt.Pattern, " ")
		if !ok { // a row for every method: drive it by one no other row names
			method, path = http.MethodPut, rt.Pattern
		}
		path = strings.TrimSuffix(path, "{$}") // "/{$}" matches "/" alone
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path+"?shard=0&seq=0", nil))
		switch {
		case rt.Policy == "invoke":
			want := fmt.Sprintf("{\"error\":{\"code\":%q}}\n", faas.ErrCodeOverloaded)
			if w.Code != http.StatusTooManyRequests || w.Body.String() != want {
				t.Errorf("%q (invoke) with the slot held: status %d, body %q; want 429 %q", rt.Pattern, w.Code, w.Body.String(), want)
			}
			gated++
		case rt.Policy != "probe" && rt.Policy != "ledger":
			t.Errorf("%q: unknown policy %q", rt.Pattern, rt.Policy)
		case w.Code == http.StatusTooManyRequests || w.Code >= 500:
			t.Errorf("%q (%s) with the slot held: status %d, want an answer", rt.Pattern, rt.Policy, w.Code)
		default:
			answered[path] = true
		}
	}
	if gated == 0 || srv.Shed() != gated {
		t.Errorf("%d invoke rows, %d requests shed; want at least one, all shed", gated, srv.Shed())
	}
	for _, path := range []string{faas.HealthPath, faas.ReadyPath, faas.ReceiptPath, faas.CheckpointPath, faas.LedgerPath, faas.CompactPath} {
		if !answered[path] {
			t.Errorf("%s has no ungated row", path)
		}
	}
	if code := release(); code != http.StatusOK {
		t.Errorf("the request holding the slot: status %d, want 200", code)
	}
}

// TestHeadNeverInvokes: HEAD on the probes and the ledger reads is served by
// their GET rows, and GET or HEAD of "/" by its 404 row. None of them runs
// the function or chains a record.
func TestHeadNeverInvokes(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupSGXHWIO)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if resp, _ := post(t, ts.URL, []byte("x"), 0, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke: status %d", resp.StatusCode)
	}
	probes := []struct{ method, path string }{
		{http.MethodHead, faas.HealthPath}, {http.MethodHead, faas.ReadyPath},
		{http.MethodHead, faas.ReceiptPath + "?shard=0&seq=0"}, {http.MethodHead, faas.CheckpointPath},
		{http.MethodHead, faas.LedgerPath},
		// A load balancer's health check of the root.
		{http.MethodHead, "/"}, {http.MethodGet, "/"},
	}
	for _, p := range probes {
		requests, resident := srv.Requests(), srv.Ledger().Resident()
		req, err := http.NewRequest(p.method, ts.URL+p.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			t.Errorf("%s %s: status %d", p.method, p.path, resp.StatusCode)
		}
		if srv.Requests() != requests || srv.Ledger().Resident() != resident {
			t.Errorf("%s %s: requests %d -> %d, resident records %d -> %d; want both unchanged",
				p.method, p.path, requests, srv.Requests(), resident, srv.Ledger().Resident())
		}
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

	// busy's only slot is held by an unfinished body for the whole table.
	release := holdSlot(t, busy)
	defer release()

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
		{"get-of-the-root", ledger, req(http.MethodGet, "/", nil), 404, faas.ErrCodeNotFound},
		{"receipt-without-coordinates", ledger, req(http.MethodGet, faas.ReceiptPath+"?shard=x", nil), 400, faas.ErrCodeBadRequest},
		{"receipt-of-no-record", ledger, req(http.MethodGet, faas.ReceiptPath+"?shard=0&seq=999", nil), 404, faas.ErrCodeNotFound},
		{"short-body", plain, short, 400, faas.ErrCodeBadRequest},
		{"oversized-body", plain, req(http.MethodPost, "/", make([]byte, workloads.MaxPayload+1)), 413, faas.ErrCodePayloadTooLarge},
		{"invocation-traps", resize, badDims, 500, faas.ErrCodeInvokeFailed},
		{"deadline", late, req(http.MethodPost, "/", []byte("hello")), 504, faas.ErrCodeDeadlineExceeded},
		{"checkpoint-cannot-persist", deadDisk, req(http.MethodGet, faas.CheckpointPath, nil), 500, faas.ErrCodeCheckpointFailed},
		{"compact-cannot-persist", deadDisk, req(http.MethodPost, faas.CompactPath, nil), 500, faas.ErrCodeCompactFailed},
		{"overloaded", busy, req(http.MethodPost, "/", []byte("x")), 429, faas.ErrCodeOverloaded},
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
