package faas_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
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

func post(t *testing.T, url string, payload []byte, w, h int) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Width", strconv.Itoa(w))
	req.Header.Set("X-Height", strconv.Itoa(h))
	resp, err := http.DefaultClient.Do(req)
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

func TestEchoAllSetups(t *testing.T) {
	payload := workloads.TestImage(16, 16)
	for _, setup := range []faas.Setup{
		faas.SetupWASM, faas.SetupSGXSim, faas.SetupSGXHW,
		faas.SetupSGXHWInstr, faas.SetupSGXHWIO, faas.SetupJS,
	} {
		srv, err := faas.NewServer(faas.Echo, setup)
		if err != nil {
			t.Fatalf("%v: %v", setup, err)
		}
		ts := httptest.NewServer(srv)
		resp, body := post(t, ts.URL, payload, 0, 0)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%v: status %d", setup, resp.StatusCode)
			continue
		}
		if !bytes.Equal(body, payload) {
			t.Errorf("%v: echo mangled payload", setup)
		}
		if setup == faas.SetupSGXHWInstr || setup == faas.SetupSGXHWIO {
			if resp.Header.Get("X-Weighted-Instructions") == "" {
				t.Errorf("%v: missing accounting header", setup)
			}
		}
		if setup == faas.SetupSGXHWIO {
			if tot := srv.Ledger().Totals(); tot.IOBytesIn != uint64(len(payload)) || tot.IOBytesOut != uint64(len(payload)) {
				t.Errorf("%v: ledger accounts %d bytes in, %d out; want %d each", setup, tot.IOBytesIn, tot.IOBytesOut, len(payload))
			}
		}
	}
}

func TestResizeOutputsMatchAcrossSetups(t *testing.T) {
	const size = 64
	img := workloads.TestImage(size, size)
	want := workloads.NativeResize(img, size, size)
	for _, setup := range []faas.Setup{faas.SetupWASM, faas.SetupSGXHWInstr, faas.SetupJS} {
		srv, err := faas.NewServer(faas.Resize, setup)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		resp, body := post(t, ts.URL, img, size, size)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d", setup, resp.StatusCode)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%v: resize output differs from native reference", setup)
		}
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupWASM)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	big := make([]byte, workloads.MaxPayload+1)
	resp, body := post(t, ts.URL, big, 0, 0)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != faas.ErrCodePayloadTooLarge {
		t.Errorf("413 body %q, want error code %q", body, faas.ErrCodePayloadTooLarge)
	}
	// The ceiling is on the read, not on a buffered body: the handler must
	// stop pulling from a body that never ends instead of buffering it.
	endless := &countingReader{}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", endless))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("endless body: status %d, want 413", w.Code)
	}
	if endless.n > workloads.MaxPayload+1 {
		t.Errorf("endless body: handler read %d bytes, ceiling is %d", endless.n, workloads.MaxPayload)
	}
	// A body of exactly the ceiling is still served.
	resp, _ = post(t, ts.URL, big[:workloads.MaxPayload], 0, 0)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("MaxPayload-sized body: status %d, want 200", resp.StatusCode)
	}
	// A declared length over the ceiling is refused before a byte is read.
	declared := &countingReader{}
	r := httptest.NewRequest(http.MethodPost, "/", declared)
	r.ContentLength = workloads.MaxPayload + 1
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge || declared.n != 0 {
		t.Errorf("declared oversize body: status %d after reading %d bytes, want 413 after 0", w.Code, declared.n)
	}
	// A body of undeclared length up to the ceiling is read whole and echoed.
	undeclared := bytes.Repeat([]byte("0123456789abcdef"), workloads.MaxPayload/16)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/", io.MultiReader(bytes.NewReader(undeclared))))
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), undeclared) {
		t.Errorf("undeclared-length body: status %d, %d-byte echo of %d bytes", w.Code, w.Body.Len(), len(undeclared))
	}
}

// TestNonCanonicalPathRedirects: the route table's ServeMux answers a path
// that is not in canonical form with a 301 to the clean path; it does not
// invoke.
func TestNonCanonicalPathRedirects(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupWASM)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct{ path, location string }{{"//x", "/x"}, {"/./", "/"}, {"/a/../healthz", "/healthz"}} {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader([]byte("x"))))
		if w.Code != http.StatusMovedPermanently || w.Header().Get("Location") != tc.location {
			t.Errorf("POST %s: status %d, Location %q; want 301 to %q", tc.path, w.Code, w.Header().Get("Location"), tc.location)
		}
	}
	if n := srv.Requests(); n != 0 {
		t.Errorf("%d requests invoked through non-canonical paths, want 0", n)
	}
}

// TestShortBodyRejected: a body that ends before its declared length is a
// bad payload (400), on the single-allocation read path as on ReadAll's.
func TestShortBodyRejected(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupWASM)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(make([]byte, 10)))
	r.ContentLength = 100
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Errorf("10 bytes of a declared 100: status %d, want 400", w.Code)
	}
	// Over a real connection the server itself reports the short body.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\nConnection: close\r\n\r\n0123456789")
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short body over TCP: status %d, want 400", resp.StatusCode)
	}
}

// countingReader is a request body that never ends; n counts what was read.
type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	r.n += len(p)
	return len(p), nil
}

// TestReceiptsAndLedgerEndpoints: every instrumented response carries a
// ledger receipt; /receipt serves the named record, /checkpoint a freshly
// batch-signed checkpoint covering all served requests, /ledger an
// offline-verifiable dump.
func TestReceiptsAndLedgerEndpoints(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupSGXHWInstr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	payload := []byte("hello ledger")
	const requests = 5
	type rcpt struct{ shard, seq uint64 }
	seen := map[rcpt]bool{}
	for i := 0; i < requests; i++ {
		resp, _ := post(t, ts.URL, payload, 0, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		shard, err1 := strconv.ParseUint(resp.Header.Get("X-Acct-Shard"), 10, 32)
		seq, err2 := strconv.ParseUint(resp.Header.Get("X-Acct-Sequence"), 10, 64)
		head := resp.Header.Get("X-Acct-Chain")
		if err1 != nil || err2 != nil || len(head) != 64 {
			t.Fatalf("bad receipt headers: shard=%q seq=%q chain=%q",
				resp.Header.Get("X-Acct-Shard"), resp.Header.Get("X-Acct-Sequence"), head)
		}
		if seen[rcpt{shard, seq}] {
			t.Fatalf("duplicate receipt %d/%d", shard, seq)
		}
		seen[rcpt{shard, seq}] = true

		// The receipt resolves to a record whose chain head matches.
		rr, err := http.Get(fmt.Sprintf("%s%s?shard=%d&seq=%d", ts.URL, faas.ReceiptPath, shard, seq))
		if err != nil {
			t.Fatal(err)
		}
		var rec accounting.Record
		if err := json.NewDecoder(rr.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		_ = rr.Body.Close()
		if got := fmt.Sprintf("%x", rec.Hash); got != head {
			t.Fatalf("record hash %s != receipt chain head %s", got, head)
		}
		if rec.Log.WeightedInstructions == 0 {
			t.Error("record carries no weighted instructions")
		}
	}

	// /checkpoint covers every request with one verifiable signature.
	cr, err := http.Get(ts.URL + faas.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var sc accounting.SignedCheckpoint
	if err := json.NewDecoder(cr.Body).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	_ = cr.Body.Close()
	if got := sc.Checkpoint.Covered(); got != requests {
		t.Errorf("checkpoint covers %d records, want %d", got, requests)
	}
	if err := accounting.VerifyCheckpointSig(sc, srv.Enclave().PublicKey(), srv.Enclave().Measurement()); err != nil {
		t.Errorf("checkpoint signature: %v", err)
	}

	// /ledger replays offline (the acctee-verify flow over HTTP). The
	// body is the dump container whatever the query says: ?bin=1, which
	// once selected it, is ignored.
	lr, err := http.Get(ts.URL + faas.LedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(lr.Body)
	_ = lr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := lr.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("/ledger Content-Type %q, want application/octet-stream", ct)
	}
	br, err := http.Get(ts.URL + faas.LedgerPath + "?bin=1")
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := io.ReadAll(br.Body)
	_ = br.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binBody, body) {
		t.Errorf("/ledger?bin=1 (%d bytes) differs from /ledger (%d bytes)", len(binBody), len(body))
	}
	vr, err := accounting.VerifyReader(bytes.NewReader(body),
		accounting.VerifyOptions{Key: srv.Enclave().PublicKey()})
	if err != nil {
		t.Fatalf("offline verification of /ledger dump: %v", err)
	}
	if vr.Records != requests || vr.CoveredRecords != requests {
		t.Errorf("verification result %+v", vr)
	}

	// Missing records and bad params are 404/400.
	if r, _ := http.Get(ts.URL + faas.ReceiptPath + "?shard=0&seq=999999"); r.StatusCode != http.StatusNotFound {
		t.Errorf("missing record: status %d", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + faas.ReceiptPath + "?shard=x"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad params: status %d", r.StatusCode)
	}
}

// TestLedgerEndpointsAbsentWithoutInstrumentation: uninstrumented setups
// serve no ledger.
func TestLedgerEndpointsAbsentWithoutInstrumentation(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupWASM)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{faas.ReceiptPath + "?shard=0&seq=0", faas.CheckpointPath, faas.LedgerPath} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, r.StatusCode)
		}
	}
	if srv.Ledger() != nil {
		t.Error("uninstrumented setup grew a ledger")
	}
}

// TestEagerGatewayRecordsSigned: with eager signing every served record
// carries its own verifiable signature.
func TestEagerGatewayRecordsSigned(t *testing.T) {
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr,
		faas.ServerOptions{Ledger: accounting.LedgerOptions{EagerSign: true, Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 4; i++ {
		if resp, _ := post(t, ts.URL, []byte("x"), 0, 0); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	dump, err := srv.Ledger().Dump()
	if err != nil {
		t.Fatal(err)
	}
	vr, err := accounting.VerifyDump(dump, accounting.VerifyOptions{Key: srv.Enclave().PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if vr.EagerSignatures != 4 {
		t.Errorf("verified %d eager signatures, want 4", vr.EagerSignatures)
	}
}

// TestPooledServingMatchesRecompile: a pooled gateway serving repeated
// requests on recycled instances must produce byte-identical responses and
// counters to a gateway built (function compiled, instance fresh) for each
// single request.
func TestPooledServingMatchesRecompile(t *testing.T) {
	const size = 32
	img := workloads.TestImage(size, size)
	serve := func(srv *faas.Server) ([]byte, string) {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(img))
		req.Header.Set("X-Width", strconv.Itoa(size))
		req.Header.Set("X-Height", strconv.Itoa(size))
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		return w.Body.Bytes(), w.Header().Get("X-Weighted-Instructions")
	}
	newServer := func(opts faas.ServerOptions) *faas.Server {
		srv, err := faas.NewServerWithOptions(faas.Resize, faas.SetupSGXHWInstr, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	pooled := newServer(faas.ServerOptions{PoolPrewarm: 1})
	for i := 0; i < 3; i++ { // repeat so the pooled path reuses its instance
		baseBody, baseCounter := serve(newServer(faas.ServerOptions{}))
		poolBody, poolCounter := serve(pooled)
		if !bytes.Equal(baseBody, poolBody) {
			t.Errorf("request %d: pooled response body differs from the fresh server's", i)
		}
		if baseCounter == "" || baseCounter != poolCounter {
			t.Errorf("request %d: pooled counter %q differs from the fresh server's %q", i, poolCounter, baseCounter)
		}
	}
}

// TestServerCreateCloseNoLeak pins the gateway lifecycle: creating,
// exercising, and closing servers repeatedly — periodic checkpointing and
// spill files configured, plus the robustness paths (shedding under a
// full pool, deadline interrupts, a disk fault that degrades the store,
// and a transient fault the retry loop un-wedges) — must leak neither the
// checkpoint goroutine, nor its ticker, nor interrupt watchers, nor
// retrying spill writers. The pin is a goroutine-count settle: after the
// loop the process must return to its baseline.
func TestServerCreateCloseNoLeak(t *testing.T) {
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(2 * time.Millisecond)
			if g := runtime.NumGoroutine(); g <= n {
				n = g
			}
		}
		return n
	}
	ledgerOpts := func(inj *fault.Injector) accounting.LedgerOptions {
		return accounting.LedgerOptions{
			Shards:             2,
			CheckpointInterval: time.Millisecond,
			Retention: accounting.RetentionPolicy{
				MaxResidentRecords: 4,
				SegmentRecords:     2,
				SpillDir:           filepath.Join(t.TempDir(), "spill"),
			},
			Faults: inj,
		}
	}
	invoke := func(t *testing.T, srv *faas.Server, wantStatus int) int {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader([]byte("ping")))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if wantStatus != 0 && w.Code != wantStatus {
			t.Fatalf("status %d, want %d", w.Code, wantStatus)
		}
		return w.Code
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"plain", func(t *testing.T) {
			srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
				Ledger: ledgerOpts(nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			invoke(t, srv, http.StatusOK)
			srv.Close()
			srv.Close() // Close is idempotent
		}},
		{"shed", func(t *testing.T) {
			srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
				MaxInFlight: 1,
				Ledger:      ledgerOpts(nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Concurrent invocations against one slot: every response is a
			// 200 or a clean 429, and whatever mix lands, nothing may leak.
			var wg sync.WaitGroup
			for j := 0; j < 8; j++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if code := invoke(t, srv, 0); code != http.StatusOK && code != http.StatusTooManyRequests {
						t.Errorf("status %d, want 200 or 429", code)
					}
				}()
			}
			wg.Wait()
			srv.Close()
		}},
		{"timeout", func(t *testing.T) {
			srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
				RequestTimeout: time.Nanosecond, // every run interrupts at entry
				Ledger:         ledgerOpts(nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 4; j++ {
				invoke(t, srv, http.StatusGatewayTimeout)
			}
			srv.Close()
		}},
		{"armed", func(t *testing.T) {
			// A request whose context can expire arms the interrupt without
			// a goroutine of its own: while it is served, the count stays
			// where it was before. The sampler exists on both sides of the
			// comparison; the request runs on this goroutine.
			srv, err := faas.NewServerWithOptions(faas.Resize, faas.SetupWASM, faas.ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const size = 256
			img := workloads.TestImage(size, size)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var sampling atomic.Bool
			var peak, samples atomic.Int64
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if sampling.Load() {
						if g := int64(runtime.NumGoroutine()); g > peak.Load() {
							peak.Store(g)
						}
						samples.Add(1)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}()
			before := int64(runtime.NumGoroutine())
			for try := 0; try < 20 && samples.Load() == 0; try++ {
				req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(img)).WithContext(ctx)
				req.Header.Set("X-Width", strconv.Itoa(size))
				req.Header.Set("X-Height", strconv.Itoa(size))
				w := httptest.NewRecorder()
				sampling.Store(true)
				srv.ServeHTTP(w, req)
				sampling.Store(false)
				if w.Code != http.StatusOK {
					t.Fatalf("status %d, want 200", w.Code)
				}
			}
			close(stop)
			<-done
			if samples.Load() == 0 {
				t.Fatal("sampler never ran while a request was being served")
			}
			if peak.Load() != before {
				t.Errorf("%d goroutines while serving a cancellable request, %d before it", peak.Load(), before)
			}
			srv.Close()
		}},
		{"degrade", func(t *testing.T) {
			inj := fault.New()
			srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
				Ledger: ledgerOpts(inj),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Permanent disk fault: retention-triggered compactions keep
			// failing until the store degrades; requests keep succeeding
			// and Close must still wind everything down.
			inj.FailWrites(1, 1<<40, nil)
			for j := 0; j < 24; j++ {
				invoke(t, srv, http.StatusOK)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				if deg, _ := srv.Ledger().Degraded(); deg {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("store never degraded")
				}
				time.Sleep(time.Millisecond)
			}
			invoke(t, srv, http.StatusOK)
			srv.Close()
		}},
		{"unwedge", func(t *testing.T) {
			inj := fault.New()
			srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
				Ledger: ledgerOpts(inj),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Transient fault: the first two batch writes fail, the retry
			// loop rides it out, and the store must NOT be degraded after.
			inj.FailWrites(1, 2, nil)
			for j := 0; j < 24; j++ {
				invoke(t, srv, http.StatusOK)
			}
			srv.Ledger().Anchor()
			if deg, derr := srv.Ledger().Degraded(); deg {
				t.Fatalf("transient fault degraded the store: %v", derr)
			}
			srv.Close()
		}},
	}
	base := settle()
	for i := 0; i < 3; i++ {
		for _, sc := range scenarios {
			sc.run(t)
		}
	}
	after := settle()
	if after > base+2 {
		t.Fatalf("goroutines grew from %d to %d across create/close cycles — a checkpoint goroutine, ticker, interrupt watcher, or spill writer leaked", base, after)
	}
}

// TestGatewayBoundedRetention100k pins the headline acceptance criterion
// at the gateway level: with Retention.MaxResidentRecords = 4096, a run of
// 100k instrumented requests keeps the resident ledger bounded — the
// chain, totals and truncated dump remain exactly verifiable at the end.
func TestGatewayBoundedRetention100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k gateway requests")
	}
	const (
		total       = 100_000
		maxResident = 4096
		shards      = 4
	)
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
		PoolPrewarm: 1,
		Ledger: accounting.LedgerOptions{
			Shards:    shards,
			Retention: accounting.RetentionPolicy{MaxResidentRecords: maxResident},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	segRecords := maxResident / (2 * shards)
	bound := maxResident + shards*segRecords + 64

	payload := []byte("bounded-retention-payload")
	peak := 0
	for i := 0; i < total; i++ {
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(payload))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
		if r := srv.Ledger().Resident(); r > peak {
			peak = r
		}
	}
	if peak > bound {
		t.Fatalf("resident ledger records peaked at %d over %d requests, bound %d (budget %d)",
			peak, total, bound, maxResident)
	}
	t.Logf("served %d requests; resident peak %d (budget %d, bound %d)", total, peak, maxResident, bound)
	if got := srv.Ledger().Totals().Sequence; got != total {
		t.Fatalf("ledger covers %d records, want %d", got, total)
	}

	// /compact seals everything behind a fresh checkpoint. It mutates
	// state, so GET must be refused and POST do the work.
	gw := httptest.NewRecorder()
	srv.ServeHTTP(gw, httptest.NewRequest(http.MethodGet, faas.CompactPath, nil))
	if gw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compact: status %d, want %d", gw.Code, http.StatusMethodNotAllowed)
	}
	cw := httptest.NewRecorder()
	srv.ServeHTTP(cw, httptest.NewRequest(http.MethodPost, faas.CompactPath, nil))
	if cw.Code != http.StatusOK {
		t.Fatalf("POST /compact: status %d: %s", cw.Code, cw.Body.String())
	}
	var comp accounting.CompactResult
	if err := json.Unmarshal(cw.Body.Bytes(), &comp); err != nil {
		t.Fatal(err)
	}
	if comp.Checkpoint.Checkpoint.Covered() != total {
		t.Fatalf("/compact anchor covers %d, want %d", comp.Checkpoint.Checkpoint.Covered(), total)
	}
	if r := srv.Ledger().Resident(); r != 0 {
		t.Fatalf("resident %d after /compact, want 0", r)
	}

	// ...and the truncated dump streamed by /ledger verifies against that
	// anchor: a non-zero starting sequence on every shard, one signature
	// vouching for all 100k truncated records.
	lw := httptest.NewRecorder()
	srv.ServeHTTP(lw, httptest.NewRequest(http.MethodGet, faas.LedgerPath+"?truncated=1", nil))
	if lw.Code != http.StatusOK {
		t.Fatalf("/ledger?truncated=1: status %d", lw.Code)
	}
	vr, err := accounting.VerifyReader(bytes.NewReader(lw.Body.Bytes()),
		accounting.VerifyOptions{Key: srv.Enclave().PublicKey()})
	if err != nil {
		t.Fatalf("truncated dump verification: %v", err)
	}
	if !vr.Anchored || vr.StartRecords+uint64(vr.Records) != total {
		t.Fatalf("truncated dump: anchored=%v start=%d records=%d, want anchored covering %d",
			vr.Anchored, vr.StartRecords, vr.Records, total)
	}
	if vr.Totals.Sequence != total {
		t.Fatalf("verified cumulative totals cover %d records, want %d", vr.Totals.Sequence, total)
	}
}

// TestEchoRequestAllocBudget pins the gateway's fixed per-request
// allocation under the full hardware setup (EPC model, transitions, I/O
// accounting, ledger append): the EPC-sized residency model alone used to
// cost 769 KB per request. Allocated bytes are deterministic up to the
// ledger's amortised growth, so this runs in tier-1.
func TestEchoRequestAllocBudget(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64)
	requestAllocBudget(t, faas.Echo, payload, 0, 0, payload, 64<<10)
}

// TestResizeRequestAllocBudget is the same pin for a request with a real
// payload: a 64 KiB body with a declared length is read into one buffer of
// that size, so the request allocates the body, the 16 KiB response and the
// page table — not the ~200 KB of regrown buffers io.ReadAll left behind.
func TestResizeRequestAllocBudget(t *testing.T) {
	const edge = 128
	payload := make([]byte, edge*edge*4)
	rand.New(rand.NewSource(1)).Read(payload)
	requestAllocBudget(t, faas.Resize, payload, edge, edge, workloads.NativeResize(payload, edge, edge), 160<<10)
}

// requestAllocBudget serves 200 requests through ServeHTTP under the full
// AccTEE configuration and fails if the mean allocation per request reaches
// budget bytes.
func requestAllocBudget(t *testing.T, fn faas.Function, payload []byte, width, height int, want []byte, budget uint64) {
	// A prewarmed instance lives on the pool's owned free-list; the overflow
	// sync.Pool may drop instances (a collection; at random under -race).
	srv, err := faas.NewServerWithOptions(fn, faas.SetupSGXHWIO, faas.ServerOptions{PoolPrewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serve := func() {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(payload))
		r.Header.Set("X-Width", strconv.Itoa(width))
		r.Header.Set("X-Height", strconv.Itoa(height))
		srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("status %d, %d-byte body differs from the %d expected", w.Code, w.Body.Len(), len(want))
		}
	}
	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("%d B allocated per %v request", perRequest, fn)
	if perRequest >= budget {
		t.Errorf("%d B allocated per %v request, budget %d KiB", perRequest, fn, budget>>10)
	}
}
