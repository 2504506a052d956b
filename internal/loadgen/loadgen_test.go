package loadgen_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"acctee/internal/faas"
	"acctee/internal/loadgen"
)

func TestGenerateLoad(t *testing.T) {
	srv, err := faas.NewServer(faas.Echo, faas.SetupJS)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	res := loadgen.GenerateLoad(ts.URL, 4, 12, []byte("ping"), 0, 0)
	if res.Requests != 12 || res.Errors != 0 {
		t.Errorf("load result %+v", res)
	}
	if srv.Requests() != 12 {
		t.Errorf("server saw %d requests, want 12", srv.Requests())
	}
	if res.ReqPerSec <= 0 {
		t.Errorf("nonsensical throughput %v", res.ReqPerSec)
	}
}

// TestGenerateLoadDeclaresLength: every request reaches the handler with
// its payload's length declared, as h2load sends it.
func TestGenerateLoadDeclaresLength(t *testing.T) {
	payload := []byte("a payload of declared length")
	var undeclared atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != int64(len(payload)) {
			undeclared.Add(1)
		}
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer ts.Close()
	res := loadgen.GenerateLoad(ts.URL, 2, 6, payload, 0, 0)
	if res.Requests != 6 || undeclared.Load() != 0 {
		t.Errorf("%d of 6 requests served, %d without Content-Length %d", res.Requests, undeclared.Load(), len(payload))
	}
}

// TestGenerateLoadSurfacesFailures pins the satellite fix: failed-but-
// responded requests must not be silently absorbed — they are excluded from
// Requests/ReqPerSec, counted in Errors, broken down in ByStatus, and their
// X-Weighted-Instructions header (present or missing) never contributes.
func TestGenerateLoadSurfacesFailures(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		i := n.Add(1)
		switch {
		case i%3 == 0:
			// failure that still attaches the accounting header: it must
			// be treated exactly like one that does not.
			w.Header().Set("X-Weighted-Instructions", "12345")
			http.Error(w, "boom", http.StatusInternalServerError)
		case i%5 == 0:
			http.Error(w, "busy", http.StatusServiceUnavailable)
		default:
			w.Header().Set("X-Weighted-Instructions", "7")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ok"))
		}
	}))
	defer ts.Close()

	// Retries are disabled: this test pins the per-status breakdown, and a
	// retried 503 would (correctly) turn into a 200 and blur it. The shed
	// counter must still see every 503.
	const total = 30
	res := loadgen.GenerateLoadWithOptions(ts.URL, loadgen.LoadOptions{
		Clients: 3, Total: total, Payload: []byte("x"), Retries: -1,
	})

	want500 := total / 3          // every 3rd
	want503 := total/5 - total/15 // every 5th, minus overlaps with 3rd
	wantOK := total - want500 - want503
	if res.Requests != wantOK {
		t.Errorf("Requests = %d, want %d", res.Requests, wantOK)
	}
	if res.Errors != want500+want503 {
		t.Errorf("Errors = %d, want %d", res.Errors, want500+want503)
	}
	if res.ByStatus[http.StatusOK] != wantOK ||
		res.ByStatus[http.StatusInternalServerError] != want500 ||
		res.ByStatus[http.StatusServiceUnavailable] != want503 {
		t.Errorf("ByStatus = %v, want 200:%d 500:%d 503:%d", res.ByStatus, wantOK, want500, want503)
	}
	if res.Requests+res.Errors != total {
		t.Errorf("accounted %d requests, want %d", res.Requests+res.Errors, total)
	}
	// Only successful responses contribute accounting: 7 each, never the
	// 12345 attached to the 500s.
	if want := uint64(wantOK * 7); res.WeightedInstructions != want {
		t.Errorf("WeightedInstructions = %d, want %d", res.WeightedInstructions, want)
	}
	if res.Shed != want503 || res.Retried != 0 {
		t.Errorf("Shed/Retried = %d/%d, want %d/0 (retries disabled)", res.Shed, res.Retried, want503)
	}
}

// TestGenerateLoadLatencyPercentiles pins the satellite: per-request
// latency percentiles are reported and ordered.
func TestGenerateLoadLatencyPercentiles(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		time.Sleep(200 * time.Microsecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	res := loadgen.GenerateLoad(ts.URL, 2, 20, []byte("x"), 0, 0)
	if res.LatencyP50 <= 0 {
		t.Fatalf("p50 = %v", res.LatencyP50)
	}
	if res.LatencyP95 < res.LatencyP50 || res.LatencyP99 < res.LatencyP95 {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	if res.LatencyP50 < 200*time.Microsecond {
		t.Errorf("p50 %v below the handler's sleep", res.LatencyP50)
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

	res := loadgen.GenerateLoadWithOptions(ts.URL, loadgen.LoadOptions{
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

// TestGenerateLoadSumsSimulatedTime: the Server-Timing sim durations of
// successful responses add up in Simulated; a failed response's never
// counts, and a response without the entry adds nothing.
func TestGenerateLoadSumsSimulatedTime(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch n.Add(1) % 3 {
		case 0:
			w.Header().Set("Server-Timing", "sim;dur=1000")
			w.WriteHeader(http.StatusInternalServerError)
		case 1:
			w.Header().Set("Server-Timing", "sim;dur=1.5")
			w.WriteHeader(http.StatusOK)
		default:
			w.WriteHeader(http.StatusOK)
		}
	}))
	defer ts.Close()
	res := loadgen.GenerateLoadWithOptions(ts.URL, loadgen.LoadOptions{Clients: 1, Total: 9, Payload: []byte("x")})
	if res.Requests != 6 || res.Errors != 3 {
		t.Fatalf("Requests/Errors = %d/%d, want 6/3", res.Requests, res.Errors)
	}
	if want := 3 * 1500 * time.Microsecond; res.Simulated != want {
		t.Errorf("Simulated = %v, want %v", res.Simulated, want)
	}
}
