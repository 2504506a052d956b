// Package loadgen is the evaluation's HTTP load generator, standing in for
// the paper's h2load.
package loadgen

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

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
	// Simulated sums the Server-Timing sim entry over successful responses:
	// the modelled time the server reported beside the real time it took.
	Simulated time.Duration
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
	record := func(status int, weighted uint64, sim, took time.Duration, shed, retried int) {
		mu.Lock()
		defer mu.Unlock()
		res.ByStatus[status]++
		res.Shed += shed
		res.Retried += retried
		latencies = append(latencies, took)
		if status >= 200 && status < 300 {
			res.Requests++
			res.WeightedInstructions += weighted
			res.Simulated += sim
		} else {
			res.Errors++
		}
	}
	// attempt issues one HTTP request and reports its status (0 =
	// transport error) plus the accounting and timing headers on success.
	attempt := func() (status int, weighted uint64, sim time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(opts.Payload))
		if err != nil {
			return 0, 0, 0
		}
		req.Header.Set("X-Width", strconv.Itoa(opts.Width))
		req.Header.Set("X-Height", strconv.Itoa(opts.Height))
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, 0
		}
		// Drain for connection reuse, but only count the body of a
		// successful response; the accounting and timing headers are
		// parsed only on success, so a 500 with or without them lands
		// identically in ByStatus/Errors.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			weighted, _ = strconv.ParseUint(resp.Header.Get("X-Weighted-Instructions"), 10, 64)
			sim = simulated(resp.Header.Get("Server-Timing"))
		}
		return resp.StatusCode, weighted, sim
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
				status, weighted, sim := attempt()
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
					status, weighted, sim = attempt()
				}
				record(status, weighted, sim, time.Since(t0), shed, retried)
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

// simulated reads the gateway's Server-Timing header, "sim;dur=<ms>"; any
// other value reads as 0.
func simulated(header string) time.Duration {
	ms, _ := strconv.ParseFloat(strings.TrimPrefix(header, "sim;dur="), 64)
	return time.Duration(ms * float64(time.Millisecond))
}
