package bench

import (
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"acctee/internal/faas"
	"acctee/internal/loadgen"
	"acctee/internal/workloads"
)

// Fig9Row is one (function, image size, setup) throughput measurement;
// Function and Setup are the faas types' String() names. ReqPerSec is
// measured; ModelledReqPerSec adds the responses' simulated time, closed-loop
// and additively (README, "Paper versus measured"): Requests / (Duration +
// Simulated/Clients).
type Fig9Row struct {
	Function          string  `json:"function"`
	ImageSize         int     `json:"image_px"` // square pixels
	Setup             string  `json:"setup"`
	ReqPerSec         float64 `json:"req_per_sec"`
	ModelledReqPerSec float64 `json:"modelled_req_per_sec"`
}

// Fig9Result is the FaaS throughput comparison (Fig. 9).
type Fig9Result struct {
	Paper string    `json:"paper"`
	Rows  []Fig9Row `json:"rows"`
}

// fig9RequestTimeout bounds one request of a throughput cell. The slowest
// baseline (1024x1024 resize through the JS-dispatch interpreter, three at
// once) takes 7 to 10 s per request on the 2-vCPU reference host, so the
// load generator's 10 s default, sized for the overload tests, fails the
// figure whenever the host is busy.
const fig9RequestTimeout = 5 * time.Minute

// Fig9Options tune the load generation so the experiment fits the host.
type Fig9Options struct {
	// Sizes are square image edge lengths (paper: 64, 128, 512, 1024).
	Sizes []int
	// Clients is the concurrency (paper: 10 via h2load).
	Clients int
	// Requests is the total request count per configuration.
	Requests int
	// Setups limits the configurations (nil = all six).
	Setups []faas.Setup
	// Functions limits the functions (nil = echo and resize).
	Functions []faas.Function
}

func (o *Fig9Options) fill() {
	if o.Sizes == nil {
		o.Sizes = []int{64, 128, 512, 1024}
	}
	if o.Clients == 0 {
		o.Clients = 10
	}
	if o.Requests == 0 {
		o.Requests = 20
	}
	if o.Setups == nil {
		o.Setups = []faas.Setup{
			faas.SetupWASM, faas.SetupSGXSim, faas.SetupSGXHW,
			faas.SetupSGXHWInstr, faas.SetupSGXHWIO, faas.SetupJS,
		}
	}
	if o.Functions == nil {
		o.Functions = []faas.Function{faas.Echo, faas.Resize}
	}
}

// RunFig9 reproduces the FaaS throughput comparison (Fig. 9): the echo and
// resize functions under all six deployment setups, driven by concurrent
// clients over real HTTP.
func RunFig9(opts Fig9Options) (*Fig9Result, error) {
	opts.fill()
	fig := &Fig9Result{Paper: "echo drops 2.1-4.8x to SGX-LKL; instrumentation and I/O accounting ~free; JS slowest (up to 16x below AccTEE)"}
	for _, fn := range opts.Functions {
		for _, size := range opts.Sizes {
			img := workloads.TestImage(size, size)
			// Larger images cost quadratically more per request; scale the
			// request count down so every configuration contributes similar
			// wall time (the paper fixes duration via h2load instead).
			requests := opts.Requests / (size / 64)
			if requests < 3 {
				requests = 3
			}
			for _, setup := range opts.Setups {
				srv, err := faas.NewServer(fn, setup)
				if err != nil {
					return nil, fmt.Errorf("fig9 %v/%v: %w", fn, setup, err)
				}
				ts := httptest.NewServer(srv)
				res := loadgen.GenerateLoadWithOptions(ts.URL, loadgen.LoadOptions{
					Clients: opts.Clients, Total: requests, Payload: img,
					Width: size, Height: size, Timeout: fig9RequestTimeout,
				})
				ts.Close()
				if res.Errors > 0 {
					return nil, fmt.Errorf("fig9 %v/%v/%d: %d failed requests", fn, setup, size, res.Errors)
				}
				modelled := res.Duration + res.Simulated/time.Duration(opts.Clients)
				fig.Rows = append(fig.Rows, Fig9Row{
					Function: fn.String(), ImageSize: size, Setup: setup.String(), ReqPerSec: res.ReqPerSec,
					ModelledReqPerSec: float64(res.Requests) / modelled.Seconds(),
				})
			}
		}
	}
	return fig, nil
}

// PrintFig9 renders the throughput table grouped like the figure.
func PrintFig9(w io.Writer, fig *Fig9Result) {
	tw := newTab(w)
	fmt.Fprintln(tw, "function\timage\tsetup\treq/s\tmodelled req/s")
	for _, r := range fig.Rows {
		fmt.Fprintf(tw, "%s\t%dpx\t%s\t%.2f\t%.2f\n", r.Function, r.ImageSize, r.Setup, r.ReqPerSec, r.ModelledReqPerSec)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "paper: %s\n", fig.Paper)
}
