package faas_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/faas"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/workloads"
)

var instrumentedSetups = []faas.Setup{faas.SetupSGXHWInstr, faas.SetupSGXHWIO}

// receipt fetches the record a response's receipt headers name.
func receipt(t *testing.T, url string, resp *http.Response) accounting.Record {
	t.Helper()
	shard, seq := resp.Header.Get("X-Acct-Shard"), resp.Header.Get("X-Acct-Sequence")
	if shard == "" || seq == "" || resp.Header.Get("X-Acct-Chain") == "" {
		t.Fatalf("status %d carries no receipt: shard=%q seq=%q", resp.StatusCode, shard, seq)
	}
	rresp, body := get(t, fmt.Sprintf("%s%s?shard=%s&seq=%s", url, faas.ReceiptPath, shard, seq))
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("/receipt: status %d", rresp.StatusCode)
	}
	var rec accounting.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", rec.Hash); got != resp.Header.Get("X-Acct-Chain") {
		t.Fatalf("record hash %s, receipt chain head %s", got, resp.Header.Get("X-Acct-Chain"))
	}
	return rec
}

// TestGatewayEnclaveIsTheAccountingEnclave: an instrumented gateway's
// enclave has the accounting enclave's measurement, so its checkpoints
// verify under the identity an auditor computes from the AE code.
func TestGatewayEnclaveIsTheAccountingEnclave(t *testing.T) {
	for _, setup := range instrumentedSetups {
		srv, err := faas.NewServer(faas.Echo, setup)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if got := srv.Enclave().Measurement(); got != core.AEMeasurement() {
			t.Errorf("%v: enclave measurement %x, want the AE's %x", setup, got, core.AEMeasurement())
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		if resp, _ := post(t, ts.URL, []byte("hello"), 0, 0); resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d", setup, resp.StatusCode)
		}
		_, body := get(t, ts.URL+faas.CheckpointPath)
		var sc accounting.SignedCheckpoint
		if err := json.Unmarshal(body, &sc); err != nil {
			t.Fatal(err)
		}
		if err := accounting.VerifyCheckpointSig(sc, srv.Enclave().PublicKey(), core.AEMeasurement()); err != nil {
			t.Errorf("%v: checkpoint under the AE measurement: %v", setup, err)
		}
	}
}

// TestGatewayRecordIsTheAccountingEnclaves: a 128×128 resize request's
// record names the module the instrumentation enclave signed, carries the
// instruction weights, both crossings and a memory integral, and equals the
// record of the same run made in the accounting enclave directly. The
// counter is the one the gateway always reported, and the enclave cycles it
// reports as simulated time are 22,000 per echo and 76,000 per resize.
func TestGatewayRecordIsTheAccountingEnclaves(t *testing.T) {
	const edge = 128
	m, err := workloads.BuildResize()
	if err != nil {
		t.Fatal(err)
	}
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ev, err := ie.Instrument(m)
	if err != nil {
		t.Fatal(err)
	}
	transition := sgx.DefaultCostParams().TransitionCycles
	img := workloads.TestImage(edge, edge)
	for _, setup := range instrumentedSetups {
		srv, err := faas.NewServer(faas.Resize, setup)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, _ := post(t, ts.URL, img, edge, edge)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d", setup, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Weighted-Instructions"); got != "3413079" {
			t.Errorf("%v: X-Weighted-Instructions %s, want 3413079", setup, got)
		}
		log := receipt(t, ts.URL, resp).Log
		if log.WorkloadHash != ev.InstrumentedHash {
			t.Errorf("%v: record names module %x, the evidence %x", setup, log.WorkloadHash, ev.InstrumentedHash)
		}
		if log.MemoryIntegral == 0 {
			t.Errorf("%v: record has no memory integral", setup)
		}
		var in, out uint64
		if setup == faas.SetupSGXHWIO {
			in, out = edge*edge*4, edge*edge
		}
		if log.IOBytesIn != in || log.IOBytesOut != out {
			t.Errorf("%v: record I/O %d in, %d out; want %d, %d", setup, log.IOBytesIn, log.IOBytesOut, in, out)
		}

		res, err := srv.Run(img, edge, edge)
		if err != nil {
			t.Fatal(err)
		}
		direct := res.Record.Log
		direct.Sequence = log.Sequence // the next record on its lane
		if direct != log {
			t.Errorf("%v: gateway record %+v, the enclave's run %+v", setup, log, direct)
		}
		if res.EnclaveCycles != 76_000 {
			t.Errorf("%v: resize EnclaveCycles %d, want 76,000", setup, res.EnclaveCycles)
		}
		if !(log.SimulatedCycles > res.EnclaveCycles && res.EnclaveCycles >= 2*transition) {
			t.Errorf("%v: SimulatedCycles %d, EnclaveCycles %d: want SimulatedCycles > EnclaveCycles >= %d",
				setup, log.SimulatedCycles, res.EnclaveCycles, 2*transition)
		}
	}

	srv, err := faas.NewServer(faas.Echo, faas.SetupSGXHWIO)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	echo := make([]byte, 64)
	res, err := srv.Run(echo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnclaveCycles != 22_000 {
		t.Errorf("echo EnclaveCycles %d, want 22,000", res.EnclaveCycles)
	}
}

// TestGatewayChargesTraps: a resize that traps answers 500 invoke_failed
// with the receipt of the record that charges it, and the lane chains on.
func TestGatewayChargesTraps(t *testing.T) {
	srv, err := faas.NewServerWithOptions(faas.Resize, faas.SetupSGXHWInstr,
		faas.ServerOptions{Ledger: accounting.LedgerOptions{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, body := post(t, ts.URL, make([]byte, 16), 100_000, 100_000)
	want := fmt.Sprintf("{\"error\":{\"code\":%q}}\n", faas.ErrCodeInvokeFailed)
	if resp.StatusCode != http.StatusInternalServerError || string(body) != want {
		t.Fatalf("trapping resize: status %d, body %q; want 500, %q", resp.StatusCode, body, want)
	}
	if rec := receipt(t, ts.URL, resp); rec.Log.WeightedInstructions == 0 {
		t.Error("the trapped run's record charges no instructions")
	}
	seq, _ := strconv.ParseUint(resp.Header.Get("X-Acct-Sequence"), 10, 64)
	img := workloads.TestImage(8, 8)
	next, _ := post(t, ts.URL, img, 8, 8)
	if next.StatusCode != http.StatusOK {
		t.Fatalf("request after the trap: status %d", next.StatusCode)
	}
	if got, _ := strconv.ParseUint(next.Header.Get("X-Acct-Sequence"), 10, 64); got != seq+1 {
		t.Errorf("sequence %d after the trapped run's %d", got, seq)
	}
}

// TestServerTimingIsTheRunsSimulatedTime: every setup's response reports
// its request's simulated time, and only that, as a Server-Timing "sim"
// entry in milliseconds at sgx.CyclesPerNs: the accounting enclave's
// EnclaveCycles in the instrumented setups, two crossings plus a fresh EPC
// model's paging in plain HW, nothing in WASM and SIM, and the modelled
// dispatch in JS.
func TestServerTimingIsTheRunsSimulatedTime(t *testing.T) {
	const edge = 128
	costs := sgx.DefaultCostParams()
	// plainHW runs the uninstrumented function on its own instance under a
	// fresh EPC model, as the plain HW setup charges a request.
	plainHW := func(fn faas.Function, body []byte) uint64 {
		build, args := workloads.BuildEcho, []uint64{uint64(len(body))}
		if fn == faas.Resize {
			build, args = workloads.BuildResize, []uint64{edge, edge}
		}
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		model := sgx.NewEPCModel(sgx.ModeHardware, costs, nil)
		vm, err := interp.Instantiate(m, interp.Config{CostModel: model})
		if err != nil {
			t.Fatal(err)
		}
		in, err := vm.MemoryDirty(workloads.InBase, uint32(len(body)))
		if err != nil {
			t.Fatal(err)
		}
		copy(in, body)
		if _, err := vm.InvokeExport("run", args...); err != nil {
			t.Fatal(err)
		}
		return 2*costs.TransitionCycles + model.PagingCycles()
	}
	ms := func(cycles uint64) float64 { return float64(cycles) / sgx.CyclesPerNs / 1e6 }
	for _, fn := range []faas.Function{faas.Echo, faas.Resize} {
		body, width, height, enclaveCycles := make([]byte, 64), 0, 0, uint64(22_000)
		if fn == faas.Resize {
			body, width, height, enclaveCycles = workloads.TestImage(edge, edge), edge, edge, 76_000
		}
		for _, setup := range []faas.Setup{
			faas.SetupWASM, faas.SetupSGXSim, faas.SetupSGXHW,
			faas.SetupSGXHWInstr, faas.SetupSGXHWIO, faas.SetupJS,
		} {
			srv, err := faas.NewServer(fn, setup)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			r.Header.Set("X-Width", strconv.Itoa(width))
			r.Header.Set("X-Height", strconv.Itoa(height))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("%v %v: status %d", fn, setup, w.Code)
			}
			v, ok := strings.CutPrefix(w.Header().Get("Server-Timing"), "sim;dur=")
			got, err := strconv.ParseFloat(v, 64)
			if !ok || err != nil {
				t.Fatalf("%v %v: Server-Timing %q, want sim;dur=<ms>", fn, setup, w.Header().Get("Server-Timing"))
			}
			var want float64
			switch setup {
			case faas.SetupJS:
				want = float64(faas.JSDispatchCost) / 1e6
			case faas.SetupSGXHW, faas.SetupSGXHWInstr, faas.SetupSGXHWIO:
				res, err := srv.Run(body, width, height)
				if err != nil {
					t.Fatal(err)
				}
				wantCycles := enclaveCycles
				if setup == faas.SetupSGXHW {
					wantCycles = plainHW(fn, body)
				}
				if res.EnclaveCycles != wantCycles {
					t.Errorf("%v %v: EnclaveCycles %d, want %d", fn, setup, res.EnclaveCycles, wantCycles)
				}
				want = ms(wantCycles)
			}
			if got != want {
				t.Errorf("%v %v: sim %v ms, want %v", fn, setup, got, want)
			}
		}
	}
}
