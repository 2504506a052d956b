package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
)

// TestRunContextPreCancelled: an already-expired context still flows through
// the ledger — the run aborts at the entry leader with a zero-work record,
// so cancellation never produces an unaccounted execution.
func TestRunContextPreCancelled(t *testing.T) {
	ae, _ := newTestAE(t, sgx.ModeSimulation)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ae.RunContext(ctx, core.RunOptions{Entry: "sum", Args: []uint64{100}})
	if !errors.Is(err, interp.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res.Record.Hash == ([32]byte{}) {
		t.Fatal("no record hash for interrupted run")
	}
	if res.Record.Log.WeightedInstructions != 0 {
		t.Errorf("pre-cancelled run charged %d weighted instructions, want 0", res.Record.Log.WeightedInstructions)
	}
	// The zero-work record must still chain and verify.
	if _, err := ae.Snapshot(); err != nil {
		t.Fatalf("checkpoint after interrupted run: %v", err)
	}
}

// TestRunContextDeadlineChargesPartialWork cancels a long-running workload
// mid-flight and asserts the receipt charges strictly less than the full
// run, while the subsequent uninterrupted run on the same enclave still
// chains normally behind it.
func TestRunContextDeadlineChargesPartialWork(t *testing.T) {
	ae, _ := newTestAE(t, sgx.ModeSimulation)

	full, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{30_000_000}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	res, err := ae.RunContext(ctx, core.RunOptions{Entry: "sum", Args: []uint64{30_000_000}})
	if !errors.Is(err, interp.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted (workload finished before the deadline?)", err)
	}
	got := res.Record.Log.WeightedInstructions
	if got >= full.Record.Log.WeightedInstructions {
		t.Errorf("interrupted run charged %d >= full run's %d", got, full.Record.Log.WeightedInstructions)
	}

	// The enclave stays healthy: later runs append and verify behind the
	// interrupted record.
	after, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{100}})
	if err != nil {
		t.Fatal(err)
	}
	if after.Receipt.Shard == res.Receipt.Shard && after.Receipt.Sequence <= res.Receipt.Sequence {
		t.Errorf("post-interrupt run did not advance the lane: seq %d then %d", res.Receipt.Sequence, after.Receipt.Sequence)
	}
	if _, err := ae.Snapshot(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

// TestRunContextNoLeak: a run whose context can expire arms the interrupt
// without a goroutine of its own. While it executes, the goroutine count
// stays where it was before (the sampler exists on both sides of the
// comparison; the run is on this goroutine). The count is sampled once
// goroutines an earlier test left winding down have exited: one exiting
// between the sample and the run would read as a change.
func TestRunContextNoLeak(t *testing.T) {
	ae, _ := newTestAE(t, sgx.ModeSimulation)
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
	before := settledGoroutines(t)
	for try := 0; try < 20 && samples.Load() == 0; try++ {
		sampling.Store(true)
		_, err := ae.RunContext(ctx, core.RunOptions{Entry: "sum", Args: []uint64{1_000_000}})
		sampling.Store(false)
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	if samples.Load() == 0 {
		t.Fatal("sampler never ran during a run")
	}
	if peak.Load() != before {
		t.Errorf("%d goroutines during a cancellable run, %d before it", peak.Load(), before)
	}
}

// settledGoroutines waits until runtime.NumGoroutine has held one value for
// 100 ms and returns it.
func settledGoroutines(t *testing.T) int64 {
	t.Helper()
	n, stable := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(10 * time.Second); stable < 50; stable++ {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last %d)", n)
		}
		time.Sleep(2 * time.Millisecond)
		if g := runtime.NumGoroutine(); g != n {
			n, stable = g, 0
		}
	}
	return int64(n)
}

// testPayload is a RunOptions.Payload over address 0: CopyIn writes in,
// CopyOut records the entry's results and reports out bytes.
type testPayload struct {
	in      []byte
	out     uint64
	results []uint64
}

func (p *testPayload) CopyIn(vm *interp.VM) (uint64, error) {
	buf, err := vm.MemoryDirty(0, uint32(len(p.in)))
	if err != nil {
		return 0, err
	}
	copy(buf, p.in)
	return uint64(len(p.in)), nil
}

func (p *testPayload) CopyOut(vm *interp.VM, results []uint64) (uint64, error) {
	p.results = append([]uint64(nil), results...)
	return p.out, nil
}

// TestRunPayload: the payload hook's bytes are the record's I/O, CopyOut
// sees the entry's results, and a CopyIn that fails ends the run before the
// entry call: no transition, no record.
func TestRunPayload(t *testing.T) {
	ae, _ := newTestAE(t, sgx.ModeSimulation)
	defer ae.Close()
	p := &testPayload{in: make([]byte, 100), out: 7}
	res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{10}, Payload: p})
	if err != nil {
		t.Fatal(err)
	}
	if log := res.Record.Log; log.IOBytesIn != 100 || log.IOBytesOut != 7 {
		t.Errorf("record I/O %d in, %d out; want 100, 7", log.IOBytesIn, log.IOBytesOut)
	}
	if len(p.results) != 1 || p.results[0] != res.Results[0] {
		t.Errorf("CopyOut saw results %v, the run returned %v", p.results, res.Results)
	}

	transitions, records := ae.Enclave().Transitions(), ae.Ledger().Totals().Sequence
	tooBig := &testPayload{in: make([]byte, 5*wasm.PageSize)} // past the 4-page maximum
	if _, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{10}, Payload: tooBig}); err == nil {
		t.Fatal("a payload past the memory ran")
	}
	if tooBig.results != nil {
		t.Error("CopyOut ran after a failed CopyIn")
	}
	if got := ae.Enclave().Transitions(); got != transitions {
		t.Errorf("failed CopyIn crossed the enclave boundary %d times", got-transitions)
	}
	if got := ae.Ledger().Totals().Sequence; got != records {
		t.Errorf("failed CopyIn appended %d records", got-records)
	}
}

// TestEnclaveCycles: a hardware-mode run's EnclaveCycles is its two
// transitions, its library-OS crossings and its EPC faults (cold ones, at a
// quarter of PageFaultCycles, in a one-page memory), and the record's
// SimulatedCycles is that plus the instruction weights.
func TestEnclaveCycles(t *testing.T) {
	params := sgx.DefaultCostParams()
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		m         *wasm.Module
		crossings uint64
	}{
		{"compute", sumModule(), 0},
		{"block-write", ioModule(), 1},
	} {
		inst, ev, err := ie.Instrument(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		ae, err := core.NewAccountingEnclave(sgx.ModeHardware, params, nil, inst, ev, ie.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		defer ae.Close()
		if err := ae.LibOS().AttachBlockDevice(1<<16, nil); err != nil {
			t.Fatal(err)
		}
		entry := "sum"
		if tc.crossings > 0 {
			entry = "run"
		}
		res, err := ae.Run(core.RunOptions{Entry: entry, Args: []uint64{64}})
		if err != nil {
			t.Fatal(err)
		}
		want := (2+tc.crossings)*params.TransitionCycles + res.PageFaults*params.PageFaultCycles/4
		if res.EnclaveCycles != want {
			t.Errorf("%s: EnclaveCycles = %d with %d faults, want %d", tc.name, res.EnclaveCycles, res.PageFaults, want)
		}
		if sim := res.Record.Log.SimulatedCycles; sim <= res.EnclaveCycles {
			t.Errorf("%s: SimulatedCycles %d does not exceed EnclaveCycles %d by the instruction weights",
				tc.name, sim, res.EnclaveCycles)
		}
	}
}
