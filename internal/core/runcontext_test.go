package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"acctee/internal/core"
	"acctee/internal/interp"
	"acctee/internal/sgx"
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
// comparison; the run is on this goroutine).
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
	before := int64(runtime.NumGoroutine())
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
