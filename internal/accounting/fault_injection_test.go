package accounting_test

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/fault"
)

func spillOpts(dir string, inj *fault.Injector) accounting.LedgerOptions {
	return accounting.LedgerOptions{
		Shards: 1,
		Retention: accounting.RetentionPolicy{
			MaxResidentRecords: 1 << 20, // explicit compaction points only
			SegmentRecords:     8,
			SpillDir:           dir,
		},
		Faults: inj,
	}
}

// waitDegraded polls until the ledger reports degradation (the async
// writer exhausts its retry budget on its own schedule) or the deadline
// expires.
func waitDegraded(t *testing.T, l *accounting.Ledger) error {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if deg, err := l.Degraded(); deg {
			return err
		}
		if time.Now().After(deadline) {
			t.Fatal("store never degraded after a permanent write fault")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpillTransientWriteFaultHealsViaRetry: a bounded run of write
// failures (a full device queue, a momentary EIO) must be absorbed by the
// group-commit writer's retry loop — no degradation, no lost frames, and
// the spill directory verifies end to end as if nothing happened.
func TestSpillTransientWriteFaultHealsViaRetry(t *testing.T) {
	dir := t.TempDir()
	e := newEnclave(t)
	inj := fault.New()
	l, err := accounting.NewLedger(e, spillOpts(dir, inj))
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if _, _, err := l.Append(logFor(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Arm a transient fault. The next injected write is the compaction
	// checkpoint's log line (which must succeed — Compact is synchronous);
	// the two after that are async group-commit batch writes, which the
	// writer retries with backoff until the fault heals.
	armed := inj.Writes()
	inj.FailWrites(armed+2, 2, nil)
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Anchor() // drain barrier: the retried batch is durable
	if deg, derr := l.Degraded(); deg {
		t.Fatalf("transient fault degraded the store: %v", derr)
	}
	if got := l.SpilledRecords(); got != n {
		t.Fatalf("spilled %d records, want %d", got, n)
	}
	if inj.Writes() < armed+3 {
		t.Fatalf("only %d writes interposed after arming at %d — the retry path never ran", inj.Writes(), armed)
	}
	if _, ok := l.Record(0, 0); !ok {
		t.Fatal("record 0/0 unreachable after the healed fault")
	}
	l.Close()
	res, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("spill dir after healed fault: %v", err)
	}
	if res.Records != n {
		t.Fatalf("verifier replayed %d records, want %d", res.Records, n)
	}
}

// TestSpillTransientSyncFaultHealsOnDrain: Drain (the durability barrier
// behind Anchor and dumps) retries a failing sync point instead of
// degrading on the first error.
func TestSpillTransientSyncFaultHealsOnDrain(t *testing.T) {
	dir := t.TempDir()
	e := newEnclave(t)
	inj := fault.New()
	l, err := accounting.NewLedger(e, spillOpts(dir, inj))
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	for i := 0; i < n; i++ {
		if _, _, err := l.Append(logFor(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Anchor() // writes landed, schedule clean: target the next barrier only
	armed := inj.Syncs()
	inj.FailSyncs(armed+1, 2, nil)
	for i := 0; i < n; i++ {
		if _, _, err := l.Append(logFor(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Anchor()
	if deg, derr := l.Degraded(); deg {
		t.Fatalf("transient sync fault degraded the store: %v", derr)
	}
	l.Close()
	res, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("spill dir after healed sync fault: %v", err)
	}
	if res.Records != 2*n {
		t.Fatalf("verifier replayed %d records, want %d", res.Records, 2*n)
	}
}

// TestSpillPermanentWriteFaultDegrades: when the disk fails for good, the
// store must exhaust its retry budget and then degrade to bounded
// in-memory retention — appends, checkpoints, and compactions keep
// working, retention stays bounded, the failure is reported through
// Degraded(), and dumps auto-anchor so the offline verifier stays green.
func TestSpillPermanentWriteFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	e := newEnclave(t)
	inj := fault.New()
	l, err := accounting.NewLedger(e, spillOpts(dir, inj))
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if _, _, err := l.Append(logFor(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every batch write from the seal on fails, forever.
	inj.FailWrites(inj.Writes()+2, math.MaxUint64/2, nil)
	if _, err := l.Compact(); err != nil {
		t.Fatalf("compact must succeed even though its async spill will fail: %v", err)
	}
	derr := waitDegraded(t, l)
	if !errors.Is(derr, fault.ErrInjected) {
		t.Fatalf("degradation cause = %v, want the injected write error", derr)
	}

	// The ledger stays live: appends chain, checkpoints sign, and a
	// degraded compaction still bounds retention by dropping covered
	// records (as a store without a directory does).
	for i := 0; i < n; i++ {
		if _, _, err := l.Append(logFor(2, i)); err != nil {
			t.Fatalf("append after degradation: %v", err)
		}
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after degradation: %v", err)
	}
	if _, err := l.Compact(); err != nil {
		t.Fatalf("compact after degradation: %v", err)
	}
	if res := l.Resident(); res != 0 {
		t.Fatalf("degraded compaction left %d resident records, want 0", res)
	}
	// The failed batch's frames stay readable on the pending queue.
	if _, ok := l.Record(0, 0); !ok {
		t.Fatal("record 0/0 unreachable after degradation")
	}

	// Dumps anchor automatically on a non-persistent store: a tail
	// appended after the anchor replays and the whole stream verifies.
	const tail = 8
	for i := 0; i < tail; i++ {
		if _, _, err := l.Append(logFor(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := l.WriteDump(&buf, accounting.DumpOptions{}); err != nil {
		t.Fatalf("dump from degraded ledger: %v", err)
	}
	vres, err := accounting.VerifyReader(bytes.NewReader(buf.Bytes()), accounting.VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("degraded dump does not verify: %v", err)
	}
	if vres.Records != tail {
		t.Fatalf("anchored dump replayed %d records, want the %d-record tail", vres.Records, tail)
	}

	// The store-level Close still reports why durability was lost, for
	// callers that hold the store directly (Ledger.Close discards it).
	if err := l.Store().Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("store Close = %v, want the injected degradation cause", err)
	}
	l.Close()
}
