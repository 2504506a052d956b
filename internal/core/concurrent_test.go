package core_test

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
)

// newTestAE instruments sumModule and builds an AE around it.
func newTestAE(t *testing.T, mode sgx.Mode) (*core.AccountingEnclave, *core.InstrumentationEnclave) {
	t.Helper()
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, ev, err := ie.Instrument(sumModule())
	if err != nil {
		t.Fatal(err)
	}
	ae, err := core.NewAccountingEnclave(mode, sgx.DefaultCostParams(), nil, inst, ev, ie.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	return ae, ie
}

// driveConcurrent fires goroutines×runsEach runs and returns all receipts.
func driveConcurrent(t *testing.T, ae *core.AccountingEnclave, goroutines, runsEach int) []accounting.Receipt {
	t.Helper()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		receipts []accounting.Receipt
	)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{uint64(10 + g)}})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				receipts = append(receipts, res.Receipt)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return receipts
}

// TestConcurrentRunsShardedSequences drives N goroutines × M runs through
// one accounting enclave: every run gets a receipt, per-shard sequence
// numbers are gap-free starting at 0 (the sharded replacement for the old
// single global sequence), the on-request checkpoint covers every record
// with one verifiable signature, and the full ledger replays offline.
func TestConcurrentRunsShardedSequences(t *testing.T) {
	const goroutines, runsEach = 8, 10
	ae, _ := newTestAE(t, sgx.ModeSimulation)
	defer ae.Close()

	receipts := driveConcurrent(t, ae, goroutines, runsEach)
	if len(receipts) != goroutines*runsEach {
		t.Fatalf("got %d receipts, want %d", len(receipts), goroutines*runsEach)
	}

	// Per-shard gap-freedom: each lane's sequences are exactly 0..n-1.
	byShard := map[uint32][]uint64{}
	for _, r := range receipts {
		byShard[r.Shard] = append(byShard[r.Shard], r.Sequence)
	}
	var total int
	for shard, seqs := range byShard {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("shard %d sequences not gap-free: position %d holds %d (all: %v)", shard, i, s, seqs)
			}
		}
		total += len(seqs)
	}
	if total != goroutines*runsEach {
		t.Fatalf("shards account for %d records, want %d", total, goroutines*runsEach)
	}

	// One checkpoint signature covers everything; totals match the live
	// aggregate; the dump replays offline with zero violations.
	sc, err := ae.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Checkpoint.Covered(); got != goroutines*runsEach {
		t.Errorf("checkpoint covers %d, want %d", got, goroutines*runsEach)
	}
	if err := accounting.VerifyCheckpointSig(sc, ae.PublicKey(), ae.Measurement()); err != nil {
		t.Fatal(err)
	}
	if lt := ae.Ledger().Totals(); lt != sc.Checkpoint.Totals {
		t.Errorf("live totals %+v != checkpoint totals %+v", lt, sc.Checkpoint.Totals)
	}
	dump, err := ae.Ledger().Dump()
	if err != nil {
		t.Fatal(err)
	}
	vr, err := accounting.VerifyDump(dump, accounting.VerifyOptions{Key: ae.PublicKey(), Measurement: core.AEMeasurement()})
	if err != nil {
		t.Fatalf("offline verification after concurrent runs: %v", err)
	}
	if vr.Records != goroutines*runsEach || vr.CoveredRecords != goroutines*runsEach {
		t.Errorf("offline verification result %+v", vr)
	}
}

// TestEagerVsBatchedDifferential pins the acceptance criterion at the AE
// level: the checkpoint-batched ledger's totals are bit-identical to the
// per-record eager-signing baseline across concurrent runs of the same
// workload set — batching changes where signatures happen, never what is
// accounted.
func TestEagerVsBatchedDifferential(t *testing.T) {
	const goroutines, runsEach = 6, 8
	run := func(opts accounting.LedgerOptions) accounting.UsageLog {
		ae, _ := newTestAE(t, sgx.ModeSimulation)
		defer ae.Close()
		ae.SetLedgerOptions(opts)
		driveConcurrent(t, ae, goroutines, runsEach)
		sc, err := ae.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return sc.Checkpoint.Totals
	}
	eager := run(accounting.LedgerOptions{Shards: 4, EagerSign: true})
	batched := run(accounting.LedgerOptions{Shards: 4})
	if eager != batched {
		t.Fatalf("eager totals %+v != batched totals %+v", eager, batched)
	}
	// Shard count must not change what is accounted either.
	single := run(accounting.LedgerOptions{Shards: 1})
	if single != batched {
		t.Fatalf("1-shard totals %+v != 4-shard totals %+v", single, batched)
	}
}

// TestConcurrentRunsDeterministicPerInput: concurrent runs on pooled
// instances must count exactly like isolated ones — same input, same
// weighted instruction count, regardless of which recycled instance served
// it or which sequence lane recorded it.
func TestConcurrentRunsDeterministicPerInput(t *testing.T) {
	ae, _ := newTestAE(t, sgx.ModeSimulation)
	defer ae.Close()
	ref, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{25}})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Record.Log.WeightedInstructions

	const goroutines, runsEach = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{25}})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Record.Log.WeightedInstructions; got != want {
					t.Errorf("weighted instructions = %d, want %d", got, want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSaturatedRunsBitExactAccounting is the multi-core stress pin for the
// contention work (run under -race in CI): with GOMAXPROCS forced to 4 —
// lane affinity, striped instance pool and padded shard state all active —
// every shard's sequence lane must stay strictly increasing and gap-free,
// and the signed checkpoint totals must equal an independent field-by-field
// re-aggregation of every record the runs returned. Affinity may place
// records anywhere; it must never change what is accounted.
func TestSaturatedRunsBitExactAccounting(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	const goroutines, runsEach = 12, 25
	ae, _ := newTestAE(t, sgx.ModeSimulation)
	defer ae.Close()
	ae.SetLedgerOptions(accounting.LedgerOptions{Shards: 4})

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		recs []accounting.Record
	)
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < runsEach; r++ {
				res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{uint64(5 + g%4)}})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				recs = append(recs, res.Record)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(recs) != goroutines*runsEach {
		t.Fatalf("got %d records, want %d", len(recs), goroutines*runsEach)
	}

	// Per-shard lanes: sorted sequences must be exactly 0..n-1 — strictly
	// increasing with no gap and no duplicate.
	byShard := map[uint32][]uint64{}
	for _, r := range recs {
		byShard[r.Shard] = append(byShard[r.Shard], r.Log.Sequence)
	}
	for shard, seqs := range byShard {
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("shard %d lane not gap-free at position %d: %v", shard, i, seqs)
			}
		}
	}

	// Independent re-aggregation (same commutative fold the ledger uses:
	// sums plus max of peak memory) must hit the checkpoint totals exactly.
	var want accounting.UsageLog
	for _, r := range recs {
		want.WeightedInstructions += r.Log.WeightedInstructions
		if r.Log.PeakMemoryBytes > want.PeakMemoryBytes {
			want.PeakMemoryBytes = r.Log.PeakMemoryBytes
		}
		want.MemoryIntegral += r.Log.MemoryIntegral
		want.IOBytesIn += r.Log.IOBytesIn
		want.IOBytesOut += r.Log.IOBytesOut
		want.SimulatedCycles += r.Log.SimulatedCycles
	}
	sc, err := ae.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := sc.Checkpoint.Totals
	if got.WeightedInstructions != want.WeightedInstructions ||
		got.PeakMemoryBytes != want.PeakMemoryBytes ||
		got.MemoryIntegral != want.MemoryIntegral ||
		got.IOBytesIn != want.IOBytesIn ||
		got.IOBytesOut != want.IOBytesOut ||
		got.SimulatedCycles != want.SimulatedCycles {
		t.Fatalf("checkpoint totals %+v != independent re-aggregation %+v", got, want)
	}
	if sc.Checkpoint.Covered() != goroutines*runsEach {
		t.Fatalf("checkpoint covers %d, want %d", sc.Checkpoint.Covered(), goroutines*runsEach)
	}
	if err := accounting.VerifyCheckpointSig(sc, ae.PublicKey(), ae.Measurement()); err != nil {
		t.Fatal(err)
	}
}

// TestPooledRunsMatchFreshEnclave: an AE recycling one pooled instance
// across runs serves sequence-ordered records whose usage logs equal the
// first run of a newly built AE (a never-used instance) on the same input.
func TestPooledRunsMatchFreshEnclave(t *testing.T) {
	run := func(ae *core.AccountingEnclave, arg uint64) core.RunResult {
		t.Helper()
		res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{arg}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pooled, _ := newTestAE(t, sgx.ModeSimulation)
	defer pooled.Close()
	if err := pooled.SetPoolConfig(interp.PoolConfig{Prewarm: 1}); err != nil {
		t.Fatal(err)
	}
	pooled.SetLedgerOptions(accounting.LedgerOptions{Shards: 1})
	for i, arg := range []uint64{7, 40, 7} {
		fresh, _ := newTestAE(t, sgx.ModeSimulation)
		want := run(fresh, arg)
		fresh.Close()
		got := run(pooled, arg)
		if got.Receipt.Shard != 0 || got.Receipt.Sequence != uint64(i) {
			t.Errorf("run %d landed at %d/%d", i, got.Receipt.Shard, got.Receipt.Sequence)
		}
		if got.Results[0] != want.Results[0] {
			t.Errorf("run %d: sum(%d) = %d on the recycled instance, %d fresh", i, arg, got.Results[0], want.Results[0])
		}
		gotLog, wantLog := got.Record.Log, want.Record.Log
		gotLog.Sequence, wantLog.Sequence = 0, 0
		if gotLog != wantLog {
			t.Errorf("run %d: usage log on the recycled instance %+v, fresh %+v", i, gotLog, wantLog)
		}
	}
}
