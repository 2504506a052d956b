package accounting_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"acctee/internal/accounting"
)

// TestRetentionBoundedResident100k pins the acceptance criterion at the
// ledger level: with MaxResidentRecords = 4096, 100k appends (the gateway
// usage pattern: affinity shard pick, one record per request) keep the
// resident record count bounded — it never exceeds the budget plus one
// in-flight partial segment per shard — while totals, checkpoints and the
// anchored dump stay exactly verifiable.
func TestRetentionBoundedResident100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k appends")
	}
	const (
		total       = 100_000
		maxResident = 4096
		shards      = 4
	)
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{
		Shards:    shards,
		Retention: accounting.RetentionPolicy{MaxResidentRecords: maxResident},
	})
	defer l.Close()
	segRecords := maxResident / (2 * shards) // the documented default
	bound := maxResident + shards*segRecords + 64

	peak := 0
	for i := 0; i < total; i++ {
		if _, _, err := l.Append(logFor(i%5, i)); err != nil {
			t.Fatal(err)
		}
		if r := l.Resident(); r > peak {
			peak = r
		}
	}
	if peak > bound {
		t.Fatalf("resident records peaked at %d, bound %d (budget %d)", peak, bound, maxResident)
	}
	if peak < maxResident/2 {
		t.Fatalf("resident peak %d suspiciously low — retention trigger misconfigured?", peak)
	}
	t.Logf("resident peak %d (budget %d, bound %d), final resident %d", peak, maxResident, bound, l.Resident())

	// The live totals survived every compaction via lane carry-forward.
	if got := l.Totals().Sequence; got != total {
		t.Fatalf("live totals cover %d records, want %d", got, total)
	}
	sc, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Checkpoint.Covered() != total {
		t.Fatalf("checkpoint covers %d, want %d", sc.Checkpoint.Covered(), total)
	}
	// Without a spill directory the sealed records were dropped, so the dump
	// is anchored: a non-zero starting sequence verified against the anchor
	// signature.
	d, err := l.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if d.Anchor == nil {
		t.Fatal("post-compaction memory-store dump is not anchored")
	}
	res, err := accounting.VerifyDump(d, accounting.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anchored || res.StartRecords == 0 {
		t.Fatalf("verification did not see the anchor: %+v", res)
	}
	if res.Totals != sc.Checkpoint.Totals {
		t.Fatalf("cumulative verified totals %+v != checkpoint totals %+v", res.Totals, sc.Checkpoint.Totals)
	}
	if res.StartRecords+uint64(res.Records) != total {
		t.Fatalf("carried %d + dumped %d != %d appended", res.StartRecords, res.Records, total)
	}
}

// TestRetentionSpillRoundTrip exercises the spill directory end to end
// under concurrent appends: spill on compaction, receipt lookup of spilled
// records, the streaming full dump (spilled frames + resident tail), the
// truncated dump, and spill-directory verification.
func TestRetentionSpillRoundTrip(t *testing.T) {
	const (
		goroutines = 4
		each       = 1250
		total      = goroutines * each
	)
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{
		Shards: 2,
		Retention: accounting.RetentionPolicy{
			MaxResidentRecords: 256,
			SegmentRecords:     32,
			SpillDir:           t.TempDir(),
		},
	})
	defer l.Close()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := l.Append(logFor(g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if spilled := l.SpilledRecords(); spilled != total {
		t.Fatalf("spilled %d records, want %d after full compaction", spilled, total)
	}
	if l.Resident() != 0 {
		t.Fatalf("resident %d after full compaction, want 0", l.Resident())
	}

	// Spilled records stay receipt-addressable through the frame index.
	rec, ok := l.Record(0, 3)
	if !ok || rec.Shard != 0 || rec.Log.Sequence != 3 {
		t.Fatalf("spilled Record(0,3) = %+v, %v", rec, ok)
	}
	if rec.Hash != rec.ComputeHash() {
		t.Fatal("spilled record hash does not recompute")
	}

	// A tail appended after compaction chains onto the carried-forward
	// heads; the full streaming dump replays spilled frames + tail.
	for i := 0; i < 37; i++ {
		if _, _, err := l.Append(logFor(9, i)); err != nil {
			t.Fatal(err)
		}
	}
	var full bytes.Buffer
	if err := l.WriteDump(&full, accounting.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := accounting.VerifyReader(bytes.NewReader(full.Bytes()), accounting.VerifyOptions{})
	if err != nil {
		t.Fatalf("full streamed dump: %v", err)
	}
	if res.Records != total+37 || res.Anchored {
		t.Fatalf("full dump replayed %d records (anchored=%v), want %d unanchored", res.Records, res.Anchored, total+37)
	}
	if lt := l.Totals(); res.Totals != lt {
		t.Fatalf("verified totals %+v != live totals %+v", res.Totals, lt)
	}

	// The truncated dump starts at the anchor's non-zero sequences.
	var trunc bytes.Buffer
	if err := l.WriteDump(&trunc, accounting.DumpOptions{Truncated: true}); err != nil {
		t.Fatal(err)
	}
	tres, err := accounting.VerifyReader(bytes.NewReader(trunc.Bytes()), accounting.VerifyOptions{})
	if err != nil {
		t.Fatalf("truncated streamed dump: %v", err)
	}
	if !tres.Anchored || tres.StartRecords != total || tres.Records != 37 {
		t.Fatalf("truncated dump: anchored=%v start=%d records=%d, want true/%d/37",
			tres.Anchored, tres.StartRecords, tres.Records, total)
	}
	if tres.Totals != res.Totals {
		t.Fatalf("truncated cumulative totals %+v != full totals %+v", tres.Totals, res.Totals)
	}

	// The in-memory Dump agrees with the stream.
	d, err := l.Dump()
	if err != nil {
		t.Fatal(err)
	}
	dres, err := accounting.VerifyDump(d, accounting.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *dres != *res {
		t.Fatalf("VerifyDump %+v != VerifyReader %+v", dres, res)
	}

	// The spill directory itself verifies (frames re-hashed against the
	// persisted checkpoint chain).
	sres, err := accounting.VerifySpillDir(l.Options().Retention.SpillDir, accounting.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Records != total {
		t.Fatalf("spill verification replayed %d records, want %d", sres.Records, total)
	}
}

// TestTruncatedDumpTamperDetection drives the verifier's anchored-dump
// checks through semantic mutations: the carried-forward start is only
// trustworthy because every piece is bound to the anchor's signature.
func TestTruncatedDumpTamperDetection(t *testing.T) {
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{
		Shards:    2,
		Retention: accounting.RetentionPolicy{MaxResidentRecords: 16, SegmentRecords: 4},
	})
	defer l.Close()
	for i := 0; i < 60; i++ {
		if _, _, err := l.Append(logFor(2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := l.Append(logFor(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A second post-anchor checkpoint (kept below the auto-compaction
	// trigger so the anchor does not advance past the first one) gives the
	// pruning cases below a mid-chain checkpoint to drop.
	for i := 10; i < 14; i++ {
		if _, _, err := l.Append(logFor(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base, err := l.DumpTruncated()
	if err != nil {
		t.Fatal(err)
	}
	if base.Anchor == nil || len(base.Records) == 0 || len(base.Checkpoints) == 0 {
		t.Fatalf("unexpected truncated dump shape: anchor=%v records=%d checkpoints=%d",
			base.Anchor != nil, len(base.Records), len(base.Checkpoints))
	}
	if _, err := accounting.VerifyDump(base, accounting.VerifyOptions{}); err != nil {
		t.Fatalf("pristine truncated dump: %v", err)
	}
	var container bytes.Buffer
	if err := l.WriteDump(&container, accounting.DumpOptions{Truncated: true}); err != nil {
		t.Fatal(err)
	}
	reparse := func() *accounting.Dump { return readDump(t, container.Bytes()) }
	cases := []struct {
		name   string
		mutate func(*accounting.Dump)
	}{
		{"shrink the anchor's carried count", func(d *accounting.Dump) {
			d.Anchor.Checkpoint.Heads[0].Count--
		}},
		{"swap the anchor's carried head", func(d *accounting.Dump) {
			d.Anchor.Checkpoint.Heads[0].Head[5] ^= 1
		}},
		{"undercharge the anchor totals", func(d *accounting.Dump) {
			d.Anchor.Checkpoint.Totals.WeightedInstructions /= 2
		}},
		{"drop the first tail record", func(d *accounting.Dump) {
			d.Records = d.Records[1:]
		}},
		{"undercharge a tail record", func(d *accounting.Dump) {
			d.Records[0].Log.WeightedInstructions = 0
		}},
		{"detach the post-anchor checkpoint", func(d *accounting.Dump) {
			d.Checkpoints[0].Checkpoint.PrevHash[0] ^= 1
		}},
		{"strip the anchor entirely", func(d *accounting.Dump) {
			d.Anchor = nil
		}},
		{"smuggle a checkpoint gap without declaring pruning", func(d *accounting.Dump) {
			// Dropping a mid-chain checkpoint breaks adjacency; only a
			// chain that declares pruning may skip sequences.
			d.Checkpoints = d.Checkpoints[1:]
		}},
		{"tamper a retained checkpoint in a pruned chain", func(d *accounting.Dump) {
			// Declared pruning relaxes chain ADJACENCY only — every
			// retained checkpoint is still signature-checked, so a
			// flipped byte in its totals must still be caught.
			d.Pruned = true
			d.Checkpoints = d.Checkpoints[1:]
			d.Checkpoints[0].Checkpoint.Totals.IOBytesIn++
		}},
	}
	for _, tc := range cases {
		d := reparse()
		tc.mutate(d)
		if _, err := accounting.VerifyDump(d, accounting.VerifyOptions{}); err == nil {
			t.Errorf("%s: tampered truncated dump verified", tc.name)
		}
	}

	// The positive control for the pruned cases above: the same dropped
	// checkpoint IS tolerated when the dump declares pruning — and the
	// verifier reports exactly how many gaps it accepted on that basis.
	d := reparse()
	d.Pruned = true
	d.Checkpoints = d.Checkpoints[1:]
	res, err := accounting.VerifyDump(d, accounting.VerifyOptions{})
	if err != nil {
		t.Fatalf("declared-pruned dump with a checkpoint gap: %v", err)
	}
	if res.PrunedCheckpointGaps != 1 {
		t.Fatalf("pruned dump reported %d checkpoint gaps, want 1", res.PrunedCheckpointGaps)
	}
}

// TestFreshLedgerAllocBudget pins what a per-deployment ledger costs: a
// lane's first segment starts small, so creating a ledger, appending one
// record and closing it allocates a few KB, not a whole 1,024-record
// segment (~200 KB) per lane touched.
func TestFreshLedgerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the ledger's")
	}
	e := newEnclave(t)
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		l := newTestLedger(t, e, accounting.LedgerOptions{})
		if _, _, err := l.Append(sampleLog()); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d B allocated per fresh ledger with one record", per)
	if per >= 16<<10 {
		t.Errorf("%d B allocated per NewLedger + Append + Close, budget 16 KiB", per)
	}
}
