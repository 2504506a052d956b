package accounting_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acctee/internal/accounting"
	"acctee/internal/fault"
	"acctee/internal/sgx"
)

// TestCrashRecoveryDifferential pins the crash path: write records with
// spill enabled, checkpoint and compact mid-stream, keep appending, then
// fire the fault injector's crash point — every later injected write,
// sync, or truncate fails without touching the files, so the directory
// holds a faithful crash image with the resident tail lost even though
// the process shuts down in an orderly way. Reopening the spill
// directory must rebuild per-shard heads,
// sequences and totals to exactly the state the last compaction anchor's
// signature vouches for; a post-anchor checkpoint that covered the lost
// tail must be discarded; and the recovered ledger must keep chaining —
// new records, new checkpoints, and a full from-genesis dump that
// verifies across the crash boundary.
func TestCrashRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()
	e := newEnclave(t)
	opts := accounting.LedgerOptions{
		Shards: 2,
		Retention: accounting.RetentionPolicy{
			MaxResidentRecords: 1 << 20, // no auto-trigger: compaction points are explicit
			SegmentRecords:     8,
			SpillDir:           dir,
		},
	}
	inj := fault.New()
	crashOpts := opts
	crashOpts.Faults = inj
	l1, err := accounting.NewLedger(e, crashOpts)
	if err != nil {
		t.Fatal(err)
	}

	const sealed = 100
	for i := 0; i < sealed; i++ {
		if _, _, err := l1.Append(logFor(1, i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if _, err := l1.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	comp, err := l1.Compact()
	if err != nil {
		t.Fatal(err)
	}
	anchor := comp.Checkpoint
	if got := anchor.Checkpoint.Covered(); got != sealed {
		t.Fatalf("compaction anchor covers %d, want %d", got, sealed)
	}
	// The doomed tail: appended after the seal, resident only. One more
	// checkpoint covers it — persisted, but its records never spill, so
	// recovery must discard it.
	for i := 0; i < 30; i++ {
		if _, _, err := l1.Append(logFor(7, i)); err != nil {
			t.Fatal(err)
		}
	}
	doomed, err := l1.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if doomed.Checkpoint.Sequence <= anchor.Checkpoint.Sequence {
		t.Fatalf("post-anchor checkpoint sequence %d not past anchor %d",
			doomed.Checkpoint.Sequence, anchor.Checkpoint.Sequence)
	}
	// Spill writes are asynchronous since the group-commit writer; Anchor
	// is the documented drain barrier, making the sealed prefix durable
	// before the simulated crash (a real crash can of course also lose
	// enqueued frames — that torn-tail path is pinned by
	// TestRecoveryFallsBackToFrameAlignedAnchor and the mid-group-commit
	// recovery test).
	l1.Anchor()
	// CRASH: the injector enters the dead state, so nothing — not even the
	// orderly Close below — can touch the spill files again. The resident
	// tail is lost exactly as a power cut would lose it, while file
	// handles and writer goroutines still wind down cleanly (the leak
	// checks stay meaningful).
	inj.Crash()
	l1.Close()

	l2, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l2.Close()

	// The discarded checkpoint is surfaced, and the recovered chain state
	// is exactly the anchor's: an idle checkpoint request returns the
	// anchor itself (same heads), rather than signing anything new.
	if dropped := l2.Recovered(); dropped != 1 {
		t.Fatalf("recovery discarded %d checkpoints, want 1 (the post-anchor one)", dropped)
	}
	sc, err := l2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Checkpoint.Sequence != anchor.Checkpoint.Sequence {
		t.Fatalf("recovered checkpoint sequence %d, want anchor %d", sc.Checkpoint.Sequence, anchor.Checkpoint.Sequence)
	}
	for i := range sc.Checkpoint.Heads {
		if sc.Checkpoint.Heads[i] != anchor.Checkpoint.Heads[i] {
			t.Fatalf("recovered head of shard %d %+v != anchor %+v", i, sc.Checkpoint.Heads[i], anchor.Checkpoint.Heads[i])
		}
	}
	if sc.Checkpoint.Totals != anchor.Checkpoint.Totals {
		t.Fatalf("recovered totals %+v != anchor totals %+v", sc.Checkpoint.Totals, anchor.Checkpoint.Totals)
	}
	if lt := l2.Totals(); lt != anchor.Checkpoint.Totals {
		t.Fatalf("recovered live totals %+v != anchor totals %+v", lt, anchor.Checkpoint.Totals)
	}
	if res := l2.Resident(); res != 0 {
		t.Fatalf("recovered ledger has %d resident records, want 0 (tail was lost)", res)
	}
	// Spilled records are reachable; the lost tail is not.
	if _, ok := l2.Record(0, 0); !ok {
		t.Fatal("spilled record 0/0 unreachable after recovery")
	}
	lost := anchor.Checkpoint.Heads[0].Count
	if _, ok := l2.Record(0, lost); ok {
		t.Fatalf("record 0/%d survived the crash but was never spilled", lost)
	}

	// The recovered ledger keeps chaining: sequences continue at the
	// carried-forward counts, new checkpoints extend the persisted chain,
	// and the full dump verifies from genesis across the crash.
	rcpt, rec, err := l2.AppendShard(0, logFor(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Sequence != anchor.Checkpoint.Heads[0].Count {
		t.Fatalf("post-recovery sequence %d, want carry-forward %d", rcpt.Sequence, anchor.Checkpoint.Heads[0].Count)
	}
	if rec.PrevHash != anchor.Checkpoint.Heads[0].Head {
		t.Fatal("post-recovery record does not chain to the anchor's carried-forward head")
	}
	for i := 1; i < 20; i++ {
		if _, _, err := l2.Append(logFor(3, i)); err != nil {
			t.Fatal(err)
		}
	}
	next, err := l2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if next.Checkpoint.Sequence != anchor.Checkpoint.Sequence+1 {
		t.Fatalf("post-recovery checkpoint sequence %d, want %d", next.Checkpoint.Sequence, anchor.Checkpoint.Sequence+1)
	}
	if next.Checkpoint.PrevHash != anchor.Checkpoint.Hash() {
		t.Fatal("post-recovery checkpoint does not chain from the anchor")
	}

	var full bytes.Buffer
	if err := l2.WriteDump(&full, accounting.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := accounting.VerifyReader(bytes.NewReader(full.Bytes()), accounting.VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("post-recovery full dump: %v", err)
	}
	if res.Records != sealed+20 {
		t.Fatalf("post-recovery dump replayed %d records, want %d", res.Records, sealed+20)
	}
	if res.CoveredRecords != uint64(sealed+20) {
		t.Fatalf("post-recovery checkpoint covers %d, want %d", res.CoveredRecords, sealed+20)
	}
	// And the spill directory itself verifies after another compaction
	// (Anchor drains the async writer so the seal is on disk).
	if _, err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	l2.Anchor()
	sres, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Records != sealed+20 {
		t.Fatalf("spill verification replayed %d records, want %d", sres.Records, sealed+20)
	}
}

// TestRecoveryRejectsForeignIdentity: a spill directory belongs to one
// enclave identity; reopening it with a different key must fail rather
// than silently forking the chain.
func TestRecoveryRejectsForeignIdentity(t *testing.T) {
	dir := t.TempDir()
	opts := accounting.LedgerOptions{
		Shards:    1,
		Retention: accounting.RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	l1, err := accounting.NewLedger(newEnclave(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l1.Append(logFor(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Compact(); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	if _, err := accounting.NewLedger(newEnclave(t), opts); err == nil {
		t.Fatal("spill directory of a different enclave identity reopened without error")
	}
}

// TestRecoveryRefusesCorruptCheckpointLog: a corrupted checkpoint log must
// fail recovery loudly — never silently truncate intact, signature-covered
// segment files down to the (empty) parseable checkpoint prefix.
func TestRecoveryRefusesCorruptCheckpointLog(t *testing.T) {
	dir := t.TempDir()
	e := newEnclave(t)
	opts := accounting.LedgerOptions{
		Shards:    2,
		Retention: accounting.RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	l1, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit alternating shards: the test stats both shard files, so the
	// populate must not depend on the affinity pick's lane choice.
	for i := 0; i < 10; i++ {
		if _, _, err := l1.AppendShard(uint32(i%2), logFor(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l1.Compact(); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	segSizes := map[string]int64{}
	for _, name := range []string{"shard-0000.seg", "shard-0001.seg"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s empty before corruption — test setup broken", name)
		}
		segSizes[name] = fi.Size()
	}
	cpPath := filepath.Join(dir, "checkpoints.jsonl")
	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] = 'X' // first checkpoint line no longer parses
	if err := os.WriteFile(cpPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := accounting.NewLedger(e, opts); err == nil {
		t.Fatal("recovery accepted a spill dir whose checkpoint log is corrupt")
	}
	// The refusal must leave the segment files untouched.
	for name, want := range segSizes {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != want {
			t.Fatalf("%s truncated from %d to %d bytes by a REFUSED recovery", name, want, fi.Size())
		}
	}
}

// TestRecoveryFallsBackToFrameAlignedAnchor: a torn multi-shard seal can
// leave the newest contained checkpoint mid-frame on some shard (periodic
// checkpoints sign between seals, so their counts need not be frame
// boundaries). Recovery must fall back to the newest checkpoint that is
// both contained AND frame-aligned instead of failing forever.
func TestRecoveryFallsBackToFrameAlignedAnchor(t *testing.T) {
	dir := t.TempDir()
	e := newEnclave(t)
	opts := accounting.LedgerOptions{
		Shards:    2,
		Retention: accounting.RetentionPolicy{SegmentRecords: 2, SpillDir: dir},
	}
	l1, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(shard uint32, n int) {
		for i := 0; i < n; i++ {
			if _, _, err := l1.AppendShard(shard, logFor(int(shard), i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(0, 2)
	appendN(1, 2)
	compB, err := l1.Compact() // seal B at (2,2): frames s0:[0,2) s1:[0,2)
	if err != nil {
		t.Fatal(err)
	}
	appendN(0, 2)
	if _, err := l1.Checkpoint(); err != nil { // periodic C at (4,2): persisted, never sealed
		t.Fatal(err)
	}
	appendN(0, 2)
	appendN(1, 2)
	if _, err := l1.Compact(); err != nil { // seal D at (6,4): frames s0:[2,6) s1:[2,4)
		t.Fatal(err)
	}
	l1.Close()

	// Tear shard 1's D frame off, as a crash between Seal's per-shard
	// writes would: shard 0 now ends at 6 (frame ends {2,6}), shard 1 at 2.
	// D (6,4) is uncontained; C (4,2) is contained but 4 is mid-frame on
	// shard 0; B (2,2) is the newest frame-aligned anchor.
	segPath := filepath.Join(dir, "shard-0001.seg")
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// First binary frame = u32 length prefix + payload + u32 CRC.
	if len(raw) < 8 {
		t.Fatalf("expected two frames in %s", segPath)
	}
	end := 4 + int(binary.LittleEndian.Uint32(raw[:4])) + 4
	if end >= len(raw) {
		t.Fatalf("expected two frames in %s", segPath)
	}
	if err := os.WriteFile(segPath, raw[:end], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatalf("recovery failed instead of falling back to the aligned anchor: %v", err)
	}
	defer l2.Close()
	if dropped := l2.Recovered(); dropped != 2 {
		t.Fatalf("recovery discarded %d checkpoints, want 2 (C and D)", dropped)
	}
	sc, err := l2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Checkpoint.Heads {
		if sc.Checkpoint.Heads[i] != compB.Checkpoint.Checkpoint.Heads[i] {
			t.Fatalf("recovered head of shard %d %+v != aligned anchor B %+v",
				i, sc.Checkpoint.Heads[i], compB.Checkpoint.Checkpoint.Heads[i])
		}
	}
	// And the surviving spill still verifies end to end.
	if _, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{Key: e.PublicKey()}); err != nil {
		t.Fatal(err)
	}
}

// twoSeals returns a cleanly closed two-shard directory holding two seals:
// shard 0 spilled to 4 then 8 records, shard 1 to 3 then 6, and the log a
// mid-round checkpoint (2, 2) ahead of the two sealing ones.
func twoSeals(t *testing.T, e *sgx.Enclave) accounting.LedgerOptions {
	t.Helper()
	opts := accounting.LedgerOptions{
		Shards:    2,
		Retention: accounting.RetentionPolicy{SegmentRecords: 4, SpillDir: t.TempDir()},
	}
	l, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 14; i++ {
		if _, _, err := l.AppendShard(uint32(i%7%2), logFor(i/7, i)); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if _, err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 6 {
			if _, err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Close()
	return opts
}

// rewriteLastCheckpoint rots the last line of dir's checkpoint log.
func rewriteLastCheckpoint(t *testing.T, dir string, rot func(*accounting.SignedCheckpoint)) {
	t.Helper()
	path := filepath.Join(dir, "checkpoints.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
	var sc accounting.SignedCheckpoint
	if err := json.Unmarshal(raw[start:], &sc); err != nil {
		t.Fatal(err)
	}
	rot(&sc)
	line, err := json.Marshal(&sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append(raw[:start:start], line...), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedRecoveryTouchesNothing: recovery decides before it writes, so
// a directory NewLedger refuses is byte for byte the directory it was
// handed — segment files uncut, log unrewritten, and the manifest not yet
// declaring the pruning the refused ledger asked for.
func TestRefusedRecoveryTouchesNothing(t *testing.T) {
	e := newEnclave(t)
	for _, row := range []struct {
		name    string
		damage  func(t *testing.T, dir string)
		foreign bool
		refusal string
	}{
		{name: "count-rotted-to-an-earlier-frame-boundary", damage: func(t *testing.T, dir string) {
			rewriteLastCheckpoint(t, dir, func(sc *accounting.SignedCheckpoint) { sc.Checkpoint.Heads[0].Count = 4 })
		}, refusal: "recovered head of shard 0 does not match the anchoring checkpoint"},
		{name: "head-rotted", damage: func(t *testing.T, dir string) {
			rewriteLastCheckpoint(t, dir, func(sc *accounting.SignedCheckpoint) { sc.Checkpoint.Heads[1].Head[0] ^= 1 })
		}, refusal: "recovered head of shard 1 does not match the anchoring checkpoint"},
		{name: "totals-rotted", damage: func(t *testing.T, dir string) {
			rewriteLastCheckpoint(t, dir, func(sc *accounting.SignedCheckpoint) { sc.Checkpoint.Totals.WeightedInstructions++ })
		}, refusal: "recovered totals do not match the anchoring checkpoint"},
		{name: "log-does-not-cover-the-frames", damage: func(t *testing.T, dir string) {
			// Only the mid-round checkpoint is left: it reaches back to
			// sequence 0 but covers fewer records than the frames hold.
			path := filepath.Join(dir, "checkpoints.jsonl")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:bytes.IndexByte(raw, '\n')+1], 0o644); err != nil {
				t.Fatal(err)
			}
		}, refusal: "no persisted checkpoint anchors them"},
		{name: "log-deleted", damage: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "checkpoints.jsonl")); err != nil {
				t.Fatal(err)
			}
		}, refusal: "no persisted checkpoint anchors them"},
		{name: "foreign-identity", damage: func(*testing.T, string) {}, foreign: true,
			refusal: "different enclave identity"},
		{name: "v1-manifest", damage: func(t *testing.T, dir string) {
			path := filepath.Join(dir, "MANIFEST.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			v1 := bytes.Replace(raw, []byte(accounting.SpillFormatV2), []byte("acctee-spill/v1"), 1)
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
		}, refusal: "only \"" + accounting.SpillFormatV2 + "\" is supported"},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := twoSeals(t, e)
			dir := opts.Retention.SpillDir
			row.damage(t, dir)
			before := readDir(t, dir)
			opener := e
			if row.foreign {
				opener = newEnclave(t)
			}
			opts.Retention.CheckpointKeepEvery = 2 // a refused open declares nothing either
			l, err := accounting.NewLedger(opener, opts)
			if err == nil {
				l.Close()
				t.Fatal("NewLedger opened the directory")
			}
			if !strings.Contains(err.Error(), row.refusal) {
				t.Fatalf("refused with %q, want %q", err, row.refusal)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
				for name := range after {
					if !bytes.Equal(after[name], before[name]) {
						t.Errorf("%s: %d bytes before the refused recovery, %d after", name, len(before[name]), len(after[name]))
					}
				}
				t.Fatal("a REFUSED recovery modified the directory")
			}
		})
	}
}

// TestReopenChangesNothing: recovery is idempotent. Reopening a cleanly
// closed directory writes no byte of any file, and neither does reopening
// one a recovery has just cut: a directory whose log ends in half a line
// (which the recovery cuts, leaving exactly the directory before the
// tear), and one whose second seal also lost a shard's frame.
func TestReopenChangesNothing(t *testing.T) {
	e := newEnclave(t)
	const tornLine = `{"checkpoint":{"sequence":3,"pr`
	for _, row := range []struct {
		name      string
		tornFrame bool
		tornLog   bool
		spilled   uint64
	}{
		{name: "cleanly-closed", spilled: 14},
		{name: "torn-log-line", tornLog: true, spilled: 14},
		{name: "torn-frame-and-log-line", tornFrame: true, tornLog: true, spilled: 7},
	} {
		t.Run(row.name, func(t *testing.T) {
			opts := twoSeals(t, e)
			dir := opts.Retention.SpillDir
			clean := readDir(t, dir)
			if row.tornFrame {
				if err := os.Truncate(filepath.Join(dir, "shard-0001.seg"), int64(len(clean["shard-0001.seg"])-9)); err != nil {
					t.Fatal(err)
				}
			}
			if row.tornLog {
				torn := append(append([]byte(nil), clean["checkpoints.jsonl"]...), tornLine...)
				if err := os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), torn, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			crashed := readDir(t, dir)
			for _, when := range []string{"first", "second"} {
				l, err := accounting.NewLedger(e, opts)
				if err != nil {
					t.Fatalf("%s reopen: %v", when, err)
				}
				if got := l.SpilledRecords(); got != row.spilled {
					t.Fatalf("%s reopen finds %d spilled records, want %d", when, got, row.spilled)
				}
				l.Close()
				now := readDir(t, dir)
				switch same := reflect.DeepEqual(now, crashed); {
				case when == "second" && !same:
					t.Fatal("reopening a just-opened directory changed it")
				case when == "first" && row.tornLog && same:
					t.Fatal("the recovery that found a torn log line left it in place")
				case !row.tornFrame && !reflect.DeepEqual(now, clean):
					t.Fatal("reopening did not leave exactly the cleanly closed directory")
				}
				crashed = now
			}
		})
	}
}
