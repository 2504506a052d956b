package accounting_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"acctee/internal/accounting"
	"acctee/internal/fault"
	"acctee/internal/sgx"
)

// reopenAndContinue is what every crash image must survive: the offline
// verifier accepts it as it lies, NewLedger reopens it anchored at exactly
// what is spilled, the reopened ledger appends and compacts twice and
// closes into a directory that verifies again — and a second reopen finds
// everything the first one sealed: whatever the crash tore, the recovery
// that found it also cut it. It returns the first reopened ledger's
// dropped-checkpoint count.
func reopenAndContinue(t *testing.T, e *sgx.Enclave, opts accounting.LedgerOptions) int {
	t.Helper()
	dir := opts.Retention.SpillDir
	verify := accounting.VerifyOptions{Key: e.PublicKey()}
	if _, err := accounting.VerifySpillDir(dir, verify); err != nil {
		t.Fatalf("VerifySpillDir on the crash image: %v", err)
	}
	opts.Faults = nil
	l, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	spilled := l.SpilledRecords()
	var covered uint64
	var totals accounting.UsageLog
	if a, ok := l.Anchor(); ok {
		covered, totals = a.Checkpoint.Covered(), a.Checkpoint.Totals
	}
	if covered != spilled {
		t.Fatalf("recovered anchor covers %d records, %d are spilled", covered, spilled)
	}
	if got := l.Totals(); got != totals {
		t.Fatalf("recovered totals %+v, the anchor vouches for %+v", got, totals)
	}
	const more = 9
	for i := 0; i < more; i++ {
		if _, _, err := l.AppendShard(uint32(i%2), logFor(99, i)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if i == 4 || i == more-1 {
			if _, err := l.Compact(); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
		}
	}
	dropped := l.Recovered()
	l.Close()
	verified := func(when string) {
		t.Helper()
		res, err := accounting.VerifySpillDir(dir, verify)
		if err != nil {
			t.Fatalf("VerifySpillDir %s: %v", when, err)
		}
		if uint64(res.Records) != spilled+more || res.BeyondHorizon != 0 {
			t.Fatalf("%s the directory replays %d records (%d checkpoints beyond the horizon), want %d and 0",
				when, res.Records, res.BeyondHorizon, spilled+more)
		}
	}
	verified("after recovery and two more seals")
	l2, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if got := l2.SpilledRecords(); got != spilled+more || l2.Recovered() != 0 {
		t.Fatalf("second reopen finds %d spilled records and drops %d checkpoints, want %d (what the first reopen sealed) and 0",
			got, l2.Recovered(), spilled+more)
	}
	l2.Close()
	verified("after the second reopen")
	return dropped
}

// TestSpillCrashSweep crashes a fixed spill workload at every write it
// makes, with every tear length that matters (nothing, inside the length
// prefix, inside the payload, most of a checkpoint line, the whole
// buffer), and requires reopenAndContinue of each image. The workload
// drains after every compaction, so write ordinals are the same on every
// run: a checkpoint line, then one frame per shard (in either order).
// The second variant declares checkpoint pruning in the manifest, so
// recovery reads the log under the gap-tolerant rule.
func TestSpillCrashSweep(t *testing.T) {
	e := newEnclave(t)
	// workload runs until it is done or the injector has crashed.
	workload := func(t *testing.T, l *accounting.Ledger, inj *fault.Injector) {
		n := 0
		for round := 0; round < 6; round++ {
			for i := 0; i < 7; i++ {
				if _, _, err := l.AppendShard(uint32(i%2), logFor(round, n)); err != nil {
					t.Fatal(err) // appends never touch the disk
				}
				n++
				if i == 3 && round%2 == 1 {
					_, _ = l.Checkpoint() // fails once crashed
				}
				if inj.Crashed() {
					return
				}
			}
			_, _ = l.Compact() // fails once crashed
			_ = l.Store().Drain()
			if inj.Crashed() {
				return
			}
		}
	}
	for _, keepEvery := range []int{0, 2} {
		opts := func(dir string, inj *fault.Injector) accounting.LedgerOptions {
			return accounting.LedgerOptions{
				Shards: 2,
				Retention: accounting.RetentionPolicy{
					SegmentRecords: 4, SpillDir: dir, CheckpointKeepEvery: keepEvery,
				},
				Faults: inj,
			}
		}
		counter := fault.New()
		l, err := accounting.NewLedger(e, opts(t.TempDir(), counter))
		if err != nil {
			t.Fatal(err)
		}
		workload(t, l, counter)
		l.Close()
		writes := counter.Writes()
		if writes < 18 {
			t.Fatalf("keep-every %d: the workload made %d writes, want at least 6 checkpoints and 12 frames", keepEvery, writes)
		}
		for k := uint64(1); k <= writes; k++ {
			for _, tear := range []int{0, 1, 3, 7, 64, 1 << 30} {
				t.Run(fmt.Sprintf("keep%d/write%d/tear%d", keepEvery, k, tear), func(t *testing.T) {
					dir := t.TempDir()
					inj := fault.New()
					inj.CrashOnWrite(k, tear)
					l, err := accounting.NewLedger(e, opts(dir, inj))
					if err != nil {
						t.Fatal(err)
					}
					workload(t, l, inj)
					l.Close()
					if !inj.Crashed() {
						t.Fatalf("write %d of %d never happened", k, writes)
					}
					reopenAndContinue(t, e, opts(dir, nil))
				})
			}
		}
	}
}

// TestSpillCrashSweepReachesLogRewrite sweeps the one spill write the
// workload above never makes: the checkpoint-log rewrite of a prune. One
// append per compaction until the prune has its pruneDrainMin droppable
// checkpoints and the lines a rewrite would drop outnumber half the
// survivors plus 16. That happens at every keep-every above 1
// (TestCheckpointLogShrinksAtKeepEvery2 pins K = 2); keep-every 4 drops
// three checkpoints in four, so the rewrite comes after fewer compactions
// than at 2. A counting run learns the rewrite's
// write ordinal (the log is shorter after the compaction that made it);
// the sweep then crashes at that write, the two before it (the
// compaction's checkpoint line and frame) and the three after, with every
// tear length, and requires reopenAndContinue of each image — which prunes
// and rewrites again.
func TestSpillCrashSweepReachesLogRewrite(t *testing.T) {
	e := newEnclave(t)
	opts := func(dir string, inj *fault.Injector) accounting.LedgerOptions {
		return accounting.LedgerOptions{
			Shards:    2,
			Retention: accounting.RetentionPolicy{SegmentRecords: 4, SpillDir: dir, CheckpointKeepEvery: 4},
			Faults:    inj,
		}
	}
	// workload compacts after every append until the injector has crashed
	// or the log has been rewritten and two more compactions have followed;
	// it returns the write count right after the rewrite (0 if none).
	workload := func(t *testing.T, l *accounting.Ledger, inj *fault.Injector) (rewriteAt uint64) {
		logPath := filepath.Join(l.Options().Retention.SpillDir, "checkpoints.jsonl")
		var size int64
		for i, after := 0, 0; i < 400 && after < 2 && !inj.Crashed(); i++ {
			if _, _, err := l.AppendShard(uint32(i%2), logFor(i, i)); err != nil {
				t.Fatal(err)
			}
			_, _ = l.Compact() // fails once crashed
			_ = l.Store().Drain()
			fi, err := os.Stat(logPath)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case rewriteAt > 0:
				after++
			case fi.Size() < size:
				rewriteAt = inj.Writes()
			}
			size = fi.Size()
		}
		return rewriteAt
	}
	counter := fault.New()
	l, err := accounting.NewLedger(e, opts(t.TempDir(), counter))
	if err != nil {
		t.Fatal(err)
	}
	rewriteAt := workload(t, l, counter)
	l.Close()
	if rewriteAt < 3 || counter.Writes() < rewriteAt+3 {
		t.Fatalf("the workload rewrote the log at write %d of %d, want a rewrite with two writes before and three after it", rewriteAt, counter.Writes())
	}
	for k := rewriteAt - 2; k <= rewriteAt+3; k++ {
		for _, tear := range []int{0, 1, 3, 7, 64, 1 << 30} {
			t.Run(fmt.Sprintf("rewrite%+d/tear%d", int(k)-int(rewriteAt), tear), func(t *testing.T) {
				dir := t.TempDir()
				inj := fault.New()
				inj.CrashOnWrite(k, tear)
				l, err := accounting.NewLedger(e, opts(dir, inj))
				if err != nil {
					t.Fatal(err)
				}
				workload(t, l, inj)
				l.Close()
				if !inj.Crashed() {
					t.Fatalf("write %d never happened", k)
				}
				reopenAndContinue(t, e, opts(dir, nil))
			})
		}
	}
}

// TestCrashInsideFirstSealRecovers: a crash inside the very first seal
// leaves a checkpoint line and the frames of only some shards. There is no
// earlier anchor to fall back to, but nothing durable is lost by cutting
// back to genesis either — recovery must do that and report the dropped
// checkpoints, not refuse the directory forever. The images are built by
// cutting a shard file of a cleanly sealed directory, which covers both
// orders the two shard writers can land in. (A log that does not cover the
// frames on disk is still refused: TestRefusedRecoveryTouchesNothing.)
func TestCrashInsideFirstSealRecovers(t *testing.T) {
	e := newEnclave(t)
	// seal returns a directory holding one completed first seal; with
	// midRound the log also holds a checkpoint signed before the sealing
	// one, which no frame boundary matches.
	seal := func(t *testing.T, midRound bool) accounting.LedgerOptions {
		opts := accounting.LedgerOptions{
			Shards:    2,
			Retention: accounting.RetentionPolicy{SegmentRecords: 4, SpillDir: t.TempDir()},
		}
		l, err := accounting.NewLedger(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			if _, _, err := l.AppendShard(uint32(i%2), logFor(0, i)); err != nil {
				t.Fatal(err)
			}
			if midRound && i == 3 {
				if _, err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		return opts
	}
	for _, midRound := range []bool{false, true} {
		for lost := 0; lost < 2; lost++ {
			for _, tear := range []int64{0, 7} {
				t.Run(fmt.Sprintf("midround=%v/shard%d-lost/tear%d", midRound, lost, tear), func(t *testing.T) {
					opts := seal(t, midRound)
					seg := filepath.Join(opts.Retention.SpillDir, fmt.Sprintf("shard-%04d.seg", lost))
					if err := os.Truncate(seg, tear); err != nil {
						t.Fatal(err)
					}
					want := 1
					if midRound {
						want = 2
					}
					if dropped := reopenAndContinue(t, e, opts); dropped != want {
						t.Fatalf("Recovered() = %d dropped checkpoints, want %d", dropped, want)
					}
				})
			}
		}
	}
}

// readDir returns every file of dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = raw
	}
	return files
}
