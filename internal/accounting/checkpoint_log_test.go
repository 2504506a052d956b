package accounting

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointLogShrinksAtKeepEvery2: with every 2nd checkpoint kept,
// half the log survives each prune, yet the persisted log must still be
// rewritten — across 400 compactions it never holds more than 1.5 lines
// per checkpoint the ledger retains, plus 16, and it ends far shorter than
// the 400 checkpoints signed. At K = 4 the bound holds as well.
func TestCheckpointLogShrinksAtKeepEvery2(t *testing.T) {
	e := codecEnclave(t)
	for _, k := range []int{2, 4} {
		dir := t.TempDir()
		l, err := NewLedger(e, LedgerOptions{
			Shards:    2,
			Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir, CheckpointKeepEvery: k},
		})
		if err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(dir, checkpointsName)
		var lines, retained int
		for i := 0; i < 400; i++ {
			if _, _, err := l.AppendShard(uint32(i%2), codecLog(i)); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			lines = bytes.Count(raw, []byte{'\n'})
			l.cpMu.Lock()
			retained = len(l.checkpoints)
			l.cpMu.Unlock()
			if 2*lines > 3*retained+32 {
				t.Fatalf("K=%d, compaction %d: the log holds %d lines for %d retained checkpoints", k, i, lines, retained)
			}
		}
		l.Close()
		t.Logf("K=%d: %d log lines, %d checkpoints retained after 400 compactions", k, lines, retained)
		if lines >= 400*2/3 {
			t.Fatalf("K=%d: the log holds %d lines after 400 compactions", k, lines)
		}
	}
}
