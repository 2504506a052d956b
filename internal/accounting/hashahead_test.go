package accounting

// The hash-ahead stage (verify.go) against the one-record-at-a-time
// replay it replaced: both verifiers must reach the result, and on damaged
// input the error, that a sequential replay reaches — VerifyDump over
// ReadDump for a container, sequentialSpill for a spill directory — on
// ledgers that span many batches, and leave no goroutine behind. WriteDump,
// which copies spilled records out of their frames, must write the bytes a
// container re-encoded from its parsed records holds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// sequentialSpill is the spill-directory replay one record at a time, each
// record decoded, marshalled and hashed in turn: the reference
// VerifySpillDir's stage must agree with.
func sequentialSpill(dir string, opts VerifyOptions) (*VerifyResult, error) {
	m, err := readSpillManifest(dir)
	if err != nil {
		return nil, err
	}
	pub, err := resolveKey(opts, m.PublicKey)
	if err != nil {
		return nil, err
	}
	if err := checkMeasurement(opts, m.Measurement); err != nil {
		return nil, err
	}
	cps, _, err := readSpillCheckpoints(dir, m.Shards, m.Pruned)
	if err != nil {
		return nil, err
	}
	core, err := newVerifyCore(pub, m.Measurement, m.Shards, nil, cps, true, m.Pruned)
	if err != nil {
		return nil, err
	}
	for shard := 0; shard < m.Shards; shard++ {
		var st frameStamp
		_, err := walkFrames(filepath.Join(dir, shardFileName(shard)), func(fr *spillFrame, _, _ int64) error {
			for i := range fr.Records {
				if err := core.replay(&fr.Records[i]); err != nil {
					return err
				}
				aggregate(&st.totals, &fr.Records[i].Log)
				st.head = fr.Records[i].Hash
			}
			if fr.Head != st.head || fr.Totals != st.totals {
				return fmt.Errorf("accounting: spill shard %d: frame head/totals stamp mismatch", shard)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return core.finish()
}

// sequentialDump verifies a container the sequential way: parsed whole,
// then replayed record by record.
func sequentialDump(container []byte, opts VerifyOptions) (*VerifyResult, error) {
	d, err := ReadDump(bytes.NewReader(container))
	if err != nil {
		return nil, err
	}
	return VerifyDump(d, opts)
}

// auditLedger is one ledger of the differential tests: its spill
// directory and a dump container of it.
type auditLedger struct {
	name      string
	dir       string
	container []byte
}

// buildAuditLedgers writes the ledgers the stage is checked on, each
// several batches long: four shards; the same dumped anchored (truncated);
// a pruned checkpoint chain (keep every 3rd); eager per-record signatures;
// and a spill directory whose shard files end in a torn frame, with
// checkpoints beyond what was spilled.
func buildAuditLedgers(t *testing.T) []auditLedger {
	t.Helper()
	e := codecEnclave(t)
	var out []auditLedger
	build := func(name string, opts LedgerOptions, records, cpEvery, tail int, truncated bool, tear func(dir string)) {
		t.Helper()
		dir := t.TempDir()
		opts.Retention.SpillDir = dir
		l, err := NewLedger(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, _, err := l.Append(codecLog(i)); err != nil {
				t.Fatal(err)
			}
			if i%cpEvery == cpEvery-1 {
				if _, err := l.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		// A tail beyond the last seal: resident records in the dump,
		// under a checkpoint the spill directory holds but cannot reach.
		for i := 0; i < tail; i++ {
			if _, _, err := l.Append(codecLog(records + i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var c bytes.Buffer
		if err := l.WriteDump(&c, DumpOptions{Truncated: truncated}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if tear != nil {
			tear(dir)
		}
		out = append(out, auditLedger{name: name, dir: dir, container: c.Bytes()})
	}
	seg := RetentionPolicy{MaxResidentRecords: 700}
	build("multi-shard", LedgerOptions{Shards: 4, Retention: seg}, 5000, 97, 40, false, nil)
	// The truncated dump holds what lies above the anchor: a resident
	// tail longer than a batch.
	build("anchored", LedgerOptions{Shards: 3, Retention: RetentionPolicy{MaxResidentRecords: 4000}}, 3000, 97, 1500, true, nil)
	// Pruning drops checkpoints only below the anchor, 64 at a time
	// (pruneDrainMin), so this chain needs a few hundred of them.
	pruned := seg
	pruned.CheckpointKeepEvery = 3
	build("pruned K=3", LedgerOptions{Shards: 2, Retention: pruned}, 3000, 10, 40, false, nil)
	build("eager-signed", LedgerOptions{Shards: 2, EagerSign: true, Retention: seg}, 2500, 97, 40, false, nil)
	build("torn tail", LedgerOptions{Shards: 2, Retention: seg}, 3000, 97, 40, false, func(dir string) {
		for shard := 0; shard < 2; shard++ {
			path := filepath.Join(dir, shardFileName(shard))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-100], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	})
	return out
}

// sameOutcome fails the test unless the stage's outcome is the
// sequential one: the same result field for field, or the same error.
func sameOutcome(t *testing.T, what string, got *VerifyResult, gotErr error, want *VerifyResult, wantErr error) {
	t.Helper()
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, sequential replay %v", what, gotErr, wantErr)
		}
	case *got != *want:
		t.Fatalf("%s:\n got %+v\nwant %+v", what, *got, *want)
	}
}

// frameSpans returns the offset and size of each whole frame of a shard
// file.
func frameSpans(t *testing.T, path string) (spans [][2]int64) {
	t.Helper()
	if _, err := walkFrameViews(path, func(_ *frameView, off, size int64) error {
		spans = append(spans, [2]int64{off, size})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return spans
}

// reseal rewrites the CRC of the frame at span fr of a shard file's bytes
// to match its payload.
func reseal(b []byte, fr [2]int64) {
	binary.LittleEndian.PutUint32(b[fr[0]+fr[1]-4:], crc32.Checksum(b[fr[0]+4:fr[0]+fr[1]-4], castagnoli))
}

// settledGoroutines waits for the goroutine count to come back to at most
// before (a goroutine that has signalled its exit may still be counted for
// a moment) and returns the count.
func settledGoroutines(before int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestHashAheadMatchesSequentialReplay(t *testing.T) {
	for _, l := range buildAuditLedgers(t) {
		got, gotErr := VerifyReader(bytes.NewReader(l.container), VerifyOptions{})
		dump, wantErr := sequentialDump(l.container, VerifyOptions{})
		if wantErr != nil {
			t.Fatalf("%s: honest container: %v", l.name, wantErr)
		}
		sameOutcome(t, l.name+" container", got, gotErr, dump, wantErr)
		if dump.Records <= aheadRecords {
			t.Fatalf("%s: %d records fit one batch", l.name, dump.Records)
		}

		got, gotErr = VerifySpillDir(l.dir, VerifyOptions{})
		spill, wantErr := sequentialSpill(l.dir, VerifyOptions{})
		if wantErr != nil {
			t.Fatalf("%s: honest spill directory: %v", l.name, wantErr)
		}
		sameOutcome(t, l.name+" spill directory", got, gotErr, spill, wantErr)
		if spill.BeyondHorizon == 0 {
			t.Fatalf("%s: no checkpoint beyond the spill horizon", l.name)
		}
		switch l.name {
		case "anchored":
			if !dump.Anchored {
				t.Fatal("the truncated dump is not anchored")
			}
		case "pruned K=3":
			if dump.PrunedCheckpointGaps == 0 || spill.PrunedCheckpointGaps == 0 {
				t.Fatalf("pruned checkpoint gaps: %d in the dump, %d in the spill directory",
					dump.PrunedCheckpointGaps, spill.PrunedCheckpointGaps)
			}
		case "eager-signed":
			if dump.EagerSignatures != dump.Records || spill.EagerSignatures != spill.Records {
				t.Fatalf("eager signatures: %d of %d dumped records, %d of %d spilled",
					dump.EagerSignatures, dump.Records, spill.EagerSignatures, spill.Records)
			}
		}
	}
}

// TestHashAheadErrorsMatchSequentialReplay flips one byte at seeded
// offsets spread over every batch of a container and of every shard file
// of a spill directory: each verdict is the sequential replay's, and each
// call leaves no goroutine running. Half the spill flips re-seal their
// frame's CRC, so that the records' own checks — hash, link, stamps — see
// the damage, not the frame decoder.
func TestHashAheadErrorsMatchSequentialReplay(t *testing.T) {
	ledgers := buildAuditLedgers(t)
	rng := rand.New(rand.NewSource(36))
	flips := 0
	// verdicts counts outcomes by kind: the test must reach both parse
	// errors and errors of the in-order checks.
	verdicts := map[string]int{}
	tally := func(err error) {
		switch {
		case err == nil:
			verdicts["verified"]++
		case strings.Contains(err.Error(), "CRC") || strings.Contains(err.Error(), "dump"):
			verdicts["parse"]++
		default:
			verdicts["check"]++
		}
	}
	for _, l := range ledgers[:2] {
		for i := 0; i < 40; i++ {
			mut := append([]byte(nil), l.container...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= byte(1 + rng.Intn(255))
			before := runtime.NumGoroutine()
			got, gotErr := VerifyReader(bytes.NewReader(mut), VerifyOptions{})
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%s: VerifyReader left %d goroutines, %d before it", l.name, n, before)
			}
			want, wantErr := sequentialDump(mut, VerifyOptions{})
			sameOutcome(t, fmt.Sprintf("%s container, byte %d of %d", l.name, pos, len(mut)), got, gotErr, want, wantErr)
			tally(gotErr)
			flips++
		}
	}
	for _, l := range []auditLedger{ledgers[0], ledgers[4]} {
		segs, err := filepath.Glob(filepath.Join(l.dir, "shard-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("%s: segment files %v, %v", l.name, segs, err)
		}
		sort.Strings(segs)
		for i := 0; i < 24; i++ {
			path := segs[i%len(segs)]
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mut := append([]byte(nil), orig...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= byte(1 + rng.Intn(255))
			if i%2 == 1 {
				for _, fr := range frameSpans(t, path) {
					if int64(pos) >= fr[0]+4 && int64(pos) < fr[0]+fr[1]-4 {
						reseal(mut, fr)
					}
				}
			}
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			got, gotErr := VerifySpillDir(l.dir, VerifyOptions{})
			if n := settledGoroutines(before); n > before {
				t.Fatalf("%s: VerifySpillDir left %d goroutines, %d before it", l.name, n, before)
			}
			want, wantErr := sequentialSpill(l.dir, VerifyOptions{})
			sameOutcome(t, fmt.Sprintf("%s %s, byte %d of %d", l.name, filepath.Base(path), pos, len(mut)), got, gotErr, want, wantErr)
			tally(gotErr)
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			flips++
		}
	}

	// Two defects a few records apart, so in one batch: a record that fails
	// its checks and then a parse error. The record's error is the one
	// reported.
	l := ledgers[0]
	var recs []int // offset of each record's length prefix
	for off := 12 + int(binary.LittleEndian.Uint32(l.container[8:])); ; {
		n := int(binary.LittleEndian.Uint32(l.container[off:]))
		if n == 0 {
			break
		}
		recs = append(recs, off)
		off += 4 + n
	}
	bad := recs[len(recs)/2]
	mut := append([]byte(nil), l.container[:recs[len(recs)/2+10]+7]...) // cut inside a record
	mut[bad+4+40] ^= 0x01                                               // a byte of the usage log
	_, gotErr := VerifyReader(bytes.NewReader(mut), VerifyOptions{})
	_, wantErr := sequentialDump(append(append([]byte(nil), mut...), l.container[len(mut):]...), VerifyOptions{})
	if wantErr == nil || !strings.Contains(wantErr.Error(), "does not match its hash") {
		t.Fatalf("the flipped record: %v, want its hash mismatch", wantErr)
	}
	sameOutcome(t, "container with a bad record and a cut end", nil, gotErr, nil, wantErr)
	path := filepath.Join(l.dir, shardFileName(2))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames := frameSpans(t, path)
	if len(frames) < 3 {
		t.Fatalf("%s holds %d frames, want three or more", path, len(frames))
	}
	for _, tc := range []struct {
		name string
		at   func(fr [2]int64) int64 // the byte flipped in the first frame
		cut  bool                    // also flip a byte of the next frame, CRC and all
		want string
	}{
		{"record and a later CRC", func(fr [2]int64) int64 { return fr[0] + 4 + 16 + 40 }, true, "content does not match its hash"},
		{"head stamp", func(fr [2]int64) int64 { return fr[0] + fr[1] - 4 - MarshalSize - 5 }, false, "stamp mismatch"},
		{"totals stamp", func(fr [2]int64) int64 { return fr[0] + fr[1] - 4 - 20 }, false, "stamp mismatch"},
	} {
		mut := append([]byte(nil), orig...)
		mut[tc.at(frames[0])] ^= 0x04
		reseal(mut, frames[0])
		if tc.cut {
			mut[frames[1][0]+frames[1][1]/2] ^= 0x04
		}
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, gotErr := VerifySpillDir(l.dir, VerifyOptions{})
		_, wantErr := sequentialSpill(l.dir, VerifyOptions{})
		sameOutcome(t, tc.name, nil, gotErr, nil, wantErr)
		if !strings.Contains(gotErr.Error(), tc.want) {
			t.Fatalf("%s: %v, want %q", tc.name, gotErr, tc.want)
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d flips: %v", flips, verdicts)
	if flips < 64 || verdicts["parse"] == 0 || verdicts["check"] == 0 {
		t.Fatalf("%d flips with verdicts %v; want at least 64, parse errors and check errors among them", flips, verdicts)
	}
}

// TestWriteDumpCopiesSpilledFrames: a dump of a spilled ledger, most of
// its records copied out of their frames, is byte for byte the container
// re-encoded from the records ReadDump parses out of it; and a flipped
// byte inside a spilled frame fails WriteDump with the frame's CRC error.
func TestWriteDumpCopiesSpilledFrames(t *testing.T) {
	e := codecEnclave(t)
	dir := t.TempDir()
	opts := LedgerOptions{Shards: 2, EagerSign: true, Retention: RetentionPolicy{MaxResidentRecords: 300, SpillDir: dir}}
	l, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 2000; i++ {
		if _, _, err := l.Append(codecLog(i)); err != nil {
			t.Fatal(err)
		}
	}
	var dump bytes.Buffer
	if err := l.WriteDump(&dump, DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(bytes.NewReader(dump.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if spilled := l.SpilledRecords(); spilled < 1000 || spilled >= uint64(len(d.Records)) {
		t.Fatalf("%d of %d records spilled; want most, not all", spilled, len(d.Records))
	}
	head := *d
	head.Records = []Record{}
	var reencoded bytes.Buffer
	err = writeDumpContainer(&reencoded, &head, func(cw *containerWriter) error {
		for i := range d.Records {
			if err := cw.record(&d.Records[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump.Bytes(), reencoded.Bytes()) {
		t.Fatalf("WriteDump wrote %d bytes that differ from the %d re-encoded from its records", dump.Len(), reencoded.Len())
	}

	// A writer that fails a third of the way in: WriteDump reports its
	// error, and the goroutine that reads frames ahead of the writes has
	// exited.
	before := runtime.NumGoroutine()
	err = l.WriteDump(&failingWriter{room: dump.Len() / 3}, DumpOptions{})
	if n := settledGoroutines(before); n > before {
		t.Fatalf("WriteDump into a failing writer left %d goroutines, %d before it", n, before)
	}
	if err != errWriterFull {
		t.Fatalf("WriteDump into a failing writer: %v, want %v", err, errWriterFull)
	}

	path := filepath.Join(dir, shardFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4+16+40] ^= 0x10 // the first frame's first record
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = l.WriteDump(&bytes.Buffer{}, DumpOptions{})
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("WriteDump over a flipped spilled byte: %v, want the frame's CRC error", err)
	}
}

var errWriterFull = errors.New("writer full")

// failingWriter accepts room bytes, then fails every write.
type failingWriter struct{ room int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.room {
		n := w.room
		w.room = 0
		return n, errWriterFull
	}
	w.room -= len(p)
	return len(p), nil
}
