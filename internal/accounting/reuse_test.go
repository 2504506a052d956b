package accounting

// The reuse contract of the read side and the no-copy contract of the
// write side. The frame reader, walkFrames, the Snapshot replay closure
// and readDumpContainer hand out storage they refill; these tests pin
// that what they hand out equals a fresh decode of the same bytes, that
// nothing a caller may keep aliases the refilled storage, and that a seal
// which keeps the resident segments' slices instead of a copy serves the
// same records until its frame lands — and pins nothing afterwards.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// reuseShapes is a run of frames that shrink, grow and alternate
// eager-signed with unsigned records: every way a stale field of an
// earlier, larger frame could show through a later one.
var reuseShapes = []struct {
	n       int
	withSig bool
}{{5, true}, {2, false}, {9, false}, {1, true}, {7, true}, {3, false}, {9, true}, {1, false}}

func reuseFrames() (frames []*spillFrame, encoded [][]byte) {
	for _, s := range reuseShapes {
		fr := codecFrame(s.n, s.withSig)
		frames = append(frames, fr)
		encoded = append(encoded, encodeBinFrame(fr))
	}
	return frames, encoded
}

// TestReusedFrameEqualsFreshDecode: every frame seen through walkFrames
// (one reader, refilled) equals decodeBinFramePayload of the same bytes
// (fresh storage) field for field — in particular an unsigned record that
// lands where a signed one was carries a nil Signature.
func TestReusedFrameEqualsFreshDecode(t *testing.T) {
	_, encoded := reuseFrames()
	path := filepath.Join(t.TempDir(), shardFileName(3))
	if err := os.WriteFile(path, bytes.Join(encoded, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	seen := 0
	var wantOff int64
	end, err := walkFrames(path, func(fr *spillFrame, off, size int64) error {
		enc := encoded[seen]
		if off != wantOff || size != int64(len(enc)) {
			t.Fatalf("frame %d at offset %d size %d, want offset %d size %d", seen, off, size, wantOff, len(enc))
		}
		fresh, err := decodeBinFramePayload(enc[4 : len(enc)-4])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fr, fresh) {
			t.Fatalf("frame %d through the reused reader differs from a fresh decode:\nreused %+v\nfresh  %+v", seen, fr, fresh)
		}
		for i := range fr.Records {
			if !reuseShapes[seen].withSig && fr.Records[i].Signature != nil {
				t.Fatalf("frame %d record %d is unsigned but carries a signature from an earlier frame", seen, i)
			}
		}
		seen++
		wantOff += size
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(encoded) || end != wantOff {
		t.Fatalf("walk saw %d of %d frames and ended at %d, want %d", seen, len(encoded), end, wantOff)
	}
}

// TestRetainedRecordsNeverAliasReusedStorage: what a caller may keep —
// the records of ReadDump, Ledger.Dump and Ledger.Record — stays what it
// was however many frames and container records are decoded afterwards.
// The ledger is eager-signed, so every record carries the one field that
// could alias a read buffer.
func TestRetainedRecordsNeverAliasReusedStorage(t *testing.T) {
	e := codecEnclave(t)
	l, err := NewLedger(e, LedgerOptions{
		Shards: 1, EagerSign: true,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want []Record
	for i := 0; i < 30; i++ {
		_, rec, err := l.Append(codecLog(i))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
		if i%7 == 6 { // frames of 7, then a resident tail of 2
			if _, err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, ok := l.Record(0, 3) // read back from the first spilled frame
	if !ok {
		t.Fatal("spilled record 0/3 unreachable")
	}
	d, err := l.Dump()
	if err != nil {
		t.Fatal(err)
	}
	var container bytes.Buffer
	if err := l.WriteDump(&container, DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDump(bytes.NewReader(container.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Further reads over every frame and every container record.
	for seq := uint64(0); seq < 30; seq++ {
		if _, ok := l.Record(0, seq); !ok {
			t.Fatalf("record 0/%d unreachable", seq)
		}
	}
	if _, err := VerifyReader(bytes.NewReader(container.Bytes()), VerifyOptions{Key: e.PublicKey()}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Dump(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want[3]) {
		t.Fatalf("Ledger.Record result changed under later reads:\n got %+v\nwant %+v", first, want[3])
	}
	if !reflect.DeepEqual(d.Records, want) {
		t.Fatal("Ledger.Dump records differ from what Append returned")
	}
	if !reflect.DeepEqual(back.Records, want) {
		t.Fatal("ReadDump records differ from what Append returned")
	}
	for i := range want {
		if i > 0 && &back.Records[i].Signature[0] == &back.Records[i-1].Signature[0] {
			t.Fatalf("ReadDump records %d and %d share one signature buffer", i-1, i)
		}
	}
}

// TestDumpContainerRecordsThroughReusedRecord: readDumpContainer decodes
// every record into one Record; a copy taken inside the callback equals
// the record that was written, signed records beside unsigned ones.
func TestDumpContainerRecordsThroughReusedRecord(t *testing.T) {
	var want []Record
	frames, _ := reuseFrames()
	for _, fr := range frames {
		want = append(want, fr.Records...)
	}
	var container bytes.Buffer
	head := &Dump{Format: DumpFormatV3, Shards: 4, Records: []Record{}}
	if err := writeDumpContainer(&container, head, []func(func(*Record) error) error{replaySlice(want)}); err != nil {
		t.Fatal(err)
	}
	var got []Record
	err := readDumpContainer(&container,
		func(*Dump) error { return nil },
		func(r *Record) error { got = append(got, *r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("records read through the reused Record differ from the records written")
	}
}

// TestParallelRecoveryReportsLowestShard: the shard files are scanned
// concurrently, and with two of them corrupt the error is the lower
// shard's on every run, as it was when they were scanned in order.
func TestParallelRecoveryReportsLowestShard(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{Shards: 4, Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir}}
	l, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, _, err := l.AppendShard(uint32(i%4), codecLog(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	for _, shard := range []int{1, 3} {
		path := filepath.Join(dir, shardFileName(shard))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 25; run++ {
		l, err := NewLedger(e, opts)
		if err == nil {
			l.Close()
			t.Fatal("a spill directory with two corrupt shard files recovered")
		}
		if !strings.Contains(err.Error(), shardFileName(1)) {
			t.Fatalf("run %d: recovery error names %v, want the lower corrupt shard %s", run, err, shardFileName(1))
		}
	}
}

// TestSealedRangeReadableWhileUncommitted: a seal keeps slices of the
// resident segments, not a copy. With the shard's writer held before its
// write, Get and Snapshot of the sealed-but-uncommitted range — across the
// first segment, which grew by append, and part of the second — return
// the records they returned before the seal, while appends go on landing
// in the array the second run is a slice of. Once the writer is let go and
// the pipeline drained the same reads come off disk, and the pending
// queue's backing array holds no frame: a drained store pins nothing it
// has spilled.
func TestSealedRangeReadableWhileUncommitted(t *testing.T) {
	e := codecEnclave(t)
	l, err := NewLedger(e, LedgerOptions{
		Shards: 1, Retention: RetentionPolicy{SegmentRecords: 32, SpillDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs := l.store
	sh := &fs.shards[0]
	var want []Record
	add := func(n int) {
		for i := 0; i < n; i++ {
			_, rec, err := l.Append(codecLog(len(want)))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}
	}
	check := func(when string) {
		t.Helper()
		for seq := range want {
			if got, ok := fs.Get(0, uint64(seq)); !ok || !reflect.DeepEqual(got, want[seq]) {
				t.Fatalf("%s: Get(0, %d) = %+v, %v; want %+v", when, seq, got, ok, want[seq])
			}
		}
		replay, err := fs.Snapshot(0, 0, uint64(len(want)))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		var got []Record
		if err := replay(func(r *Record) error { got = append(got, *r); return nil }); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Snapshot replayed %d records that differ from the %d appended", when, len(got), len(want))
		}
	}

	add(36) // segment 0 grown from 8 to 32 records, 4 in segment 1
	sc, err := l.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	add(3)
	check("before the seal")

	fs.mu.Lock() // the writer stops at the head of writeBatch
	if _, err := fs.Seal(&sc); err != nil {
		fs.mu.Unlock()
		t.Fatal(err)
	}
	sh.mu.Lock()
	queue := sh.pending[:cap(sh.pending)]
	if len(sh.pending) != 1 || len(sh.pending[0].runs) != 2 || sh.spilled != 0 || sh.sealed != 36 {
		sh.mu.Unlock()
		fs.mu.Unlock()
		t.Fatalf("want one pending frame of two runs over [0, 36), have %d frames, spilled %d, sealed %d", len(sh.pending), sh.spilled, sh.sealed)
	}
	if runs := sh.pending[0].runs; len(runs[0]) != 32 || len(runs[1]) != 4 || &runs[1][0] != &sh.segs[0].recs[0] {
		sh.mu.Unlock()
		fs.mu.Unlock()
		t.Fatalf("pending runs of %d and %d records; want 32 and 4, the second a slice of the resident segment", len(runs[0]), len(runs[1]))
	}
	sh.mu.Unlock()
	add(9) // fills segment 1 past the sealed slice and opens segment 2
	check("sealed, writer held")
	fs.mu.Unlock()

	if err := fs.Drain(); err != nil {
		t.Fatal(err)
	}
	check("drained")
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.spilled != 36 || len(sh.pending) != 0 {
		t.Fatalf("after Drain: spilled %d, %d frames pending", sh.spilled, len(sh.pending))
	}
	for i, pf := range queue {
		if pf != nil {
			t.Fatalf("after Drain slot %d of the pending queue's backing array still holds a frame", i)
		}
	}
}

// TestHugeDeclaredLengthIsTorn: a good frame followed by a length prefix
// just under the cap and one byte of payload is a torn tail, and the
// reader's buffer never grows towards the declared gigabyte (the same
// input is in FuzzBinFrameDecode's corpus, under its allocation bound).
func TestHugeDeclaredLengthIsTorn(t *testing.T) {
	data := append(encodeBinFrame(codecFrame(2, false)), hugeLengthTail...)
	br := bufio.NewReader(bytes.NewReader(data))
	var d frameReader
	if _, _, err := d.next(br); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.next(br); err != errTornFrame {
		t.Fatalf("5-byte tail declaring %d bytes: %v, want errTornFrame", binary.LittleEndian.Uint32(hugeLengthTail), err)
	}
	if cap(d.body) > 1<<20 {
		t.Fatalf("the declared length sized a %d-byte buffer", cap(d.body))
	}
}

// hugeLengthTail is a frame prefix declaring 1 GiB - 1 of payload, then
// one byte of it.
var hugeLengthTail = []byte{0xff, 0xff, 0xff, 0x3f, 0x00}
