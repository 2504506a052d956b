package accounting

// Shutdown-ordering, crash, and tamper coverage for the async group-commit
// spill writer, plus the pruned-checkpoint-chain and binary-dump paths.
// White-box so tests can build torn frames byte-for-byte and inspect the
// persisted checkpoint chain.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCloseDuringInflightGroupCommit: Close must act as a full write
// barrier — every sealed frame handed to the writer goroutines before
// Close is durable afterwards, even when Close lands mid-group-commit.
// Repeated seals with no intervening drain keep the writer queues busy so
// Close reliably catches commits in flight (the race detector patrols the
// ordering).
func TestCloseDuringInflightGroupCommit(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{
		Shards:    2,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	l, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := 0; i < total; i++ {
		if _, _, err := l.Append(codecLog(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%8 == 0 {
			if _, err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	sealed := l.SpilledRecords()
	l.Close() // no drain before this: Close itself must flush in-flight commits

	res, err := VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("spill dir after Close: %v", err)
	}
	if uint64(res.Records) != sealed {
		t.Fatalf("spill dir holds %d records after Close, want all %d sealed", res.Records, sealed)
	}
	// And a reopen recovers the full sealed state.
	l2, err := NewLedger(e, opts)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer l2.Close()
	if dropped := l2.Recovered(); dropped != 0 {
		t.Fatalf("clean Close lost %d checkpoints on reopen", dropped)
	}
	if got := l2.SpilledRecords(); got != sealed {
		t.Fatalf("reopen recovered %d spilled records, want %d", got, sealed)
	}
}

// TestCompactRacingWriteDump: dumps taken while another goroutine appends
// and compacts must each be internally consistent — WriteDump drains the
// spill writer, so a dump never observes a half-spilled seal. Every dump
// must verify in both JSON and binary containers.
//
// The appender is handed one dump round at a time. It appends only while
// that round's WriteDump is running and at most perRound records, so
// however the scheduler treats the two goroutines the ledger holds at most
// dumpRounds×perRound records and cannot outgrow the dump loop (an unthrottled
// appender once grew it to gigabytes when the dump loop lost its CPU). The
// dump starts only once the appender is mid-round, so every round dumps
// against live appends and compactions.
func TestCompactRacingWriteDump(t *testing.T) {
	const (
		dumpRounds = 10
		perRound   = 2048
	)
	dir := t.TempDir()
	e := codecEnclave(t)
	l, err := NewLedger(e, LedgerOptions{
		Shards:    2,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// round is what the dump loop hands the appender: the appender closes
	// appending after the round's first record, the dump loop closes dumped
	// when its WriteDump has returned.
	type round struct{ appending, dumped chan struct{} }
	i := 0
	appendOne := func() error {
		if _, _, err := l.Append(codecLog(i)); err != nil {
			return err
		}
		if i++; i%16 == 0 {
			_, err := l.Compact()
			return err
		}
		return nil
	}
	open := make(chan round)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	nextRound:
		for r := range open {
			for n := 0; n < perRound; n++ {
				err := appendOne()
				if n == 0 {
					close(r.appending)
				}
				if err != nil {
					t.Error(err)
					continue nextRound
				}
				select {
				case <-r.dumped:
					continue nextRound
				default:
				}
			}
		}
	}()

	pub := e.PublicKey()
	for n := 0; n < dumpRounds && !t.Failed(); n++ {
		bin := n%2 == 1
		r := round{make(chan struct{}), make(chan struct{})}
		open <- r
		<-r.appending
		var buf bytes.Buffer
		err := l.WriteDump(&buf, DumpOptions{Binary: bin})
		close(r.dumped)
		if err != nil {
			t.Errorf("round %d (binary=%v): WriteDump: %v", n, bin, err)
		} else if _, err := VerifyStream(bytes.NewReader(buf.Bytes()), VerifyOptions{Key: pub}); err != nil {
			t.Errorf("round %d (binary=%v): dump taken during compaction races does not verify: %v", n, bin, err)
		}
	}
	close(open)
	wg.Wait()
}

// TestRecoveryMidGroupCommit: a crash mid-group-commit leaves a shard file
// ending inside a frame (the length prefix promises more bytes than the
// file holds). Recovery must classify that as a torn tail, cut it, and
// reopen on the durable prefix — never refuse the directory and never
// mistake it for tampering.
func TestRecoveryMidGroupCommit(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{
		Shards:    1,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	l1, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := l1.Append(codecLog(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l1.Compact(); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	// Simulate the torn write: replay the first frame's bytes as a HALF
	// frame appended at the tail, exactly what a group commit interrupted
	// mid-Write leaves behind.
	segPath := filepath.Join(dir, shardFileName(0))
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := 4 + int(binary.LittleEndian.Uint32(raw[:4])) + 4
	torn := append(append([]byte(nil), raw...), raw[:frameLen/2]...)
	if err := os.WriteFile(segPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// The offline verifier tolerates the torn tail…
	res, err := VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("torn tail misread as corruption: %v", err)
	}
	if res.Records != 12 {
		t.Fatalf("torn-tail spill verified %d records, want 12", res.Records)
	}
	// …and recovery cuts it and carries on.
	l2, err := NewLedger(e, opts)
	if err != nil {
		t.Fatalf("recovery refused a mid-group-commit directory: %v", err)
	}
	defer l2.Close()
	if got := l2.SpilledRecords(); got != 12 {
		t.Fatalf("recovered %d spilled records, want 12", got)
	}
	if _, _, err := l2.Append(codecLog(12)); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledFrameByteFlipDetected: any single flipped byte inside a
// durable binary frame must fail both the offline verifier and recovery —
// a complete frame with a bad CRC can never demote itself to a torn tail.
func TestSpilledFrameByteFlipDetected(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{
		Shards:    1,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	l1, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := l1.Append(codecLog(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l1.Compact(); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	segPath := filepath.Join(dir, shardFileName(0))
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Byte 10 sits inside the first frame's payload (after the 4-byte
	// length prefix and the shard/base stamps): flipping it breaks the
	// frame CRC without touching any length field, so the mutation cannot
	// masquerade as a torn tail.
	raw[10] ^= 0x01
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()}); err == nil {
		t.Fatal("verifier accepted a spill dir with a flipped byte in a binary frame")
	}
	if _, err := NewLedger(e, opts); err == nil {
		t.Fatal("recovery reopened a spill dir with a flipped byte in a binary frame")
	}
}

// TestPrunedCheckpointChain: with CheckpointKeepEvery set the persisted
// chain drops non-anchor checkpoints, yet the directory and its dumps
// still verify end-to-end; flipping a byte inside a retained checkpoint
// must still be caught by its signature.
func TestPrunedCheckpointChain(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{
		Shards: 1,
		Retention: RetentionPolicy{
			SegmentRecords:      4,
			SpillDir:            dir,
			CheckpointKeepEvery: 4,
		},
	}
	l, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Enough compactions that the amortised prune (pruneDrainMin prunable
	// checkpoints before a drain barrier is worth paying) and the store's
	// amortised log rewrite both fire at least once.
	const rounds = 128
	for r := 0; r < rounds; r++ {
		for i := 0; i < 4; i++ {
			if _, _, err := l.Append(codecLog(4*r + i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	l.Anchor() // drain so the durable chain reflects every seal
	var dump bytes.Buffer
	if err := l.WriteDump(&dump, DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The persisted chain must actually have pruned something: fewer
	// lines than checkpoints issued, and at least one sequence gap.
	cpRaw, err := os.ReadFile(filepath.Join(dir, checkpointsName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(cpRaw, []byte("\n")), []byte("\n"))
	if len(lines) >= rounds {
		t.Fatalf("checkpoint chain holds %d entries after %d compactions — pruning never fired", len(lines), rounds)
	}
	var seqs []uint64
	for _, line := range lines {
		var sc SignedCheckpoint
		if err := json.Unmarshal(line, &sc); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, sc.Checkpoint.Sequence)
	}
	gapped := false
	for i := 1; i < len(seqs); i++ {
		if seqs[i] > seqs[i-1]+1 {
			gapped = true
		}
	}
	if !gapped {
		t.Fatalf("pruned chain %v has no sequence gaps", seqs)
	}

	// Pruned directory and pruned dump both verify, reporting the gaps.
	res, err := VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("pruned spill dir: %v", err)
	}
	if res.PrunedCheckpointGaps == 0 {
		t.Fatal("pruned spill dir verified with zero reported checkpoint gaps")
	}
	dres, err := VerifyStream(bytes.NewReader(dump.Bytes()), VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatalf("dump of pruned ledger: %v", err)
	}
	if dres.Records != 4*rounds {
		t.Fatalf("pruned dump replayed %d records, want %d", dres.Records, 4*rounds)
	}

	// Tamper with a retained checkpoint: flip one byte inside its totals.
	// Gap tolerance relaxes ADJACENCY only — the signature still covers
	// every retained checkpoint.
	target := lines[len(lines)/2]
	pos := bytes.Index(target, []byte(`"totals"`))
	if pos < 0 {
		t.Fatal("checkpoint line has no totals field")
	}
	mut := append([]byte(nil), cpRaw...)
	off := bytes.Index(mut, target) + pos + len(`"totals":{"`) + 20
	for !(mut[off] >= '0' && mut[off] <= '9') {
		off++ // land on a digit so the line still parses as JSON
	}
	mut[off] = '0' + (mut[off]-'0'+1)%10
	if err := os.WriteFile(filepath.Join(dir, checkpointsName), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()}); err == nil {
		t.Fatal("verifier accepted a pruned chain with a tampered retained checkpoint")
	}
	if _, err := NewLedger(e, opts); err == nil {
		t.Fatal("recovery accepted a pruned chain with a tampered retained checkpoint")
	}
}

// TestBinaryDumpRoundTrip: the v3 binary container carries exactly the
// JSON dump's verification semantics at a fraction of the bytes, and a
// flipped byte in its record section is detected.
func TestBinaryDumpRoundTrip(t *testing.T) {
	e := codecEnclave(t)
	l, err := NewLedger(e, LedgerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		if _, _, err := l.Append(codecLog(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%25 == 0 {
			if _, err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var jsonDump, binDump bytes.Buffer
	if err := l.WriteDump(&jsonDump, DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteDump(&binDump, DumpOptions{Binary: true}); err != nil {
		t.Fatal(err)
	}
	if binDump.Len() >= jsonDump.Len() {
		t.Fatalf("binary dump (%d bytes) not smaller than JSON (%d bytes)", binDump.Len(), jsonDump.Len())
	}
	jres, err := VerifyStream(bytes.NewReader(jsonDump.Bytes()), VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	bres, err := VerifyStream(bytes.NewReader(binDump.Bytes()), VerifyOptions{Key: e.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	if *jres != *bres {
		t.Fatalf("binary dump verdict %+v differs from JSON %+v", *bres, *jres)
	}
	if bres.Records != 100 {
		t.Fatalf("binary dump replayed %d records, want 100", bres.Records)
	}

	// Flip one byte inside the record section (past magic + header).
	raw := binDump.Bytes()
	hlen := int(binary.LittleEndian.Uint32(raw[8:12]))
	mut := append([]byte(nil), raw...)
	mut[8+4+hlen+4+10] ^= 0x01
	if _, err := VerifyStream(bytes.NewReader(mut), VerifyOptions{Key: e.PublicKey()}); err == nil {
		t.Fatal("verifier accepted a binary dump with a flipped record byte")
	}
}
