package accounting

// Shutdown-ordering, crash, and tamper coverage for the async group-commit
// spill writer, plus the pruned-checkpoint-chain and binary-dump paths.
// White-box so tests can build torn frames byte-for-byte and inspect the
// persisted checkpoint chain.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"acctee/internal/fault"
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
		r := round{make(chan struct{}), make(chan struct{})}
		open <- r
		<-r.appending
		var buf bytes.Buffer
		err := l.WriteDump(&buf, DumpOptions{})
		close(r.dumped)
		if err != nil {
			t.Errorf("round %d: WriteDump: %v", n, err)
		} else if _, err := VerifyReader(bytes.NewReader(buf.Bytes()), VerifyOptions{Key: pub}); err != nil {
			t.Errorf("round %d: dump taken during compaction races does not verify: %v", n, err)
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
	dres, err := VerifyReader(bytes.NewReader(dump.Bytes()), VerifyOptions{Key: e.PublicKey()})
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

// TestBinaryDumpRoundTrip: the dump container carries exactly the
// in-memory dump's verification semantics, and the reader accepts nothing
// it has not checked — a flipped record byte, bytes after the terminator,
// a missing terminator and records smuggled into the header JSON are all
// refused, by VerifyReader and by ReadDump alike.
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
	var container bytes.Buffer
	if err := l.WriteDump(&container, DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := container.Bytes()
	opts := VerifyOptions{Key: e.PublicKey()}
	bres, err := VerifyReader(bytes.NewReader(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Records != 100 {
		t.Fatalf("container replayed %d records, want 100", bres.Records)
	}
	d, err := l.Dump()
	if err != nil {
		t.Fatal(err)
	}
	dres, err := VerifyDump(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if *dres != *bres {
		t.Fatalf("container verdict %+v differs from the in-memory dump's %+v", *bres, *dres)
	}
	back, err := ReadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatal("ReadDump of the container differs from Ledger.Dump()")
	}
	hlen := int(binary.LittleEndian.Uint32(raw[8:12]))
	// withHeader rebuilds the container around an edited header JSON.
	withHeader := func(edit func(map[string]json.RawMessage)) []byte {
		var h map[string]json.RawMessage
		if err := json.Unmarshal(raw[12:12+hlen], &h); err != nil {
			t.Fatal(err)
		}
		edit(h)
		hj, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte(nil), raw[:8]...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(hj)))
		out = append(out, hj...)
		return append(out, raw[12+hlen:]...)
	}
	rec0, err := json.Marshal([]Record{d.Records[0]})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[12+hlen+4+10] ^= 0x01 // in the first record's prev-hash
	rendered, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  []byte
		// wellFormed: ReadDump parses it (it does not verify); the
		// tampering is then VerifyDump's to catch.
		wellFormed bool
	}{
		{"flipped record byte", flipped, true},
		{"one byte after the terminator", append(append([]byte(nil), raw...), 0), false},
		{"a second container after the terminator", append(append([]byte(nil), raw...), raw...), false},
		{"terminator cut off", raw[:len(raw)-4], false},
		{"terminator cut short", raw[:len(raw)-1], false},
		{"records inside the header JSON", withHeader(func(h map[string]json.RawMessage) { h["records"] = rec0 }), false},
		{"header stamped with the retired JSON format", withHeader(func(h map[string]json.RawMessage) {
			h["format"] = json.RawMessage(`"acctee-ledger/v2"`)
		}), false},
		{"the JSON rendering", rendered, false},
	} {
		if _, err := VerifyReader(bytes.NewReader(tc.mut), opts); err == nil {
			t.Errorf("%s: VerifyReader accepted it", tc.name)
		}
		got, err := ReadDump(bytes.NewReader(tc.mut))
		switch {
		case !tc.wellFormed && err == nil:
			t.Errorf("%s: ReadDump accepted it", tc.name)
		case tc.wellFormed && err != nil:
			t.Errorf("%s: ReadDump: %v", tc.name, err)
		case tc.wellFormed:
			if _, err := VerifyDump(got, opts); err == nil {
				t.Errorf("%s: VerifyDump accepted what ReadDump parsed", tc.name)
			}
		}
	}
	// The header editor itself is sound: an untouched header round-trips
	// into a container that still verifies.
	if _, err := VerifyReader(bytes.NewReader(withHeader(func(map[string]json.RawMessage) {})), opts); err != nil {
		t.Fatalf("re-marshalled header no longer verifies: %v", err)
	}
}

// TestManifestReplacedAtomically: reopening with pruning newly enabled
// rewrites MANIFEST.json, and a crash inside an in-place rewrite would
// leave a directory nothing can open. The rewrite goes through a temp
// file and a rename instead, so the torn temp file such a crash leaves
// beside an intact manifest is harmless: the directory reopens with or
// without another rewrite, and a completed rewrite leaves no temp file.
func TestManifestReplacedAtomically(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{
		Shards:    2,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	reopen := func(opts LedgerOptions, appends int) {
		t.Helper()
		l, err := NewLedger(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < appends; i++ {
			if _, _, err := l.AppendShard(uint32(i%2), codecLog(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	reopen(opts, 8)
	intact, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, intact[:len(intact)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	reopen(opts, 0) // no rewrite: the torn temp file is simply ignored
	opts.Retention.CheckpointKeepEvery = 2
	reopen(opts, 0) // rewrite: the stale temp file is overwritten, then renamed away
	m, err := readSpillManifest(dir)
	if err != nil {
		t.Fatalf("manifest after the rewrite: %v", err)
	}
	if !m.Pruned {
		t.Fatal("manifest does not declare pruning after a reopen that enabled it")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp manifest still present after a completed rewrite (stat: %v)", err)
	}
	if _, err := VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedProcessCannotRewriteCheckpointLog: the checkpoint-log
// rewrite (pruning, recovery) goes through the fault injector like every
// other spill write. A process that crashes in it, or has crashed before
// it, leaves at most a torn temp file — never a renamed log.
func TestCrashedProcessCannotRewriteCheckpointLog(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	inj := fault.New()
	l, err := NewLedger(e, LedgerOptions{
		Shards:    1,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
		Faults:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for i := 0; i < 4; i++ {
			if _, _, err := l.Append(codecLog(4*r + i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	l.Anchor() // drain: all three seals durable
	logPath := filepath.Join(dir, checkpointsName)
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	fs := l.store
	inj.CrashOnWrite(inj.Writes()+1, 7)
	for attempt, wantTmp := range []int{7, 0} { // crashing in the rewrite, then already crashed
		fs.mu.Lock()
		err := fs.rewriteCheckpoints(l.checkpoints[2:])
		fs.mu.Unlock()
		if !errors.Is(err, fault.ErrCrashed) {
			t.Fatalf("attempt %d: rewriteCheckpoints = %v, want the crash", attempt, err)
		}
		after, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("attempt %d: a crashed process replaced the checkpoint log", attempt)
		}
		if fi, err := os.Stat(logPath + ".tmp"); err != nil || fi.Size() != int64(wantTmp) {
			t.Fatalf("attempt %d: temp log is %v (stat: %v), want %d torn bytes", attempt, fi, err, wantTmp)
		}
	}
	l.Close()
	l2, err := NewLedger(e, LedgerOptions{
		Shards:    1,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	})
	if err != nil {
		t.Fatalf("reopen beside a torn temp log: %v", err)
	}
	defer l2.Close()
	if dropped := l2.Recovered(); dropped != 0 || l2.SpilledRecords() != 12 {
		t.Fatalf("reopened with %d dropped checkpoints and %d spilled records, want 0 and 12", dropped, l2.SpilledRecords())
	}
}
