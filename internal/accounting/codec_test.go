package accounting

// White-box tests for the spill frame codec, the compatibility fixture
// written by the parent of the PR that retired the v1 (JSON-lines) spill
// layout, and that layout's refusal. These live inside the package to
// exercise encodeBinFrame/readBinFrame directly and to rewrite a spill
// directory down to the v1 layout byte-for-byte.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"acctee/internal/sgx"
)

func codecEnclave(t *testing.T) *sgx.Enclave {
	t.Helper()
	e, err := sgx.NewEnclave([]byte("acctee codec test"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func codecLog(i int) UsageLog {
	return UsageLog{
		WorkloadHash:         [32]byte{0xAB, byte(i)},
		WeightedInstructions: uint64(1000 + i),
		PeakMemoryBytes:      uint64(1<<16 + i),
		MemoryIntegral:       uint64(3 * i),
		IOBytesIn:            uint64(i),
		IOBytesOut:           uint64(2 * i),
		SimulatedCycles:      uint64(5 * i),
		Policy:               PeakMemory,
		Sequence:             uint64(i),
	}
}

func codecFrame(n int, withSig bool) *spillFrame {
	fr := &spillFrame{Shard: 3, Base: 40}
	var prev [32]byte
	var totals UsageLog
	for i := 0; i < n; i++ {
		r := Record{Shard: 3, Log: codecLog(40 + i), PrevHash: prev}
		r.Hash = r.ComputeHash()
		if withSig {
			r.Signature = bytes.Repeat([]byte{byte(i + 1)}, 70+i)
		}
		prev = r.Hash
		aggregate(&totals, &r.Log)
		fr.Records = append(fr.Records, r)
	}
	fr.Head = prev
	fr.Totals = totals
	return fr
}

func framesEqual(a, b *spillFrame) bool {
	if a.Shard != b.Shard || a.Base != b.Base || a.Head != b.Head ||
		a.Totals != b.Totals || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		x, y := &a.Records[i], &b.Records[i]
		if x.Shard != y.Shard || x.Log != y.Log || x.PrevHash != y.PrevHash ||
			x.Hash != y.Hash || !bytes.Equal(x.Signature, y.Signature) {
			return false
		}
	}
	return true
}

func TestBinFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		withSig bool
	}{
		{"single", 1, false},
		{"batch", 8, false},
		{"signed", 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := codecFrame(tc.n, tc.withSig)
			enc := encodeBinFrame(fr)
			got, consumed, err := readBinFrame(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("readBinFrame: %v", err)
			}
			if consumed != int64(len(enc)) {
				t.Fatalf("consumed %d bytes, frame is %d", consumed, len(enc))
			}
			if !framesEqual(fr, got) {
				t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", fr, got)
			}
		})
	}
}

// TestBinFrameTornVsCorrupt pins the codec's central classification rule:
// a frame cut short by the end of the file is errTornFrame (honest crash
// residue, recoverable); a fully present frame with a flipped byte is a
// hard error at EVERY byte position — length prefix, payload, or CRC.
func TestBinFrameTornVsCorrupt(t *testing.T) {
	fr := codecFrame(4, true)
	enc := encodeBinFrame(fr)

	// Every proper prefix that is not empty is torn (or clean EOF at 0).
	for _, cut := range []int{1, 3, 4, 5, len(enc) / 2, len(enc) - 1} {
		_, _, err := readBinFrame(bufio.NewReader(bytes.NewReader(enc[:cut])))
		if err != errTornFrame {
			t.Fatalf("prefix of %d/%d bytes: got %v, want errTornFrame", cut, len(enc), err)
		}
	}
	if _, _, err := readBinFrame(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty input: got %v, want io.EOF", err)
	}

	// Any single flipped byte in a complete frame must be a hard error —
	// never io.EOF, never errTornFrame, never a silent success.
	for pos := 0; pos < len(enc); pos++ {
		mut := append([]byte(nil), enc...)
		mut[pos] ^= 0x01
		got, _, err := readBinFrame(bufio.NewReader(bytes.NewReader(mut)))
		if err == nil {
			// A flip inside the length prefix can shrink the advertised
			// frame so the decode sees a shorter-but-complete frame; the
			// CRC (positioned by the same prefix) then fails. A flip may
			// also grow the frame past the buffer: that reads as torn on
			// a lone frame, which is exactly why recovery cross-checks
			// the truncation point against the checkpoint chain. Here a
			// nil error is only acceptable if the decode reproduced the
			// original frame (impossible for a flipped payload).
			if !framesEqual(fr, got) {
				t.Fatalf("flip at byte %d decoded successfully to a different frame", pos)
			}
			t.Fatalf("flip at byte %d round-tripped to the identical frame", pos)
		}
		if pos >= 4 && pos < len(enc)-4 && err == errTornFrame {
			// Payload flips never masquerade as torn: the length prefix
			// is intact, so the full advertised frame is present.
			t.Fatalf("flip at payload byte %d classified as torn tail", pos)
		}
	}
}

// TestBinFrameRejectsHostileHeader: a hostile length prefix or count must
// fail fast and bounded, not allocate gigabytes.
func TestBinFrameRejectsHostileHeader(t *testing.T) {
	var huge [8]byte
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF // ~4 GiB payload
	if _, _, err := readBinFrame(bufio.NewReader(bytes.NewReader(huge[:]))); err == nil || err == errTornFrame {
		t.Fatalf("4 GiB length prefix: got %v, want hard error", err)
	}
	// Valid CRC but count claims more records than the payload can hold.
	fr := codecFrame(1, false)
	enc := encodeBinFrame(fr)
	payload := append([]byte(nil), enc[4:len(enc)-4]...)
	payload[12] = 0xFF // count = 255 in a one-record payload
	if _, err := decodeBinFramePayload(payload); err == nil {
		t.Fatal("overflowing record count decoded without error")
	}
	if _, err := decodeBinFramePayload(payload[:8]); err == nil {
		t.Fatal("short payload decoded without error")
	}
	payload[12] = 0 // count = 0
	if _, err := decodeBinFramePayload(payload); err == nil {
		t.Fatal("zero-record frame decoded without error")
	}
}

// TestLegacyV1SpillReadWrite: the PR 5 line-delimited JSON spill layout
// is no longer read or written. A v1 directory — made here by transcoding
// a fresh v2 one frame for frame — is refused by NewLedger and by
// VerifySpillDir with an error naming the format, and the refusal touches
// nothing: every file is byte-identical afterwards.
func TestLegacyV1SpillReadWrite(t *testing.T) {
	dir := t.TempDir()
	e := codecEnclave(t)
	opts := LedgerOptions{
		Shards:    2,
		Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir},
	}
	l1, err := NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit alternating shards: the test inspects both shard files, so
	// the populate must not depend on the affinity pick's lane choice.
	for i := 0; i < 16; i++ {
		if _, _, err := l1.AppendShard(uint32(i%2), codecLog(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l1.Compact(); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	// Transcode the directory to the v1 layout: JSON frame lines and a
	// downgraded manifest format stamp.
	const spillFormatV1 = "acctee-spill/v1"
	type v1Frame struct {
		Shard   uint32   `json:"shard"`
		Base    uint64   `json:"base"`
		Head    [32]byte `json:"head"`
		Totals  UsageLog `json:"totals"`
		Records []Record `json:"records"`
	}
	m, err := readSpillManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Format = spillFormatV1
	if err := writeSpillManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < opts.Shards; shard++ {
		path := filepath.Join(dir, shardFileName(shard))
		var jsonl bytes.Buffer
		if _, err := walkFrames(path, func(fr *spillFrame, _, _ int64) error {
			line, err := json.Marshal(v1Frame(*fr))
			if err != nil {
				return err
			}
			jsonl.Write(line)
			jsonl.WriteByte('\n')
			return nil
		}); err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if jsonl.Len() == 0 {
			t.Fatalf("shard %d spilled no frames — test setup broken", shard)
		}
		if err := os.WriteFile(path, jsonl.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	snapshot := func() map[string][]byte {
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
	before := snapshot()

	// Also with pruning newly requested: the manifest rewrite that
	// declares it must not get ahead of the refusal.
	pruning := opts
	pruning.Retention.CheckpointKeepEvery = 2
	for _, o := range []LedgerOptions{opts, pruning} {
		l2, err := NewLedger(e, o)
		if err == nil {
			l2.Close()
			t.Fatal("NewLedger reopened a v1 spill dir")
		}
		if !strings.Contains(err.Error(), spillFormatV1) {
			t.Fatalf("NewLedger refusal does not name the format: %v", err)
		}
	}
	_, err = VerifySpillDir(dir, VerifyOptions{Key: e.PublicKey()})
	if err == nil {
		t.Fatal("VerifySpillDir accepted a v1 spill dir")
	}
	if !strings.Contains(err.Error(), spillFormatV1) {
		t.Fatalf("VerifySpillDir refusal does not name the format: %v", err)
	}
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused v1 spill dir was modified")
	}
}

// compatDir holds a spill directory and three dump containers written by
// commit b9cb227 — the last one that could also write the JSON forms (see
// its README.md). They pin "frame and container bytes did not change" from
// outside the code that writes them.
const compatDir = "testdata/compat-b9cb227"

// TestCompatFixtureVerifies: what the parent commit wrote verifies under
// the identity embedded in it, with the parent's own verdicts.
func TestCompatFixtureVerifies(t *testing.T) {
	sres, err := VerifySpillDir(filepath.Join(compatDir, "spill-v2"), VerifyOptions{})
	if err != nil {
		t.Fatalf("parent's spill directory: %v", err)
	}
	if sres.Records != 72 || sres.Checkpoints != 9 || sres.CoveredRecords != 72 ||
		sres.BeyondHorizon != 1 || sres.PrunedCheckpointGaps != 5 || sres.Totals.WeightedInstructions != 74556 {
		t.Fatalf("parent's spill directory: verdict %+v", *sres)
	}
	for _, tc := range []struct {
		file string
		want VerifyResult
	}{
		{"ledger-v3.bin", VerifyResult{Records: 75, Checkpoints: 9, CoveredRecords: 75, PrunedCheckpointGaps: 5}},
		{"ledger-v3-truncated.bin", VerifyResult{Records: 3, Checkpoints: 1, CoveredRecords: 75,
			Anchored: true, AnchorSequence: 71, StartRecords: 72}},
		{"ledger-v3-unpruned.bin", VerifyResult{Records: 20, Checkpoints: 3, CoveredRecords: 20}},
	} {
		raw, err := os.ReadFile(filepath.Join(compatDir, tc.file))
		if err != nil {
			t.Fatal(err)
		}
		res, err := VerifyReader(bytes.NewReader(raw), VerifyOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		tc.want.Shards = 2
		tc.want.Totals = res.Totals
		if want := uint64(1000*tc.want.CoveredRecords + tc.want.CoveredRecords*(tc.want.CoveredRecords-1)/2); res.Totals.WeightedInstructions != want {
			// The generator charged record i 1000+i weighted instructions.
			t.Errorf("%s: totals %d weighted instructions, want %d", tc.file, res.Totals.WeightedInstructions, want)
		}
		if *res != tc.want {
			t.Errorf("%s: verdict %+v, want %+v", tc.file, *res, tc.want)
		}
		d, err := ReadDump(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: ReadDump: %v", tc.file, err)
		}
		if dres, err := VerifyDump(d, VerifyOptions{}); err != nil || *dres != *res {
			t.Errorf("%s: VerifyDump(ReadDump) = %+v, %v; VerifyReader = %+v", tc.file, dres, err, *res)
		}
	}
}
