package accounting

// Fuzz harnesses for the two parsers of untrusted bytes: the spill-frame
// decoder, which fronts every byte crash recovery and the offline
// verifier read off disk, and the dump-container verifier, which is
// handed whatever a provider chooses to serve. Neither may panic or
// over-allocate, whatever a hostile or half-written input feeds it. A
// third harness damages a whole spill directory and holds recovery to its
// contract: refuse and touch nothing, or open, anchored, for good. Run
// with:
//
//	go test -fuzz=FuzzBinFrameDecode -fuzztime=30s ./internal/accounting
//	go test -fuzz=FuzzVerifyReader -fuzztime=30s ./internal/accounting
//	go test -fuzz=FuzzRecoverDir -fuzztime=30s ./internal/accounting
//
// The committed seed corpora (testdata/fuzz/<target>) cover, for frames,
// a valid single-record frame, a signed batch, truncations at interesting
// offsets and single-bit flips; for containers, the honest full,
// truncated and pruned-chain dumps of the compatibility fixture, and the
// malformed ones TestBinaryDumpRoundTrip lists.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"acctee/internal/sgx"
)

// FuzzVerifyReader mutates honest dump containers. The honest ones are the
// compatibility fixture's (a committed corpus needs a key that outlives
// the process that signed it), and the attested identity is the one its
// spill manifest records. Whatever the input:
//
//   - VerifyReader returns; it never panics;
//   - it allocates no more than a fixed multiple of the input's size (plus
//     the verifier's fixed buffers and MaxDumpShards' worth of lane state):
//     no length field can size an allocation the input does not back;
//   - if the input verifies under the attested key and measurement, the
//     verdict is one an honest container earns. Every honest seed's last
//     record is checkpoint-covered, so there is no unsigned tail a
//     mutation could cut or extend: nothing attested can be changed.
func FuzzVerifyReader(f *testing.F) {
	m, err := readSpillManifest(filepath.Join(compatDir, "spill-v2"))
	if err != nil {
		f.Fatal(err)
	}
	pub, err := ParsePublicKey(m.PublicKey)
	if err != nil {
		f.Fatal(err)
	}
	attested := VerifyOptions{Key: pub, Measurement: m.Measurement}
	var honest []VerifyResult
	var small []byte
	for _, name := range []string{"ledger-v3.bin", "ledger-v3-truncated.bin", "ledger-v3-unpruned.bin"} {
		raw, err := os.ReadFile(filepath.Join(compatDir, name))
		if err != nil {
			f.Fatal(err)
		}
		res, err := VerifyReader(bytes.NewReader(raw), attested)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		honest = append(honest, *res)
		f.Add(raw)
		small = raw
	}
	// Malformed: bytes after the terminator, no terminator, a flipped
	// record byte, a header length far beyond the input, and not a
	// container at all.
	hlen := int(binary.LittleEndian.Uint32(small[8:12]))
	f.Add(append(append([]byte(nil), small...), 0))
	f.Add(small[:len(small)-4])
	flipped := append([]byte(nil), small...)
	flipped[12+hlen+4+10] ^= 0x01
	f.Add(flipped)
	hostile := append([]byte(nil), small[:64]...)
	binary.LittleEndian.PutUint32(hostile[8:], maxBinDumpHeader)
	f.Add(hostile)
	f.Add([]byte(`{"format":"acctee-ledger/v2","records":[]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := VerifyReader(bytes.NewReader(data), attested)
		runtime.ReadMemStats(&after)
		// 64 KiB of bufio, 64 KiB of read step, 48 B of lane state for
		// each of up to MaxDumpShards shards, and the JSON decoder's
		// constant factor over the header text.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+(8<<20)); got > limit {
			t.Fatalf("verifying %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		for i := range honest {
			if *res == honest[i] {
				return
			}
		}
		t.Fatalf("a container no honest ledger wrote verifies under the attested key: %+v", *res)
	})
}

func FuzzBinFrameDecode(f *testing.F) {
	// Valid frames: single record, batch, eager-signed batch.
	f.Add(encodeBinFrame(codecFrame(1, false)))
	f.Add(encodeBinFrame(codecFrame(8, false)))
	f.Add(encodeBinFrame(codecFrame(3, true)))
	// Truncations: inside the length prefix, inside the payload, one byte
	// short of complete — the torn-tail classification boundaries.
	full := encodeBinFrame(codecFrame(2, false))
	f.Add(full[:3])
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-1])
	// Bit flips in the length prefix, payload, and CRC.
	for _, pos := range []int{0, 10, len(full) - 2} {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x80
		f.Add(mut)
	}
	// Two frames back to back, second one torn.
	f.Add(append(append([]byte(nil), full...), full[:7]...))
	// A good frame, then a length prefix just under the cap backed by one
	// byte: torn, and nothing near the declared gigabyte allocated.
	f.Add(append(append([]byte(nil), full...), hugeLengthTail...))
	// Frames that shrink, grow and alternate signed with unsigned, through
	// one reused reader.
	_, shapes := reuseFrames()
	f.Add(bytes.Join(shapes, nil))
	// Degenerate inputs.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		// The same bytes through one reader that refills its storage frame
		// after frame: it must agree with the fresh decode at every step.
		reusedBr := bufio.NewReader(bytes.NewReader(data))
		var reused frameReader
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var consumed int64
		for {
			fr, n, err := readBinFrame(br)
			rfr, rn, rerr := reused.next(reusedBr)
			if rn != n || (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
				t.Fatalf("fresh decode: %d bytes, %v; reused reader: %d bytes, %v", n, err, rn, rerr)
			}
			if err != nil {
				// Whatever the input, the decoder must terminate with
				// io.EOF (clean), errTornFrame (cut short), or a hard
				// decode error — never a panic (caught by the harness)
				// and never an allocation the input does not back.
				if err != io.EOF && err != errTornFrame && err == nil {
					t.Fatalf("impossible error state: %v", err)
				}
				break
			}
			if fr == nil || len(fr.Records) == 0 {
				t.Fatal("nil or empty frame returned without error")
			}
			if !reflect.DeepEqual(fr, rfr) {
				t.Fatalf("reused reader's frame differs from the fresh decode:\nreused %+v\nfresh  %+v", rfr, fr)
			}
			if n <= 8 {
				t.Fatalf("frame of %d records consumed only %d bytes", len(fr.Records), n)
			}
			consumed += n
			if consumed > int64(len(data)) {
				t.Fatalf("decoder consumed %d bytes of a %d-byte input", consumed, len(data))
			}
			// A frame the decoder accepts must survive a re-encode: the
			// codec is its own round-trip oracle.
			re := encodeBinFrame(fr)
			rt, _, err := readBinFrame(bufio.NewReader(bytes.NewReader(re)))
			if err != nil {
				t.Fatalf("re-encoded accepted frame does not decode: %v", err)
			}
			if !framesEqual(fr, rt) {
				t.Fatal("accepted frame does not round-trip through the codec")
			}
		}
		runtime.ReadMemStats(&after)
		// Two bufio readers, the 64 KiB read step on either side, and
		// decoded records at 192 B per 166 B of input, several times over
		// (fresh decode, reused decode, re-encode, its decode).
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+(4<<20)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}

// FuzzRecoverDir damages one file of a small honest spill directory — two
// shards, three seals, shard 0 sealed at 3, 6 and 9 records, shard 1 at 2,
// 4 and 6 — and reopens it. The input picks the file (in name order:
// manifest, checkpoint log, the two segment files), a position in it, and
// a byte to XOR in there; a zero byte cuts the file at the position
// instead. The directory is rebuilt by every process that runs the target
// (its key does not outlive the process), so a corpus entry names a place,
// not bytes. Whatever the damage, NewLedger never panics and either
//
//   - refuses, and the directory is byte for byte what it was handed; or
//   - opens a ledger whose anchor covers exactly what is spilled, which
//     seals one more record and closes into a directory that a second open
//     finds all of and leaves unchanged — and that VerifySpillDir accepts,
//     if it accepted the damaged image. (Recovery replays structure and
//     leaves signatures to the verifier: a checkpoint line with a flipped
//     signature byte reopens, and stays as unverifiable as it was.)
func FuzzRecoverDir(f *testing.F) {
	e, err := sgx.NewEnclave([]byte("acctee recovery fuzz"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		f.Fatal(err)
	}
	opts := func(dir string) LedgerOptions {
		return LedgerOptions{Shards: 2, Retention: RetentionPolicy{SegmentRecords: 4, SpillDir: dir}}
	}
	readAll := func(t testing.TB, dir string) map[string][]byte {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, ent := range entries {
			if files[ent.Name()], err = os.ReadFile(filepath.Join(dir, ent.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	honestDir := f.TempDir()
	l, err := NewLedger(e, opts(honestDir))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, _, err := l.AppendShard(uint32(i%5%2), codecLog(i)); err != nil {
			f.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := l.Compact(); err != nil {
				f.Fatal(err)
			}
		}
	}
	l.Close()
	honest := readAll(f, honestDir)
	var names []string
	for name := range honest {
		names = append(names, name)
	}
	sort.Strings(names)
	const log, seg1 = 1, 3
	if len(names) != 4 || names[log] != checkpointsName || names[seg1] != shardFileName(1) {
		f.Fatalf("the honest directory holds %v", names)
	}

	// The two defects this target was written after, placed exactly: a
	// checkpoint log torn seven bytes short, and the last line's shard-0
	// count rotted from 9 to 6 — the frame boundary of the seal before.
	// The committed corpus (testdata/fuzz/FuzzRecoverDir) holds them too,
	// at the offsets they usually have (a signature is now and then a byte
	// shorter), beside a log cut to nothing and to its first line; a
	// segment file cut mid-frame, flipped in its first length prefix (a
	// torn first frame: no checkpoint is anchored), in a record and in its
	// last CRC byte; and a manifest cut short and rotted.
	cps := honest[checkpointsName]
	f.Add(uint8(log), uint32(len(cps)-7), uint8(0))
	lastLine := bytes.LastIndexByte(cps[:len(cps)-1], '\n') + 1
	count := lastLine + bytes.Index(cps[lastLine:], []byte(`"count":9`)) + len(`"count":`)
	f.Add(uint8(log), uint32(count), uint8('9'^'6'))

	f.Fuzz(func(t *testing.T, file uint8, pos uint32, xor uint8) {
		dir := t.TempDir()
		for name, raw := range honest {
			if name == names[int(file)%len(names)] {
				raw = append([]byte(nil), raw...)
				if at := int(pos) % len(raw); xor == 0 {
					raw = raw[:at]
				} else {
					raw[at] ^= xor
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		damaged := readAll(t, dir)
		verify := VerifyOptions{Key: e.PublicKey()}
		_, unverifiable := VerifySpillDir(dir, verify)
		l, err := NewLedger(e, opts(dir))
		if err != nil {
			if !reflect.DeepEqual(readAll(t, dir), damaged) {
				t.Fatalf("NewLedger refused (%v) a directory it had already modified", err)
			}
			return
		}
		defer l.Close()
		spilled := l.SpilledRecords()
		var covered uint64
		if a, ok := l.Anchor(); ok {
			covered = a.Checkpoint.Covered()
		}
		if covered != spilled {
			t.Fatalf("recovered anchor covers %d records, %d are spilled", covered, spilled)
		}
		// One more seal, so that whatever the recovery left behind has
		// something appended onto it.
		if _, _, err := l.AppendShard(0, codecLog(99)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Compact(); err != nil {
			t.Fatalf("compact after recovery: %v", err)
		}
		l.Close()
		recovered := readAll(t, dir)
		if _, err := VerifySpillDir(dir, verify); err != nil && unverifiable == nil {
			t.Fatalf("the damaged directory verified; recovered, sealed once more and closed it does not: %v", err)
		}
		l2, err := NewLedger(e, opts(dir))
		if err != nil {
			t.Fatalf("second open of a directory the first recovered: %v", err)
		}
		again := l2.SpilledRecords()
		l2.Close()
		if again != spilled+1 || !reflect.DeepEqual(readAll(t, dir), recovered) {
			t.Fatalf("second open finds %d spilled records (the first left %d) or changed the directory", again, spilled+1)
		}
	})
}
