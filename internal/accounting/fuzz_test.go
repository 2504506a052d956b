package accounting

// Fuzz harnesses for the two parsers of untrusted bytes: the spill-frame
// decoder, which fronts every byte crash recovery and the offline
// verifier read off disk, and the dump-container verifier, which is
// handed whatever a provider chooses to serve. Neither may panic or
// over-allocate, whatever a hostile or half-written input feeds it. Run
// with:
//
//	go test -fuzz=FuzzBinFrameDecode -fuzztime=30s ./internal/accounting
//	go test -fuzz=FuzzVerifyReader -fuzztime=30s ./internal/accounting
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
	"testing"
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
