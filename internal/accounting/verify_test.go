package accounting_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"acctee/internal/accounting"
	"acctee/internal/sgx"
)

// buildDump creates a ledger with `records` records across 4 shards,
// checkpointing every `cpEvery` appends, and returns the in-memory dump
// plus its serialisation (the dump container).
func buildDump(t *testing.T, records, cpEvery int) (*accounting.Dump, []byte) {
	t.Helper()
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{Shards: 4})
	defer l.Close()
	for i := 0; i < records; i++ {
		if _, _, err := l.Append(logFor(i%7, i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%cpEvery == 0 {
			if _, err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d, err := l.Dump()
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := l.WriteDump(&c, accounting.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	return d, c.Bytes()
}

// readDump materialises a container — also the tests' way to get a private
// deep copy of a dump to mutate.
func readDump(t *testing.T, container []byte) *accounting.Dump {
	t.Helper()
	d, err := accounting.ReadDump(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestVerifyDumpHappyPath(t *testing.T) {
	d, c := buildDump(t, 200, 50)
	res, err := accounting.VerifyDump(d, accounting.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 checkpoints: one per 50 appends; the final Checkpoint() call finds
	// nothing new and returns the last one instead of signing a duplicate.
	if res.Records != 200 || res.Shards != 4 || res.Checkpoints != 4 || res.CoveredRecords != 200 {
		t.Fatalf("result %+v", res)
	}
	if res.Totals != d.Checkpoints[len(d.Checkpoints)-1].Checkpoint.Totals {
		t.Fatal("replayed totals differ from final checkpoint totals")
	}
	// The serialised round trip verifies identically (the acctee-verify path).
	res2, err := accounting.VerifyReader(bytes.NewReader(c), accounting.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *res2 != *res {
		t.Fatalf("reader result %+v != direct result %+v", res2, res)
	}
	// Measurement pinning: the wrong expectation must fail.
	if _, err := accounting.VerifyDump(d, accounting.VerifyOptions{Measurement: sgx.MeasureCode([]byte("evil"))}); err == nil {
		t.Fatal("wrong measurement accepted")
	}
	// A verifier-supplied key that is not the signer must fail.
	other := newEnclave(t)
	if _, err := accounting.VerifyDump(d, accounting.VerifyOptions{Key: other.PublicKey()}); err == nil {
		t.Fatal("wrong key accepted")
	}
}

// TestVerifyDetectsSingleFlippedByte pins the acceptance criterion: a
// single flipped byte anywhere in a serialised ledger must be detected —
// either the container no longer parses, or verification fails, or (for
// flips in the header's JSON cosmetics, e.g. the case of a key name) the
// parsed content is bit-identical to the original, i.e. nothing was
// actually tampered with. Every byte of a small container is flipped, and
// a 10k-record one is sampled across its whole length. Under -race, where
// every verification runs the hash-ahead stage's reader and hashers under
// the detector, every 16th byte of the small container is flipped and the
// large one is left out.
func TestVerifyDetectsSingleFlippedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-record dump")
	}
	rng := rand.New(rand.NewSource(42))
	check := func(orig *accounting.Dump, c []byte, pos int) {
		t.Helper()
		flip := byte(1 + rng.Intn(255))
		mut := append([]byte(nil), c...)
		mut[pos] ^= flip
		if _, err := accounting.VerifyReader(bytes.NewReader(mut), accounting.VerifyOptions{}); err != nil {
			return // unparsable or an integrity violation: detected
		}
		// Verification passed: the flip must have been cosmetic — the
		// parsed content must be exactly the original's.
		if d := readDump(t, mut); !reflect.DeepEqual(d, orig) {
			t.Fatalf("flip of byte %d of %d (xor %#x) changed ledger content yet verified", pos, len(c), flip)
		}
	}

	small, sc := buildDump(t, 24, 12)
	stride := 1
	if raceEnabled {
		stride = 16
	}
	for pos := 0; pos < len(sc); pos += stride {
		check(small, sc, pos)
	}
	if raceEnabled {
		return
	}

	// Deterministic sample of flip positions across the whole 10k-record
	// container, plus targeted hits on every structural region: magic,
	// header length, the header's fields, the first record's length
	// prefix and the terminator.
	orig, c := buildDump(t, 10_000, 2_500)
	positions := []int{0, 7, 8, 11, len(c) - 4, len(c) - 1}
	for i := 0; i < 128; i++ {
		positions = append(positions, rng.Intn(len(c)))
	}
	hlen := int(binary.LittleEndian.Uint32(c[8:12]))
	positions = append(positions, 12+hlen, 12+hlen+3, 12+hlen+4)
	for _, marker := range []string{
		`"format"`, `"publicKey"`, `"measurement"`, `"shards"`,
		`"checkpoint"`, `"signature"`, `"totals"`, `"heads"`, `"records"`,
	} {
		idx := bytes.Index(c[:12+hlen], []byte(marker))
		if idx < 0 {
			t.Fatalf("container header has no %s", marker)
		}
		positions = append(positions, idx+2, idx+len(marker)+4)
	}
	for _, pos := range positions {
		check(orig, c, pos)
	}
}

// TestVerifyDetectsStructuralTampering drives the verifier's individual
// checks through semantic (parsed-level) mutations.
func TestVerifyDetectsStructuralTampering(t *testing.T) {
	_, c := buildDump(t, 60, 20)
	cases := []struct {
		name   string
		mutate func(*accounting.Dump)
	}{
		{"undercharge a record", func(d *accounting.Dump) { d.Records[30].Log.WeightedInstructions /= 2 }},
		{"drop a record", func(d *accounting.Dump) { d.Records = append(d.Records[:10], d.Records[11:]...) }},
		{"reorder two records", func(d *accounting.Dump) {
			d.Records[5], d.Records[6] = d.Records[6], d.Records[5]
		}},
		{"splice a forged record", func(d *accounting.Dump) {
			r := d.Records[12]
			r.Log.WeightedInstructions = 0
			r.Hash = r.ComputeHash() // self-consistent, but breaks the successor's PrevHash
			d.Records[12] = r
		}},
		{"truncate a shard", func(d *accounting.Dump) {
			// Remove the last record of shard 3: the final checkpoint's
			// count for that shard no longer matches the dump.
			last := len(d.Records) - 1
			d.Records = d.Records[:last]
		}},
		{"inflate checkpoint totals", func(d *accounting.Dump) {
			d.Checkpoints[1].Checkpoint.Totals.WeightedInstructions++
		}},
		{"drop a checkpoint", func(d *accounting.Dump) { d.Checkpoints = d.Checkpoints[1:] }},
		{"swap checkpoint order", func(d *accounting.Dump) {
			d.Checkpoints[0], d.Checkpoints[1] = d.Checkpoints[1], d.Checkpoints[0]
		}},
		{"truncate checkpoint signature", func(d *accounting.Dump) {
			sig := d.Checkpoints[0].Signature
			d.Checkpoints[0].Signature = sig[:len(sig)-1]
		}},
		{"wrong measurement", func(d *accounting.Dump) { d.Measurement[0] ^= 1 }},
	}
	for _, tc := range cases {
		d := readDump(t, c)
		tc.mutate(d)
		if _, err := accounting.VerifyDump(d, accounting.VerifyOptions{}); err == nil {
			t.Errorf("%s: tampered dump verified", tc.name)
		}
	}
}
