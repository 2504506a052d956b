package binary_test

import (
	"bytes"
	"reflect"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/wasm/binary"
)

// TestDecodeSizesBodiesExactly: a decoded body is allocated once, at its
// exact size, so a module kept after decoding holds no spare capacity.
func TestDecodeSizesBodiesExactly(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set {
		bin, err := binary.Encode(p.Module)
		if err != nil {
			t.Fatal(err)
		}
		m, err := binary.Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range m.Funcs {
			if cap(f.Body) != len(f.Body) {
				t.Errorf("%s func %d: body of %d instructions has capacity %d", p.Name, i, len(f.Body), cap(f.Body))
			}
		}
	}
}

// FuzzBinaryRoundTrip: whatever Decode accepts re-encodes to bytes that
// decode to an equal module and re-encode byte for byte. Encoding is
// canonical (minimal LEBs, no custom sections), so the first re-encoding
// may differ from the input, but from there on the pair is a fixed point.
// The seeds are the footprint set's encodings and a br_table module.
func FuzzBinaryRoundTrip(f *testing.F) {
	set, err := bench.FootprintSet()
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range set {
		bin, err := binary.Encode(p.Module)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	bin, err := binary.Encode(brTableModule())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := binary.Decode(data)
		if err != nil {
			return
		}
		enc, err := binary.Encode(m)
		if err != nil {
			t.Fatalf("decoded module does not encode: %v", err)
		}
		back, err := binary.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("re-encoding decodes to a different module:\n got %+v\nwant %+v", back, m)
		}
		again, err := binary.Encode(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("second encoding differs from the first (%v)", err)
		}
	})
}
