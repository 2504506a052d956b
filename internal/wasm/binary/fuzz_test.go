package binary_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/wasm"
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

// chunkWriter keeps a copy of every chunk written to it: what a hash or a
// file sees of EncodeTo's stream, which reuses its buffers between writes.
type chunkWriter struct{ chunks [][]byte }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, bytes.Clone(p))
	return len(p), nil
}

// streamed is m's encoding as EncodeTo streams it, chunk by chunk.
func streamed(m *wasm.Module) ([]byte, error) {
	var w chunkWriter
	err := binary.EncodeTo(&w, m)
	return bytes.Join(w.chunks, nil), err
}

// failWriter fails its nth write and accepts the others.
type failWriter struct{ n int }

var errWrite = errors.New("write refused")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n--; w.n == 0 {
		return 0, errWrite
	}
	return len(p), nil
}

// TestEncodeToStreamsEncode: on every module of the footprint set, the
// chunks EncodeTo writes join to the bytes Encode returns, and a writer's
// error at any chunk comes back from EncodeTo.
func TestEncodeToStreamsEncode(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(set, bench.FootprintProgram{Name: "br_table", Module: brTableModule()}) {
		want, err := binary.Encode(p.Module)
		if err != nil {
			t.Fatal(err)
		}
		var w chunkWriter
		if err := binary.EncodeTo(&w, p.Module); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(w.chunks, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed %d bytes differ from Encode's %d", p.Name, len(got), len(want))
		}
		for n := 1; n <= len(w.chunks); n++ {
			if err := binary.EncodeTo(&failWriter{n: n}, p.Module); !errors.Is(err, errWrite) {
				t.Fatalf("%s: write %d of %d refused, EncodeTo returned %v", p.Name, n, len(w.chunks), err)
			}
		}
	}
}

// FuzzBinaryRoundTrip: whatever Decode accepts re-encodes to bytes that
// decode to an equal module and re-encode byte for byte, and EncodeTo
// streams those same bytes. Encoding is canonical (minimal LEBs, no custom
// sections), so the first re-encoding may differ from the input, but from
// there on the pair is a fixed point. The seeds are the footprint set's
// encodings and a br_table module.
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
		if stream, err := streamed(m); err != nil || !bytes.Equal(stream, enc) {
			t.Fatalf("EncodeTo streams other bytes than Encode returns (%v)", err)
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
