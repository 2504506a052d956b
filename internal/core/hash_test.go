package core_test

import (
	"crypto/sha256"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/wasm"
	wasmbin "acctee/internal/wasm/binary"
)

// TestModuleHashIsSHA256OfEncode: the hash ModuleHash streams through the
// encoder is the SHA-256 of the bytes Encode returns, on every module of the
// footprint set as built and loop-instrumented.
func TestModuleHashIsSHA256OfEncode(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set {
		res, err := instrument.Instrument(p.Module, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*wasm.Module{p.Module, res.Module} {
			bin, err := wasmbin.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.ModuleHash(m)
			if err != nil {
				t.Fatal(err)
			}
			if got != sha256.Sum256(bin) {
				t.Errorf("%s: ModuleHash %x, sha256(Encode) %x", p.Name, got, sha256.Sum256(bin))
			}
		}
	}
}
