package instrument_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/core"
	"acctee/internal/instrument"
)

// TestInstrumentedModulesPinned pins the instrumented footprint set at every
// level: the modules hash as they always have (one SHA-256 over the
// sequence of core.ModuleHash values), and every rebuilt body is sized
// exactly, with no capacity beyond its instructions left to the artifacts
// that keep it.
func TestInstrumentedModulesPinned(t *testing.T) {
	set, err := bench.FootprintSet()
	if err != nil {
		t.Fatal(err)
	}
	want := map[instrument.Level]string{
		instrument.Naive:     "831a6dd37e2e9585cccab683a21f2ac3239c71a2fb4a55aff440bd7c99ad8af5",
		instrument.FlowBased: "c5850b2f2edb1d47611d934bb304065dff6e10c7689c43b36d77cd83cd90f912",
		instrument.LoopBased: "de7dbff1f3d7dcfcf32c972fd8e27eeb32572650981d9e95d9f2c667b3e0b476",
	}
	for level, digest := range want {
		h := sha256.New()
		for _, p := range set {
			res, err := instrument.Instrument(p.Module, instrument.Options{Level: level})
			if err != nil {
				t.Fatal(err)
			}
			mh, err := core.ModuleHash(res.Module)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(mh[:])
			for i, f := range res.Module.Funcs {
				if cap(f.Body) != len(f.Body) {
					t.Errorf("%s %v func %d: body of %d instructions has capacity %d", p.Name, level, i, len(f.Body), cap(f.Body))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("%v: instrumented set hashes to %s, want %s", level, got, digest)
		}
	}
}
