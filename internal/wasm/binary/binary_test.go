package binary_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"acctee/internal/wasm"
	"acctee/internal/wasm/binary"
)

func demoModule() *wasm.Module {
	b := wasm.NewModule("")
	emit := b.ImportFunc("env", "emit", []wasm.ValueType{wasm.I32}, nil)
	b.Memory(1, 8)
	g := b.Global("", wasm.I64, true, wasm.ConstI64(-7))
	b.Data(8, []byte{0, 1, 2, 255})
	f := b.Func("", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	l := f.Local(wasm.F64)
	f.GlobalGet(g).I64ConstV(1).Op(wasm.OpI64Add).GlobalSet(g)
	f.F64ConstV(2.5).LocalSet(l)
	f.LocalGet(0).Call(emit)
	f.LocalGet(0).I32Const(-123456).Op(wasm.OpI32Add)
	fIdx := f.End()
	b.ExportFunc("run", fIdx)
	b.Table(fIdx)
	return b.MustBuild()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := demoModule()
	bin, err := binary.Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := binary.Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// Binary format drops names; blank them on the source for comparison.
	c := m.Clone()
	c.Name = ""
	for i := range c.Funcs {
		c.Funcs[i].Name = ""
	}
	for i := range c.Globals {
		c.Globals[i].Name = ""
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, c)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := binary.Decode([]byte("not wasm at all")); err == nil {
		t.Error("expected error for bad magic")
	}
	bin, _ := binary.Encode(demoModule())
	if _, err := binary.Decode(bin[:len(bin)-3]); err == nil {
		t.Error("expected error for truncated module")
	}
}

func TestHeaderStable(t *testing.T) {
	bin, err := binary.Encode(&wasm.Module{})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	want := []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}
	if len(bin) != 8 || !reflect.DeepEqual(bin, want) {
		t.Errorf("empty module encoding = % x", bin)
	}
}

// TestLEBConstRoundTrip property-checks signed constant encoding through a
// module round trip.
func TestLEBConstRoundTrip(t *testing.T) {
	f := func(v32 int32, v64 int64) bool {
		b := wasm.NewModule("")
		fb := b.Func("", nil, []wasm.ValueType{wasm.I64})
		fb.I32Const(v32).Op(wasm.OpDrop)
		fb.I64ConstV(v64)
		b.ExportFunc("c", fb.End())
		bin, err := binary.Encode(b.MustBuild())
		if err != nil {
			return false
		}
		back, err := binary.Decode(bin)
		if err != nil {
			return false
		}
		body := back.Funcs[0].Body
		return body[0].I32Val() == v32 && body[2].I64Val() == v64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFloatConstRoundTrip property-checks float bit patterns.
func TestFloatConstRoundTrip(t *testing.T) {
	f := func(f32 float32, f64 float64) bool {
		b := wasm.NewModule("")
		fb := b.Func("", nil, []wasm.ValueType{wasm.F64})
		fb.F32ConstV(f32).Op(wasm.OpDrop)
		fb.F64ConstV(f64)
		b.ExportFunc("c", fb.End())
		bin, err := binary.Encode(b.MustBuild())
		if err != nil {
			return false
		}
		back, err := binary.Decode(bin)
		if err != nil {
			return false
		}
		body := back.Funcs[0].Body
		// compare bit patterns (NaN-safe)
		return body[0].U64 == uint64(mathFloat32bits(f32)) && body[2].U64 == mathFloat64bits(f64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mathFloat32bits(f float32) uint32 { return uint32(wasm.ConstF32(f).U64) }
func mathFloat64bits(f float64) uint64 { return wasm.ConstF64(f).U64 }

// uleb is the unsigned LEB128 encoding of v.
func uleb(v uint32) []byte {
	var out []byte
	for {
		b := byte(v & 0x7f)
		if v >>= 7; v == 0 {
			return append(out, b)
		}
		out = append(out, b|0x80)
	}
}

// TestDecodeLocalsCeiling: locals are run-length encoded, so a function
// body of eight bytes can declare 2^32-1 of them. The decoder refuses a
// function past MaxLocals before it appends anything for the offending
// run, and a refused module costs less than 1 MiB to refuse.
func TestDecodeLocalsCeiling(t *testing.T) {
	type run struct {
		n  uint32
		vt wasm.ValueType
	}
	for _, tc := range []struct {
		name    string
		runs    []run
		wantErr bool
	}{
		{"eight-byte body, 2^32-1 locals", []run{{1<<32 - 1, wasm.I32}}, true},
		{"2^24 locals in one run", []run{{1 << 24, wasm.I32}}, true},
		{"second run crosses the limit", []run{{binary.MaxLocals, wasm.I32}, {1, wasm.I64}}, true},
		{"exactly at the limit", []run{{binary.MaxLocals, wasm.I32}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := uleb(uint32(len(tc.runs)))
			for _, r := range tc.runs {
				body = append(append(body, uleb(r.n)...), byte(r.vt))
			}
			body = append(body, 0x0B) // end
			code := append(append([]byte{1}, uleb(uint32(len(body)))...), body...)
			mod := []byte{0, 'a', 's', 'm', 1, 0, 0, 0,
				1, 4, 1, 0x60, 0, 0, // one type: () -> ()
				3, 2, 1, 0, // one function of that type
				10}
			mod = append(append(mod, uleb(uint32(len(code)))...), code...)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := binary.Decode(mod)
			runtime.ReadMemStats(&after)
			if !tc.wantErr {
				if err != nil || len(m.Funcs[0].Locals) != binary.MaxLocals {
					t.Fatalf("a function with exactly MaxLocals locals: %v", err)
				}
				return
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("decoding a %d-byte module allocated %d bytes", len(mod), got)
			}
			if err == nil || !strings.Contains(err.Error(), "too many locals (limit 50000)") {
				t.Errorf("err = %v, want the locals ceiling", err)
			}
		})
	}
}
