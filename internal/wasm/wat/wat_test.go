package wat_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"acctee/internal/wasm"
	"acctee/internal/wasm/validate"
	"acctee/internal/wasm/wat"
)

// complexModule builds a module exercising every construct the printer and
// parser must handle.
func complexModule() *wasm.Module {
	b := wasm.NewModule("kitchen")
	emit := b.ImportFunc("env", "emit", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	b.Memory(1, 16)
	g := b.Global("wic", wasm.I64, true, wasm.ConstI64(0))
	b.Data(16, []byte("hi\x00\xff\"\\"))

	f := b.Func("main", []wasm.ValueType{wasm.I32, wasm.F64}, []wasm.ValueType{wasm.I32})
	l := f.Local(wasm.I32)
	f.GlobalGet(g).I64ConstV(3).Op(wasm.OpI64Add).GlobalSet(g)
	f.LocalGet(0).Call(emit).LocalSet(l)
	f.ForI32(l, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.ConstI32(4)}, 1, func() {
		f.LocalGet(l).LocalGet(l).Store(wasm.OpI32Store, 64)
	})
	f.LocalGet(1).F64ConstV(1.5).Op(wasm.OpF64Mul).Op(wasm.OpI32TruncF64S)
	f.If(wasm.BlockOf(wasm.I32), func() {
		f.I32Const(1)
	}, func() {
		f.I32Const(0)
	})
	b.ExportFunc("main", f.End())

	h := b.Func("helper", nil, nil)
	h.Block(wasm.BlockEmpty, func() {
		h.I32Const(1).BrIf(0)
		h.BrTable(0, 0)
	})
	hIdx := h.End()
	b.Table(hIdx)
	return b.MustBuild()
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := complexModule()
	text := wat.Print(m)
	back, err := wat.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	// Names of functions/globals survive only partially (auto names differ),
	// so blank them before comparing.
	norm := func(m *wasm.Module) *wasm.Module {
		c := m.Clone()
		for i := range c.Funcs {
			c.Funcs[i].Name = ""
		}
		for i := range c.Globals {
			c.Globals[i].Name = ""
		}
		c.Name = ""
		return c
	}
	a, bm := norm(m), norm(back)
	if !reflect.DeepEqual(a, bm) {
		t.Fatalf("round-trip mismatch\n--- original ---\n%s\n--- reprinted ---\n%s", text, wat.Print(back))
	}
}

func TestPrintParseIdempotent(t *testing.T) {
	m := complexModule()
	t1 := wat.Print(m)
	back, err := wat.Parse(t1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	t2 := wat.Print(back)
	back2, err := wat.Parse(t2)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	t3 := wat.Print(back2)
	if t2 != t3 {
		t.Error("printing is not a fixed point after one round trip")
	}
}

func TestParseHandWritten(t *testing.T) {
	src := `
(module $demo
  ;; a line comment
  (memory 1)
  (global $c (mut i64) (i64.const 0))
  (func $double (param i32) (result i32)
    local.get 0
    i32.const 2
    i32.mul
  )
  (export "double" (func $double))
  (export "memory" (memory 0))
)`
	m, err := wat.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Name != "demo" || len(m.Funcs) != 1 || len(m.Globals) != 1 {
		t.Fatalf("unexpected module shape: %+v", m)
	}
	idx, ok := m.ExportedFunc("double")
	if !ok || idx != 0 {
		t.Errorf("export double: idx=%d ok=%v", idx, ok)
	}
	if got := len(m.Funcs[0].Body); got != 4 { // 3 instrs + end
		t.Errorf("body len = %d, want 4", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"(module",
		`(module (func $f (result i32) bogus.op))`,
		`(module (data (i32.const 0)))`,
		`(module (export "x" (func $missing)))`,
	}
	for _, src := range cases {
		if _, err := wat.Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestBlockCommentsAndStrings(t *testing.T) {
	src := `(module (; block (; nested ;) comment ;) (memory 2 4))`
	m, err := wat.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(m.Memories) != 1 || m.Memories[0].Limits.Min != 2 || m.Memories[0].Limits.Max != 4 {
		t.Errorf("memory = %+v", m.Memories)
	}
}

// TestAlignExponentFits: align= is in bytes and is stored as the exponent
// of the smallest power of two not below it. A 32-bit value has an exponent
// of at most 32, so it always fits in Instr.Align and never wraps: an
// alignment wider than the access reaches the validator and is refused.
func TestAlignExponentFits(t *testing.T) {
	src := func(align string) string {
		return `(module (memory 1) (func $f (result i32) i32.const 0 i32.load offset=4 ` + align + `))`
	}
	for align, exp := range map[string]byte{
		"align=4":          2,
		"align=3":          2,
		"align=256":        8,
		"align=2147483649": 32,
		"align=4294967295": 32,
	} {
		m, err := wat.Parse(src(align))
		if err != nil {
			t.Fatalf("%s: %v", align, err)
		}
		in := m.Funcs[0].Body[1]
		if in.Align != exp || in.Offset() != 4 {
			t.Errorf("%s: align 2^%d offset %d, want 2^%d offset 4", align, in.Align, in.Offset(), exp)
		}
		err = validate.Module(m)
		if want := fmt.Sprintf("alignment 2^%d larger than access width", exp); exp > 2 &&
			(err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: validate err = %v, want %q", align, err, want)
		}
	}
	if _, err := wat.Parse(src("align=4294967296")); err == nil || !strings.Contains(err.Error(), "bad align") {
		t.Errorf("align past 32 bits: err = %v", err)
	}
}

// TestBrTableTargetsRoundTrip: br_table targets parse into the function's
// side table and print back from it.
func TestBrTableTargetsRoundTrip(t *testing.T) {
	m, err := wat.Parse(`(module (func $f (param i32)
		block
		  block
		    local.get 0
		    br_table 1 0 1
		  end
		  local.get 0
		  br_table 0
		end))`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]uint32{{1, 0, 1}, {0}}; !reflect.DeepEqual(m.Funcs[0].BrTables, want) {
		t.Errorf("BrTables = %v, want %v", m.Funcs[0].BrTables, want)
	}
	text := wat.Print(m)
	for _, line := range []string{"br_table 1 0 1\n", "br_table 0\n"} {
		if !strings.Contains(text, line) {
			t.Errorf("printed module lacks %q:\n%s", line, text)
		}
	}
}
