// Package binary encodes and decodes WebAssembly modules in the binary
// format (wasm 1.0). AccTEE needs the codec for the §5.4 binary-size
// experiment and so instrumented modules can be shipped to accounting
// enclaves exactly like compiler-produced binaries.
package binary

import (
	"bytes"
	"fmt"

	"acctee/internal/wasm"
)

// Magic and version of the wasm binary format.
var header = []byte{0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00}

// Section ids.
const (
	secType     = 1
	secImport   = 2
	secFunction = 3
	secTable    = 4
	secMemory   = 5
	secGlobal   = 6
	secExport   = 7
	secStart    = 8
	secElement  = 9
	secCode     = 10
	secData     = 11
)

// Encode serialises a module to wasm binary.
func Encode(m *wasm.Module) ([]byte, error) {
	var out bytes.Buffer
	out.Write(header)

	sec := func(id byte, payload []byte) {
		if len(payload) == 0 {
			return
		}
		out.WriteByte(id)
		writeU32(&out, uint32(len(payload)))
		out.Write(payload)
	}

	// Type section.
	if len(m.Types) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Types)))
		for _, t := range m.Types {
			b.WriteByte(0x60)
			writeU32(&b, uint32(len(t.Params)))
			for _, p := range t.Params {
				b.WriteByte(byte(p))
			}
			writeU32(&b, uint32(len(t.Results)))
			for _, r := range t.Results {
				b.WriteByte(byte(r))
			}
		}
		sec(secType, b.Bytes())
	}

	// Import section.
	if len(m.Imports) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Imports)))
		for _, im := range m.Imports {
			writeName(&b, im.Module)
			writeName(&b, im.Name)
			b.WriteByte(byte(im.Kind))
			switch im.Kind {
			case wasm.ExternalFunc:
				writeU32(&b, im.TypeIdx)
			case wasm.ExternalMemory:
				writeLimits(&b, im.MemLimit)
			default:
				return nil, fmt.Errorf("binary: unsupported import kind %d", im.Kind)
			}
		}
		sec(secImport, b.Bytes())
	}

	// Function section.
	if len(m.Funcs) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Funcs)))
		for _, f := range m.Funcs {
			writeU32(&b, f.TypeIdx)
		}
		sec(secFunction, b.Bytes())
	}

	// Table section.
	if len(m.Tables) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Tables)))
		for _, t := range m.Tables {
			b.WriteByte(0x70) // funcref
			writeLimits(&b, t.Limits)
		}
		sec(secTable, b.Bytes())
	}

	// Memory section.
	if len(m.Memories) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Memories)))
		for _, mem := range m.Memories {
			writeLimits(&b, mem.Limits)
		}
		sec(secMemory, b.Bytes())
	}

	// Global section.
	if len(m.Globals) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Globals)))
		for _, g := range m.Globals {
			b.WriteByte(byte(g.Type))
			if g.Mutable {
				b.WriteByte(1)
			} else {
				b.WriteByte(0)
			}
			if err := encodeInstr(&b, g.Init, nil); err != nil {
				return nil, err
			}
			b.WriteByte(byte(wasm.OpEnd))
		}
		sec(secGlobal, b.Bytes())
	}

	// Export section.
	if len(m.Exports) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Exports)))
		for _, e := range m.Exports {
			writeName(&b, e.Name)
			b.WriteByte(byte(e.Kind))
			writeU32(&b, e.Idx)
		}
		sec(secExport, b.Bytes())
	}

	// Start section.
	if m.Start != nil {
		var b bytes.Buffer
		writeU32(&b, *m.Start)
		sec(secStart, b.Bytes())
	}

	// Element section.
	if len(m.Elements) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Elements)))
		for _, e := range m.Elements {
			writeU32(&b, 0) // table index
			if err := encodeInstr(&b, e.Offset, nil); err != nil {
				return nil, err
			}
			b.WriteByte(byte(wasm.OpEnd))
			writeU32(&b, uint32(len(e.Funcs)))
			for _, f := range e.Funcs {
				writeU32(&b, f)
			}
		}
		sec(secElement, b.Bytes())
	}

	// Code section.
	if len(m.Funcs) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Funcs)))
		for i := range m.Funcs {
			body, err := encodeBody(&m.Funcs[i])
			if err != nil {
				return nil, fmt.Errorf("binary: func %d: %w", i, err)
			}
			writeU32(&b, uint32(len(body)))
			b.Write(body)
		}
		sec(secCode, b.Bytes())
	}

	// Data section.
	if len(m.Data) > 0 {
		var b bytes.Buffer
		writeU32(&b, uint32(len(m.Data)))
		for _, d := range m.Data {
			writeU32(&b, 0) // memory index
			if err := encodeInstr(&b, d.Offset, nil); err != nil {
				return nil, err
			}
			b.WriteByte(byte(wasm.OpEnd))
			writeU32(&b, uint32(len(d.Bytes)))
			b.Write(d.Bytes)
		}
		sec(secData, b.Bytes())
	}

	return out.Bytes(), nil
}

func encodeBody(f *wasm.Func) ([]byte, error) {
	var b bytes.Buffer
	// Locals, run-length compressed by type.
	type run struct {
		t wasm.ValueType
		n uint32
	}
	var runs []run
	for _, l := range f.Locals {
		if len(runs) > 0 && runs[len(runs)-1].t == l {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{t: l, n: 1})
		}
	}
	writeU32(&b, uint32(len(runs)))
	for _, r := range runs {
		writeU32(&b, r.n)
		b.WriteByte(byte(r.t))
	}
	for _, in := range f.Body {
		if err := encodeInstr(&b, in, f); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// encodeInstr encodes one instruction of f's body, whose BrTables hold the
// targets of its br_tables. Constant expressions pass a nil f.
func encodeInstr(b *bytes.Buffer, in wasm.Instr, f *wasm.Func) error {
	b.WriteByte(byte(in.Op))
	switch in.Op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		bt := in.BT
		if bt == 0 {
			bt = wasm.BlockEmpty
		}
		b.WriteByte(byte(bt))
	case wasm.OpBr, wasm.OpBrIf, wasm.OpCall, wasm.OpLocalGet, wasm.OpLocalSet,
		wasm.OpLocalTee, wasm.OpGlobalGet, wasm.OpGlobalSet:
		writeU32(b, in.Idx)
	case wasm.OpCallIndirect:
		writeU32(b, in.Idx)
		b.WriteByte(0) // table index
	case wasm.OpBrTable:
		var targets []uint32
		if f != nil {
			targets = f.BrTable(in)
		}
		if len(targets) == 0 {
			return fmt.Errorf("br_table without targets")
		}
		writeU32(b, uint32(len(targets)-1))
		for _, t := range targets {
			writeU32(b, t)
		}
	case wasm.OpI32Const:
		writeS64(b, int64(in.I32Val()))
	case wasm.OpI64Const:
		writeS64(b, in.I64Val())
	case wasm.OpF32Const:
		v := uint32(in.U64)
		b.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	case wasm.OpF64Const:
		v := in.U64
		b.Write([]byte{
			byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
			byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
		})
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		b.WriteByte(0) // memory index
	default:
		if in.Op.IsMemAccess() {
			writeU32(b, uint32(in.Align))
			writeU32(b, in.Offset())
		}
	}
	return nil
}

func writeName(b *bytes.Buffer, s string) {
	writeU32(b, uint32(len(s)))
	b.WriteString(s)
}

func writeLimits(b *bytes.Buffer, l wasm.Limits) {
	if l.HasMax {
		b.WriteByte(1)
		writeU32(b, l.Min)
		writeU32(b, l.Max)
	} else {
		b.WriteByte(0)
		writeU32(b, l.Min)
	}
}

// writeU32 writes an unsigned LEB128.
func writeU32(b *bytes.Buffer, v uint32) {
	for {
		c := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			b.WriteByte(c | 0x80)
		} else {
			b.WriteByte(c)
			return
		}
	}
}

// writeS64 writes a signed LEB128.
func writeS64(b *bytes.Buffer, v int64) {
	for {
		c := byte(v & 0x7F)
		v >>= 7
		if (v == 0 && c&0x40 == 0) || (v == -1 && c&0x40 != 0) {
			b.WriteByte(c)
			return
		}
		b.WriteByte(c | 0x80)
	}
}
