// Package binary encodes and decodes WebAssembly modules in the binary
// format (wasm 1.0). AccTEE needs the codec for the §5.4 binary-size
// experiment and so instrumented modules can be shipped to accounting
// enclaves exactly like compiler-produced binaries.
package binary

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"acctee/internal/wasm"
)

var le = binary.LittleEndian

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
	if err := EncodeTo(&out, m); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// EncodeTo writes m's wasm binary to w: the bytes Encode returns, streamed
// a section at a time, so a caller that only hashes the module (a
// sha256.New() as w) never holds its whole binary. One section buffer and
// one function-body buffer are reused across the encoding.
func EncodeTo(w io.Writer, m *wasm.Module) error {
	e := encoder{w: w}
	e.write(header)

	// Type section.
	if len(m.Types) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Types)))
		for _, t := range m.Types {
			b = append(b, 0x60)
			b = appendU32(b, uint32(len(t.Params)))
			for _, p := range t.Params {
				b = append(b, byte(p))
			}
			b = appendU32(b, uint32(len(t.Results)))
			for _, r := range t.Results {
				b = append(b, byte(r))
			}
		}
		e.section(secType, b)
	}

	// Import section.
	if len(m.Imports) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Imports)))
		for _, im := range m.Imports {
			b = appendName(b, im.Module)
			b = appendName(b, im.Name)
			b = append(b, byte(im.Kind))
			switch im.Kind {
			case wasm.ExternalFunc:
				b = appendU32(b, im.TypeIdx)
			case wasm.ExternalMemory:
				b = appendLimits(b, im.MemLimit)
			default:
				return fmt.Errorf("binary: unsupported import kind %d", im.Kind)
			}
		}
		e.section(secImport, b)
	}

	// Function section.
	if len(m.Funcs) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Funcs)))
		for _, f := range m.Funcs {
			b = appendU32(b, f.TypeIdx)
		}
		e.section(secFunction, b)
	}

	// Table section.
	if len(m.Tables) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Tables)))
		for _, t := range m.Tables {
			b = append(b, 0x70) // funcref
			b = appendLimits(b, t.Limits)
		}
		e.section(secTable, b)
	}

	// Memory section.
	if len(m.Memories) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Memories)))
		for _, mem := range m.Memories {
			b = appendLimits(b, mem.Limits)
		}
		e.section(secMemory, b)
	}

	// Global section.
	if len(m.Globals) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Globals)))
		for _, g := range m.Globals {
			b = append(b, byte(g.Type))
			if g.Mutable {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			var err error
			if b, err = appendInstr(b, g.Init, nil); err != nil {
				return err
			}
			b = append(b, byte(wasm.OpEnd))
		}
		e.section(secGlobal, b)
	}

	// Export section.
	if len(m.Exports) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Exports)))
		for _, ex := range m.Exports {
			b = appendName(b, ex.Name)
			b = append(b, byte(ex.Kind))
			b = appendU32(b, ex.Idx)
		}
		e.section(secExport, b)
	}

	// Start section.
	if m.Start != nil {
		e.section(secStart, appendU32(e.sec[:0], *m.Start))
	}

	// Element section.
	if len(m.Elements) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Elements)))
		for _, el := range m.Elements {
			b = appendU32(b, 0) // table index
			var err error
			if b, err = appendInstr(b, el.Offset, nil); err != nil {
				return err
			}
			b = append(b, byte(wasm.OpEnd))
			b = appendU32(b, uint32(len(el.Funcs)))
			for _, f := range el.Funcs {
				b = appendU32(b, f)
			}
		}
		e.section(secElement, b)
	}

	// Code section.
	if len(m.Funcs) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Funcs)))
		for i := range m.Funcs {
			body, err := appendBody(e.body[:0], &m.Funcs[i])
			e.body = body
			if err != nil {
				return fmt.Errorf("binary: func %d: %w", i, err)
			}
			b = appendU32(b, uint32(len(body)))
			b = append(b, body...)
		}
		e.section(secCode, b)
	}

	// Data section.
	if len(m.Data) > 0 {
		b := appendU32(e.sec[:0], uint32(len(m.Data)))
		for _, d := range m.Data {
			b = appendU32(b, 0) // memory index
			var err error
			if b, err = appendInstr(b, d.Offset, nil); err != nil {
				return err
			}
			b = append(b, byte(wasm.OpEnd))
			b = appendU32(b, uint32(len(d.Bytes)))
			b = append(b, d.Bytes...)
		}
		e.section(secData, b)
	}
	return e.err
}

// encoder streams a module's sections to w, keeping the first write error.
type encoder struct {
	w    io.Writer
	err  error
	head [6]byte // a section's id and length
	sec  []byte  // the section being built, reused across sections
	body []byte  // the function body being built, reused across bodies
}

func (e *encoder) write(p []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

// section writes one section, id and length before payload, and keeps
// payload's storage for the next section.
func (e *encoder) section(id byte, payload []byte) {
	e.sec = payload
	e.write(appendU32(append(e.head[:0], id), uint32(len(payload))))
	e.write(payload)
}

// appendBody appends f's encoded body: its locals, run-length compressed by
// type, and its instructions.
func appendBody(b []byte, f *wasm.Func) ([]byte, error) {
	runs := 0
	for i, l := range f.Locals {
		if i == 0 || f.Locals[i-1] != l {
			runs++
		}
	}
	b = appendU32(b, uint32(runs))
	for i := 0; i < len(f.Locals); {
		j := i + 1
		for j < len(f.Locals) && f.Locals[j] == f.Locals[i] {
			j++
		}
		b = appendU32(b, uint32(j-i))
		b = append(b, byte(f.Locals[i]))
		i = j
	}
	var err error
	for _, in := range f.Body {
		if b, err = appendInstr(b, in, f); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendInstr appends one instruction of f's body, whose BrTables hold the
// targets of its br_tables. Constant expressions pass a nil f.
func appendInstr(b []byte, in wasm.Instr, f *wasm.Func) ([]byte, error) {
	b = append(b, byte(in.Op))
	switch in.Op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		bt := in.BT
		if bt == 0 {
			bt = wasm.BlockEmpty
		}
		b = append(b, byte(bt))
	case wasm.OpBr, wasm.OpBrIf, wasm.OpCall, wasm.OpLocalGet, wasm.OpLocalSet,
		wasm.OpLocalTee, wasm.OpGlobalGet, wasm.OpGlobalSet:
		b = appendU32(b, in.Idx)
	case wasm.OpCallIndirect:
		b = appendU32(b, in.Idx)
		b = append(b, 0) // table index
	case wasm.OpBrTable:
		var targets []uint32
		if f != nil {
			targets = f.BrTable(in)
		}
		if len(targets) == 0 {
			return b, fmt.Errorf("br_table without targets")
		}
		b = appendU32(b, uint32(len(targets)-1))
		for _, t := range targets {
			b = appendU32(b, t)
		}
	case wasm.OpI32Const:
		b = appendS64(b, int64(in.I32Val()))
	case wasm.OpI64Const:
		b = appendS64(b, in.I64Val())
	case wasm.OpF32Const:
		b = le.AppendUint32(b, uint32(in.U64))
	case wasm.OpF64Const:
		b = le.AppendUint64(b, in.U64)
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		b = append(b, 0) // memory index
	default:
		if in.Op.IsMemAccess() {
			b = appendU32(b, uint32(in.Align))
			b = appendU32(b, in.Offset())
		}
	}
	return b, nil
}

func appendName(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func appendLimits(b []byte, l wasm.Limits) []byte {
	if l.HasMax {
		return appendU32(appendU32(append(b, 1), l.Min), l.Max)
	}
	return appendU32(append(b, 0), l.Min)
}

// appendU32 appends an unsigned LEB128.
func appendU32(b []byte, v uint32) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendS64 appends a signed LEB128.
func appendS64(b []byte, v int64) []byte {
	for {
		c := byte(v & 0x7F)
		v >>= 7
		if (v == 0 && c&0x40 == 0) || (v == -1 && c&0x40 != 0) {
			return append(b, c)
		}
		b = append(b, c|0x80)
	}
}
