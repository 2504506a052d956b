package binary

import (
	"errors"
	"fmt"
	"sync"

	"acctee/internal/wasm"
)

// ErrBadMagic indicates the input is not a wasm binary.
var ErrBadMagic = errors.New("binary: bad magic or version")

// Decode parses a wasm binary into a module.
func Decode(data []byte) (*wasm.Module, error) {
	r := &reader{data: data}
	for _, h := range header {
		b, err := r.byte()
		if err != nil || b != h {
			return nil, ErrBadMagic
		}
	}
	m := &wasm.Module{}
	for !r.eof() {
		id, err := r.byte()
		if err != nil {
			return nil, err
		}
		size, err := r.u32()
		if err != nil {
			return nil, err
		}
		payload, err := r.bytes(int(size))
		if err != nil {
			return nil, err
		}
		sr := &reader{data: payload}
		switch id {
		case secType:
			err = decodeTypes(sr, m)
		case secImport:
			err = decodeImports(sr, m)
		case secFunction:
			err = decodeFuncDecls(sr, m)
		case secTable:
			err = decodeTables(sr, m)
		case secMemory:
			err = decodeMemories(sr, m)
		case secGlobal:
			err = decodeGlobals(sr, m)
		case secExport:
			err = decodeExports(sr, m)
		case secStart:
			v, e := sr.u32()
			if e == nil {
				m.Start = &v
			}
			err = e
		case secElement:
			err = decodeElements(sr, m)
		case secCode:
			err = decodeCode(sr, m)
		case secData:
			err = decodeData(sr, m)
		default:
			// custom or unknown section: skipped
		}
		if err != nil {
			return nil, fmt.Errorf("binary: section %d: %w", id, err)
		}
	}
	// Every function the function section declares needs its body: a
	// module without its code section would encode to one that fails to
	// decode.
	for i := range m.Funcs {
		if len(m.Funcs[i].Body) == 0 {
			return nil, fmt.Errorf("binary: func %d: no code", i)
		}
	}
	return m, nil
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) eof() bool { return r.pos >= len(r.data) }

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, errors.New("unexpected end of input")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, errors.New("unexpected end of input")
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) u32() (uint32, error) {
	var v uint32
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		v |= uint32(b&0x7F) << shift
		if b&0x80 == 0 {
			return v, nil
		}
		shift += 7
		if shift >= 35 {
			return 0, errors.New("leb128 u32 overflow")
		}
	}
}

func (r *reader) s64() (int64, error) {
	var v int64
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		v |= int64(b&0x7F) << shift
		shift += 7
		if b&0x80 == 0 {
			if shift < 64 && b&0x40 != 0 {
				v |= -1 << shift
			}
			return v, nil
		}
		if shift >= 70 {
			return 0, errors.New("leb128 s64 overflow")
		}
	}
}

func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) limits() (wasm.Limits, error) {
	var l wasm.Limits
	flag, err := r.byte()
	if err != nil {
		return l, err
	}
	l.Min, err = r.u32()
	if err != nil {
		return l, err
	}
	if flag == 1 {
		l.Max, err = r.u32()
		if err != nil {
			return l, err
		}
		l.HasMax = true
	}
	return l, nil
}

func decodeTypes(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		form, err := r.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("bad functype form 0x%02x", form)
		}
		var t wasm.FuncType
		np, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < np; j++ {
			b, err := r.byte()
			if err != nil {
				return err
			}
			t.Params = append(t.Params, wasm.ValueType(b))
		}
		nr, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nr; j++ {
			b, err := r.byte()
			if err != nil {
				return err
			}
			t.Results = append(t.Results, wasm.ValueType(b))
		}
		m.Types = append(m.Types, t)
	}
	return nil
}

func decodeImports(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		mod, err := r.name()
		if err != nil {
			return err
		}
		name, err := r.name()
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		im := wasm.Import{Module: mod, Name: name, Kind: wasm.ExternalKind(kind)}
		switch im.Kind {
		case wasm.ExternalFunc:
			im.TypeIdx, err = r.u32()
		case wasm.ExternalMemory:
			im.MemLimit, err = r.limits()
		default:
			return fmt.Errorf("unsupported import kind %d", kind)
		}
		if err != nil {
			return err
		}
		m.Imports = append(m.Imports, im)
	}
	return nil
}

func decodeFuncDecls(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		ti, err := r.u32()
		if err != nil {
			return err
		}
		m.Funcs = append(m.Funcs, wasm.Func{TypeIdx: ti})
	}
	return nil
}

func decodeTables(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		et, err := r.byte()
		if err != nil {
			return err
		}
		if et != 0x70 {
			return fmt.Errorf("unsupported table elem type 0x%02x", et)
		}
		l, err := r.limits()
		if err != nil {
			return err
		}
		m.Tables = append(m.Tables, wasm.Table{Limits: l})
	}
	return nil
}

func decodeMemories(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		l, err := r.limits()
		if err != nil {
			return err
		}
		m.Memories = append(m.Memories, wasm.Memory{Limits: l})
	}
	return nil
}

func decodeGlobals(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		vt, err := r.byte()
		if err != nil {
			return err
		}
		mut, err := r.byte()
		if err != nil {
			return err
		}
		init, err := decodeConstExpr(r)
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, wasm.Global{
			Type: wasm.ValueType(vt), Mutable: mut == 1, Init: init,
		})
	}
	return nil
}

func decodeConstExpr(r *reader) (wasm.Instr, error) {
	in, err := decodeInstr(r, nil)
	if err != nil {
		return wasm.Instr{}, err
	}
	end, err := r.byte()
	if err != nil {
		return wasm.Instr{}, err
	}
	if wasm.Opcode(end) != wasm.OpEnd {
		return wasm.Instr{}, errors.New("constant expression not terminated by end")
	}
	return in, nil
}

func decodeExports(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		name, err := r.name()
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		idx, err := r.u32()
		if err != nil {
			return err
		}
		m.Exports = append(m.Exports, wasm.Export{Name: name, Kind: wasm.ExternalKind(kind), Idx: idx})
	}
	return nil
}

func decodeElements(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		if _, err := r.u32(); err != nil { // table index
			return err
		}
		off, err := decodeConstExpr(r)
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		e := wasm.Element{Offset: off}
		for j := uint32(0); j < cnt; j++ {
			f, err := r.u32()
			if err != nil {
				return err
			}
			e.Funcs = append(e.Funcs, f)
		}
		m.Elements = append(m.Elements, e)
	}
	return nil
}

// MaxLocals is the most locals one function may declare (the ceiling
// browsers' engines apply). Locals are run-length encoded, so without it a
// few bytes of function body ask the decoder for 2^32-1 entries.
const MaxLocals = 50_000

// bodyScratch holds a body while it is decoded and its length is not yet
// known, so that every body is allocated once, at its exact size.
var bodyScratch = sync.Pool{New: func() any { return new([]wasm.Instr) }}

// maxPooledScratch is the largest scratch (in instructions) returned to
// bodyScratch; a larger one is left to the collector.
const maxPooledScratch = 1 << 16

func decodeCode(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	if int(n) != len(m.Funcs) {
		return fmt.Errorf("code count %d != function count %d", n, len(m.Funcs))
	}
	scratch := bodyScratch.Get().(*[]wasm.Instr)
	defer func() {
		if cap(*scratch) <= maxPooledScratch {
			bodyScratch.Put(scratch)
		}
	}()
	for i := uint32(0); i < n; i++ {
		size, err := r.u32()
		if err != nil {
			return err
		}
		body, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		br := &reader{data: body}
		nruns, err := br.u32()
		if err != nil {
			return err
		}
		f := &m.Funcs[i]
		for j := uint32(0); j < nruns; j++ {
			cnt, err := br.u32()
			if err != nil {
				return err
			}
			vt, err := br.byte()
			if err != nil {
				return err
			}
			if uint64(len(f.Locals))+uint64(cnt) > MaxLocals {
				return fmt.Errorf("func %d: too many locals (limit %d)", i, MaxLocals)
			}
			for k := uint32(0); k < cnt; k++ {
				f.Locals = append(f.Locals, wasm.ValueType(vt))
			}
		}
		code := (*scratch)[:0]
		for !br.eof() {
			in, err := decodeInstr(br, f)
			if err != nil {
				return fmt.Errorf("func %d: %w", i, err)
			}
			code = append(code, in)
		}
		*scratch = code
		f.Body = make([]wasm.Instr, len(code))
		copy(f.Body, code)
		if err := wasm.ValidateStructure(f.Body); err != nil {
			return fmt.Errorf("func %d: %w", i, err)
		}
	}
	return nil
}

func decodeData(r *reader, m *wasm.Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		if _, err := r.u32(); err != nil { // memory index
			return err
		}
		off, err := decodeConstExpr(r)
		if err != nil {
			return err
		}
		size, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		m.Data = append(m.Data, wasm.Data{Offset: off, Bytes: append([]byte(nil), b...)})
	}
	return nil
}

// decodeInstr decodes one instruction of f's body; a br_table's targets are
// appended to f.BrTables. Constant expressions pass a nil f.
func decodeInstr(r *reader, f *wasm.Func) (wasm.Instr, error) {
	opb, err := r.byte()
	if err != nil {
		return wasm.Instr{}, err
	}
	op := wasm.Opcode(opb)
	in := wasm.Instr{Op: op}
	switch op {
	case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
		bt, err := r.byte()
		if err != nil {
			return in, err
		}
		if wasm.BlockType(bt) != wasm.BlockEmpty && !wasm.ValueType(bt).Valid() {
			return in, fmt.Errorf("invalid block type 0x%02x", bt)
		}
		in.BT = wasm.BlockType(bt)
	case wasm.OpBr, wasm.OpBrIf, wasm.OpCall, wasm.OpLocalGet, wasm.OpLocalSet,
		wasm.OpLocalTee, wasm.OpGlobalGet, wasm.OpGlobalSet:
		in.Idx, err = r.u32()
		if err != nil {
			return in, err
		}
	case wasm.OpCallIndirect:
		in.Idx, err = r.u32()
		if err != nil {
			return in, err
		}
		if _, err := r.byte(); err != nil { // table index
			return in, err
		}
	case wasm.OpBrTable:
		if f == nil {
			return in, errors.New("br_table in a constant expression")
		}
		cnt, err := r.u32()
		if err != nil {
			return in, err
		}
		// Every target takes at least one byte: a count the body cannot
		// hold fails on the first missing one, not on an allocation.
		n := min(uint64(cnt)+1, uint64(len(r.data)-r.pos))
		targets := make([]uint32, 0, n)
		for j := uint64(0); j <= uint64(cnt); j++ {
			t, err := r.u32()
			if err != nil {
				return in, err
			}
			targets = append(targets, t)
		}
		in = f.AddBrTable(targets...)
	case wasm.OpI32Const:
		v, err := r.s64()
		if err != nil {
			return in, err
		}
		in.U64 = uint64(uint32(int32(v)))
	case wasm.OpI64Const:
		v, err := r.s64()
		if err != nil {
			return in, err
		}
		in.U64 = uint64(v)
	case wasm.OpF32Const:
		b, err := r.bytes(4)
		if err != nil {
			return in, err
		}
		in.U64 = uint64(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	case wasm.OpF64Const:
		b, err := r.bytes(8)
		if err != nil {
			return in, err
		}
		var v uint64
		for k := 7; k >= 0; k-- {
			v = v<<8 | uint64(b[k])
		}
		in.U64 = v
	case wasm.OpMemorySize, wasm.OpMemoryGrow:
		if _, err := r.byte(); err != nil { // memory index
			return in, err
		}
	default:
		if op.IsMemAccess() {
			align, err := r.u32()
			if err != nil {
				return in, err
			}
			// The validator's message: every exponent above MaxAlign is
			// wider than any access.
			if align > wasm.MaxAlign {
				return in, fmt.Errorf("alignment 2^%d larger than access width", align)
			}
			in.Align = byte(align)
			off, err := r.u32()
			if err != nil {
				return in, err
			}
			in.U64 = uint64(off)
		} else if _, ok := wasm.OpcodeByName(op.String()); !ok {
			return in, fmt.Errorf("unknown opcode 0x%02x", opb)
		}
	}
	return in, nil
}
