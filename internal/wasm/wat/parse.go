package wat

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"acctee/internal/wasm"
)

// Parse reads WebAssembly text (the linear style emitted by Print, which is
// also what common toolchains produce with --fold-expr disabled) and builds
// a module.
func Parse(src string) (*wasm.Module, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	sx, rest, err := parseSexpr(toks)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wat: trailing tokens after module")
	}
	p := &modParser{
		m:       &wasm.Module{},
		funcIdx: map[string]uint32{},
		globIdx: map[string]uint32{},
	}
	if err := p.module(sx); err != nil {
		return nil, err
	}
	return p.m, nil
}

// ---------------------------------------------------------------------------
// tokenizer

type token struct {
	kind byte // '(' ')' 'a' atom, 's' string
	text string
}

func tokenize(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ';' && i+1 < len(src) && src[i+1] == ';':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(':
			if i+1 < len(src) && src[i+1] == ';' {
				depth := 1
				i += 2
				for i < len(src) && depth > 0 {
					if src[i] == '(' && i+1 < len(src) && src[i+1] == ';' {
						depth++
						i++
					} else if src[i] == ';' && i+1 < len(src) && src[i+1] == ')' {
						depth--
						i++
					}
					i++
				}
				continue
			}
			toks = append(toks, token{kind: '('})
			i++
		case c == ')':
			toks = append(toks, token{kind: ')'})
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					if j+1 >= len(src) {
						return nil, fmt.Errorf("wat: unterminated escape")
					}
					n := src[j+1]
					switch n {
					case '"', '\\':
						sb.WriteByte(n)
						j += 2
					case 'n':
						sb.WriteByte('\n')
						j += 2
					case 't':
						sb.WriteByte('\t')
						j += 2
					default:
						if j+2 >= len(src) {
							return nil, fmt.Errorf("wat: bad escape")
						}
						v, err := strconv.ParseUint(src[j+1:j+3], 16, 8)
						if err != nil {
							return nil, fmt.Errorf("wat: bad hex escape %q", src[j+1:j+3])
						}
						sb.WriteByte(byte(v))
						j += 3
					}
					continue
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("wat: unterminated string")
			}
			toks = append(toks, token{kind: 's', text: sb.String()})
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n\r()\";", rune(src[j])) {
				j++
			}
			toks = append(toks, token{kind: 'a', text: src[i:j]})
			i = j
		}
	}
	return toks, nil
}

// ---------------------------------------------------------------------------
// generic s-expressions

type sexpr struct {
	atom  string // set when leaf
	str   string // set when string leaf
	isStr bool
	list  []sexpr
	leaf  bool
}

func parseSexpr(toks []token) (sexpr, []token, error) {
	if len(toks) == 0 {
		return sexpr{}, nil, fmt.Errorf("wat: unexpected end of input")
	}
	t := toks[0]
	switch t.kind {
	case 'a':
		return sexpr{atom: t.text, leaf: true}, toks[1:], nil
	case 's':
		return sexpr{str: t.text, isStr: true, leaf: true}, toks[1:], nil
	case '(':
		toks = toks[1:]
		var items []sexpr
		for {
			if len(toks) == 0 {
				return sexpr{}, nil, fmt.Errorf("wat: missing )")
			}
			if toks[0].kind == ')' {
				return sexpr{list: items}, toks[1:], nil
			}
			item, rest, err := parseSexpr(toks)
			if err != nil {
				return sexpr{}, nil, err
			}
			items = append(items, item)
			toks = rest
		}
	default:
		return sexpr{}, nil, fmt.Errorf("wat: unexpected )")
	}
}

func (s sexpr) head() string {
	if len(s.list) > 0 && s.list[0].leaf {
		return s.list[0].atom
	}
	return ""
}

// ---------------------------------------------------------------------------
// module parsing

type modParser struct {
	m       *wasm.Module
	funcIdx map[string]uint32
	globIdx map[string]uint32
}

func (p *modParser) module(sx sexpr) error {
	if sx.head() != "module" {
		return fmt.Errorf("wat: expected (module ...)")
	}
	decls := sx.list[1:]
	if len(decls) > 0 && decls[0].leaf && strings.HasPrefix(decls[0].atom, "$") {
		p.m.Name = decls[0].atom[1:]
		decls = decls[1:]
	}
	// Pass 1: assign indices for names (imports first, then funcs/globals).
	fi := uint32(0)
	for _, d := range decls {
		if d.head() == "import" && len(d.list) == 4 && d.list[3].head() == "func" {
			fi++
		}
	}
	nImports := fi
	_ = nImports
	for _, d := range decls {
		switch d.head() {
		case "func":
			if len(d.list) > 1 && d.list[1].leaf && strings.HasPrefix(d.list[1].atom, "$") {
				p.funcIdx[d.list[1].atom[1:]] = fi
			}
			fi++
		case "global":
			if len(d.list) > 1 && d.list[1].leaf && strings.HasPrefix(d.list[1].atom, "$") {
				p.globIdx[d.list[1].atom[1:]] = uint32(len(p.globIdx))
			}
		}
	}
	// Pass 2: build.
	for _, d := range decls {
		if err := p.decl(d); err != nil {
			return err
		}
	}
	return nil
}

func (p *modParser) decl(d sexpr) error {
	switch d.head() {
	case "import":
		return p.importDecl(d)
	case "memory":
		lim, err := parseLimits(d.list[1:])
		if err != nil {
			return err
		}
		p.m.Memories = append(p.m.Memories, wasm.Memory{Limits: lim})
		return nil
	case "table":
		args := d.list[1:]
		// strip trailing "funcref"
		if n := len(args); n > 0 && args[n-1].leaf && args[n-1].atom == "funcref" {
			args = args[:n-1]
		}
		lim, err := parseLimits(args)
		if err != nil {
			return err
		}
		p.m.Tables = append(p.m.Tables, wasm.Table{Limits: lim})
		return nil
	case "global":
		return p.globalDecl(d)
	case "func":
		return p.funcDecl(d)
	case "elem":
		return p.elemDecl(d)
	case "data":
		return p.dataDecl(d)
	case "export":
		return p.exportDecl(d)
	case "start":
		idx, err := p.funcRef(d.list[1])
		if err != nil {
			return err
		}
		p.m.Start = &idx
		return nil
	default:
		return fmt.Errorf("wat: unsupported declaration %q", d.head())
	}
}

func parseLimits(args []sexpr) (wasm.Limits, error) {
	var lim wasm.Limits
	if len(args) == 0 {
		return lim, fmt.Errorf("wat: missing limits")
	}
	v, err := strconv.ParseUint(args[0].atom, 10, 32)
	if err != nil {
		return lim, fmt.Errorf("wat: bad limit %q", args[0].atom)
	}
	lim.Min = uint32(v)
	if len(args) > 1 && args[1].leaf {
		v, err := strconv.ParseUint(args[1].atom, 10, 32)
		if err != nil {
			return lim, fmt.Errorf("wat: bad limit %q", args[1].atom)
		}
		lim.Max = uint32(v)
		lim.HasMax = true
	}
	return lim, nil
}

func (p *modParser) importDecl(d sexpr) error {
	if len(d.list) != 4 || !d.list[1].isStr || !d.list[2].isStr {
		return fmt.Errorf("wat: malformed import")
	}
	desc := d.list[3]
	switch desc.head() {
	case "func":
		params, results := parseSig(desc.list[1:])
		ti := p.m.AddType(wasm.FuncType{Params: params, Results: results})
		p.m.Imports = append(p.m.Imports, wasm.Import{
			Module: d.list[1].str, Name: d.list[2].str,
			Kind: wasm.ExternalFunc, TypeIdx: ti,
		})
	case "memory":
		lim, err := parseLimits(desc.list[1:])
		if err != nil {
			return err
		}
		p.m.Imports = append(p.m.Imports, wasm.Import{
			Module: d.list[1].str, Name: d.list[2].str,
			Kind: wasm.ExternalMemory, MemLimit: lim,
		})
	default:
		return fmt.Errorf("wat: unsupported import kind %q", desc.head())
	}
	return nil
}

func parseSig(items []sexpr) (params, results []wasm.ValueType) {
	for _, it := range items {
		switch it.head() {
		case "param":
			for _, v := range it.list[1:] {
				if vt, ok := valueType(v.atom); ok {
					params = append(params, vt)
				}
			}
		case "result":
			for _, v := range it.list[1:] {
				if vt, ok := valueType(v.atom); ok {
					results = append(results, vt)
				}
			}
		}
	}
	return params, results
}

func valueType(s string) (wasm.ValueType, bool) {
	switch s {
	case "i32":
		return wasm.I32, true
	case "i64":
		return wasm.I64, true
	case "f32":
		return wasm.F32, true
	case "f64":
		return wasm.F64, true
	}
	return 0, false
}

func (p *modParser) globalDecl(d sexpr) error {
	items := d.list[1:]
	name := ""
	if len(items) > 0 && items[0].leaf && strings.HasPrefix(items[0].atom, "$") {
		name = items[0].atom[1:]
		items = items[1:]
	}
	if len(items) < 2 {
		return fmt.Errorf("wat: malformed global")
	}
	var vt wasm.ValueType
	mutable := false
	if items[0].leaf {
		v, ok := valueType(items[0].atom)
		if !ok {
			return fmt.Errorf("wat: bad global type %q", items[0].atom)
		}
		vt = v
	} else if items[0].head() == "mut" {
		v, ok := valueType(items[0].list[1].atom)
		if !ok {
			return fmt.Errorf("wat: bad global type")
		}
		vt = v
		mutable = true
	}
	init, err := parseConstExpr(items[1])
	if err != nil {
		return err
	}
	p.m.Globals = append(p.m.Globals, wasm.Global{Type: vt, Mutable: mutable, Init: init, Name: name})
	return nil
}

func parseConstExpr(s sexpr) (wasm.Instr, error) {
	if len(s.list) != 2 {
		return wasm.Instr{}, fmt.Errorf("wat: malformed constant expression")
	}
	op, ok := wasm.OpcodeByName(s.list[0].atom)
	if !ok {
		return wasm.Instr{}, fmt.Errorf("wat: unknown const op %q", s.list[0].atom)
	}
	return constInstr(op, s.list[1].atom)
}

func constInstr(op wasm.Opcode, lit string) (wasm.Instr, error) {
	switch op {
	case wasm.OpI32Const:
		v, err := parseIntLit(lit, 32)
		if err != nil {
			return wasm.Instr{}, err
		}
		return wasm.ConstI32(int32(v)), nil
	case wasm.OpI64Const:
		v, err := parseIntLit(lit, 64)
		if err != nil {
			return wasm.Instr{}, err
		}
		return wasm.ConstI64(v), nil
	case wasm.OpF32Const:
		f, err := parseFloatLit(lit)
		if err != nil {
			return wasm.Instr{}, err
		}
		return wasm.ConstF32(float32(f)), nil
	case wasm.OpF64Const:
		f, err := parseFloatLit(lit)
		if err != nil {
			return wasm.Instr{}, err
		}
		return wasm.ConstF64(f), nil
	}
	return wasm.Instr{}, fmt.Errorf("wat: %s is not a constant op", op)
}

func parseIntLit(s string, bits int) (int64, error) {
	if v, err := strconv.ParseInt(s, 0, bits); err == nil {
		return v, nil
	}
	// Accept the unsigned form too (e.g. 4294967295 for i32 -1).
	u, err := strconv.ParseUint(s, 0, bits)
	if err != nil {
		return 0, fmt.Errorf("wat: bad integer literal %q", s)
	}
	return int64(u), nil
}

func parseFloatLit(s string) (float64, error) {
	switch s {
	case "nan":
		return math.NaN(), nil
	case "inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func (p *modParser) elemDecl(d sexpr) error {
	items := d.list[1:]
	if len(items) < 1 {
		return fmt.Errorf("wat: malformed elem")
	}
	off, err := parseConstExpr(items[0])
	if err != nil {
		return err
	}
	var funcs []uint32
	for _, it := range items[1:] {
		idx, err := p.funcRef(it)
		if err != nil {
			return err
		}
		funcs = append(funcs, idx)
	}
	p.m.Elements = append(p.m.Elements, wasm.Element{Offset: off, Funcs: funcs})
	return nil
}

func (p *modParser) dataDecl(d sexpr) error {
	items := d.list[1:]
	if len(items) != 2 || !items[1].isStr {
		return fmt.Errorf("wat: malformed data segment")
	}
	off, err := parseConstExpr(items[0])
	if err != nil {
		return err
	}
	p.m.Data = append(p.m.Data, wasm.Data{Offset: off, Bytes: []byte(items[1].str)})
	return nil
}

func (p *modParser) exportDecl(d sexpr) error {
	if len(d.list) != 3 || !d.list[1].isStr {
		return fmt.Errorf("wat: malformed export")
	}
	desc := d.list[2]
	var kind wasm.ExternalKind
	switch desc.head() {
	case "func":
		kind = wasm.ExternalFunc
	case "memory":
		kind = wasm.ExternalMemory
	case "table":
		kind = wasm.ExternalTable
	case "global":
		kind = wasm.ExternalGlobal
	default:
		return fmt.Errorf("wat: bad export kind %q", desc.head())
	}
	var idx uint32
	var err error
	if kind == wasm.ExternalFunc {
		idx, err = p.funcRef(desc.list[1])
	} else {
		idx, err = p.indexRef(desc.list[1], nil)
	}
	if err != nil {
		return err
	}
	p.m.Exports = append(p.m.Exports, wasm.Export{Name: d.list[1].str, Kind: kind, Idx: idx})
	return nil
}

func (p *modParser) funcRef(s sexpr) (uint32, error) { return p.indexRef(s, p.funcIdx) }

func (p *modParser) indexRef(s sexpr, names map[string]uint32) (uint32, error) {
	if !s.leaf {
		return 0, fmt.Errorf("wat: expected index")
	}
	if strings.HasPrefix(s.atom, "$") {
		if names != nil {
			if idx, ok := names[s.atom[1:]]; ok {
				return idx, nil
			}
		}
		return 0, fmt.Errorf("wat: unknown name %s", s.atom)
	}
	v, err := strconv.ParseUint(s.atom, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("wat: bad index %q", s.atom)
	}
	return uint32(v), nil
}

// ---------------------------------------------------------------------------
// function bodies

func (p *modParser) funcDecl(d sexpr) error {
	items := d.list[1:]
	name := ""
	if len(items) > 0 && items[0].leaf && strings.HasPrefix(items[0].atom, "$") {
		name = items[0].atom[1:]
		items = items[1:]
	}
	// signature lists come first
	var sigItems []sexpr
	for len(items) > 0 && !items[0].leaf && (items[0].head() == "param" || items[0].head() == "result") {
		sigItems = append(sigItems, items[0])
		items = items[1:]
	}
	params, results := parseSig(sigItems)
	fn := wasm.Func{Name: name, TypeIdx: p.m.AddType(wasm.FuncType{Params: params, Results: results})}
	for len(items) > 0 && !items[0].leaf && items[0].head() == "local" {
		for _, v := range items[0].list[1:] {
			if vt, ok := valueType(v.atom); ok {
				fn.Locals = append(fn.Locals, vt)
			}
		}
		items = items[1:]
	}
	body, err := p.body(&fn, items)
	if err != nil {
		return fmt.Errorf("wat: func %q: %w", name, err)
	}
	fn.Body = append(body, wasm.Instr{Op: wasm.OpEnd})
	p.m.Funcs = append(p.m.Funcs, fn)
	return nil
}

// body parses the linear instruction sequence of fn; br_table targets go to
// fn.BrTables.
func (p *modParser) body(fn *wasm.Func, items []sexpr) ([]wasm.Instr, error) {
	var out []wasm.Instr
	i := 0
	next := func() (sexpr, bool) {
		if i < len(items) {
			s := items[i]
			i++
			return s, true
		}
		return sexpr{}, false
	}
	peekList := func(head string) (sexpr, bool) {
		if i < len(items) && !items[i].leaf && items[i].head() == head {
			s := items[i]
			i++
			return s, true
		}
		return sexpr{}, false
	}
	for i < len(items) {
		it, _ := next()
		if !it.leaf {
			return nil, fmt.Errorf("unexpected list %q in body", it.head())
		}
		opName := it.atom
		op, ok := wasm.OpcodeByName(opName)
		if !ok {
			return nil, fmt.Errorf("unknown instruction %q", opName)
		}
		in := wasm.Instr{Op: op}
		switch op {
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			in.BT = wasm.BlockEmpty
			if res, ok := peekList("result"); ok {
				vt, okv := valueType(res.list[1].atom)
				if !okv {
					return nil, fmt.Errorf("bad block result type")
				}
				in.BT = wasm.BlockOf(vt)
			}
		case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
			lit, ok := next()
			if !ok {
				return nil, fmt.Errorf("%s: missing literal", opName)
			}
			ci, err := constInstr(op, lit.atom)
			if err != nil {
				return nil, err
			}
			in = ci
		case wasm.OpLocalGet, wasm.OpLocalSet, wasm.OpLocalTee, wasm.OpBr, wasm.OpBrIf:
			lit, ok := next()
			if !ok {
				return nil, fmt.Errorf("%s: missing index", opName)
			}
			idx, err := p.indexRef(lit, nil)
			if err != nil {
				return nil, err
			}
			in.Idx = idx
		case wasm.OpGlobalGet, wasm.OpGlobalSet:
			lit, ok := next()
			if !ok {
				return nil, fmt.Errorf("%s: missing index", opName)
			}
			idx, err := p.indexRef(lit, p.globIdx)
			if err != nil {
				return nil, err
			}
			in.Idx = idx
		case wasm.OpCall:
			lit, ok := next()
			if !ok {
				return nil, fmt.Errorf("call: missing target")
			}
			idx, err := p.funcRef(lit)
			if err != nil {
				return nil, err
			}
			in.Idx = idx
		case wasm.OpCallIndirect:
			if tl, ok := peekList("type"); ok {
				idx, err := p.indexRef(tl.list[1], nil)
				if err != nil {
					return nil, err
				}
				in.Idx = idx
			}
		case wasm.OpBrTable:
			var targets []uint32
			for i < len(items) && items[i].leaf {
				v, err := strconv.ParseUint(items[i].atom, 10, 32)
				if err != nil {
					break
				}
				targets = append(targets, uint32(v))
				i++
			}
			if len(targets) == 0 {
				return nil, fmt.Errorf("br_table: missing targets")
			}
			in = fn.AddBrTable(targets...)
		default:
			if op.IsMemAccess() {
				in.Align = wasm.NaturalAlign(op)
				for i < len(items) && items[i].leaf {
					a := items[i].atom
					if strings.HasPrefix(a, "offset=") {
						v, err := strconv.ParseUint(a[len("offset="):], 10, 32)
						if err != nil {
							return nil, fmt.Errorf("bad offset %q", a)
						}
						in.U64 = v
						i++
					} else if strings.HasPrefix(a, "align=") {
						v, err := strconv.ParseUint(a[len("align="):], 10, 32)
						if err != nil {
							return nil, fmt.Errorf("bad align %q", a)
						}
						// Store the exponent form used internally: the
						// smallest e with 2^e >= v. v fits in 32 bits, so
						// e <= 32 and always fits in Align; validation
						// refuses every e above the access width.
						exp := 0
						if v > 1 {
							exp = bits.Len64(v - 1)
						}
						in.Align = byte(exp)
						i++
					} else {
						break
					}
				}
			}
		}
		out = append(out, in)
	}
	return out, nil
}
