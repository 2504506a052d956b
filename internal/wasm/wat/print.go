// Package wat implements the WebAssembly text format for AccTEE modules.
// The paper's instrumentation pass operates on the text format because it is
// "easier to parse, analyze and manipulate" (§4); this package provides the
// same capability: a printer producing linear-style WAT and a parser
// accepting it back, with a round-trip identity guarantee over the AST.
package wat

import (
	"fmt"
	"strconv"
	"strings"

	"acctee/internal/wasm"
)

// Print renders a module as WebAssembly text.
func Print(m *wasm.Module) string {
	var b strings.Builder
	p := printer{w: &b, m: m}
	p.module()
	return b.String()
}

type printer struct {
	w *strings.Builder
	m *wasm.Module
}

func (p *printer) line(depth int, s string) {
	for i := 0; i < depth; i++ {
		p.w.WriteString("  ")
	}
	p.w.WriteString(s)
	p.w.WriteByte('\n')
}

func (p *printer) module() {
	head := "(module"
	if p.m.Name != "" {
		head += " $" + p.m.Name
	}
	p.line(0, head)
	for _, im := range p.m.Imports {
		p.importDecl(im)
	}
	for i, mem := range p.m.Memories {
		_ = i
		s := "(memory " + strconv.FormatUint(uint64(mem.Limits.Min), 10)
		if mem.Limits.HasMax {
			s += " " + strconv.FormatUint(uint64(mem.Limits.Max), 10)
		}
		p.line(1, s+")")
	}
	for _, t := range p.m.Tables {
		s := "(table " + strconv.FormatUint(uint64(t.Limits.Min), 10)
		if t.Limits.HasMax {
			s += " " + strconv.FormatUint(uint64(t.Limits.Max), 10)
		}
		p.line(1, s+" funcref)")
	}
	for i, g := range p.m.Globals {
		ty := g.Type.String()
		if g.Mutable {
			ty = "(mut " + ty + ")"
		}
		name := ""
		if g.Name != "" {
			name = " $" + g.Name
		} else {
			name = " $g" + strconv.Itoa(i)
		}
		p.line(1, "(global"+name+" "+ty+" ("+g.Init.String()+"))")
	}
	for i := range p.m.Funcs {
		p.funcDecl(uint32(p.m.NumImportedFuncs()+i), &p.m.Funcs[i])
	}
	for _, e := range p.m.Elements {
		s := "(elem (" + e.Offset.String() + ")"
		for _, f := range e.Funcs {
			s += " " + strconv.FormatUint(uint64(f), 10)
		}
		p.line(1, s+")")
	}
	for _, d := range p.m.Data {
		p.line(1, "(data ("+d.Offset.String()+") "+quoteBytes(d.Bytes)+")")
	}
	for _, e := range p.m.Exports {
		kind := exportKind(e.Kind)
		p.line(1, `(export "`+escape(e.Name)+`" (`+kind+" "+strconv.FormatUint(uint64(e.Idx), 10)+"))")
	}
	if p.m.Start != nil {
		p.line(1, "(start "+strconv.FormatUint(uint64(*p.m.Start), 10)+")")
	}
	p.line(0, ")")
}

func exportKind(k wasm.ExternalKind) string {
	switch k {
	case wasm.ExternalFunc:
		return "func"
	case wasm.ExternalTable:
		return "table"
	case wasm.ExternalMemory:
		return "memory"
	default:
		return "global"
	}
}

func (p *printer) importDecl(im wasm.Import) {
	switch im.Kind {
	case wasm.ExternalFunc:
		t := p.m.Types[im.TypeIdx]
		s := `(import "` + escape(im.Module) + `" "` + escape(im.Name) + `" (func` + sigString(t) + "))"
		p.line(1, s)
	case wasm.ExternalMemory:
		s := `(import "` + escape(im.Module) + `" "` + escape(im.Name) + `" (memory ` +
			strconv.FormatUint(uint64(im.MemLimit.Min), 10)
		if im.MemLimit.HasMax {
			s += " " + strconv.FormatUint(uint64(im.MemLimit.Max), 10)
		}
		p.line(1, s+"))")
	}
}

func sigString(t wasm.FuncType) string {
	s := ""
	if len(t.Params) > 0 {
		s += " (param"
		for _, v := range t.Params {
			s += " " + v.String()
		}
		s += ")"
	}
	if len(t.Results) > 0 {
		s += " (result"
		for _, v := range t.Results {
			s += " " + v.String()
		}
		s += ")"
	}
	return s
}

func (p *printer) funcDecl(idx uint32, f *wasm.Func) {
	t := p.m.Types[f.TypeIdx]
	head := "(func"
	if f.Name != "" {
		head += " $" + f.Name
	} else {
		head += " $f" + strconv.FormatUint(uint64(idx), 10)
	}
	head += sigString(t)
	p.line(1, head)
	if len(f.Locals) > 0 {
		s := "(local"
		for _, l := range f.Locals {
			s += " " + l.String()
		}
		p.line(2, s+")")
	}
	depth := 2
	for i, in := range f.Body {
		if i == len(f.Body)-1 && in.Op == wasm.OpEnd {
			break // implicit function-closing end
		}
		switch in.Op {
		case wasm.OpEnd:
			depth--
			p.line(depth, "end")
		case wasm.OpElse:
			p.line(depth-1, "else")
		case wasm.OpBlock, wasm.OpLoop, wasm.OpIf:
			p.line(depth, in.String())
			depth++
		case wasm.OpBrTable:
			s := "br_table"
			for _, t := range f.BrTable(in) {
				s += " " + strconv.FormatUint(uint64(t), 10)
			}
			p.line(depth, s)
		default:
			p.line(depth, in.String())
		}
	}
	p.line(1, ")")
}

func quoteBytes(bs []byte) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range bs {
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c >= 0x20 && c < 0x7F:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "\\%02x", c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func escape(s string) string {
	var b strings.Builder
	for _, c := range []byte(s) {
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c >= 0x20 && c < 0x7F:
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "\\%02x", c)
		}
	}
	return b.String()
}
