package interp

import (
	"fmt"

	"acctee/internal/cfg"
	"acctee/internal/wasm"
)

// This file is the interpreter's lowering pass. At instantiation every
// function body is compiled once into a flat internal representation:
//
//   - every br/br_if/br_table/if/else gets a precomputed continuation pc,
//     the operand-stack height it truncates to, and the number of label
//     result values it copies down — so execution never maintains a label
//     stack and never walks labels to resolve a branch;
//   - static stack-height analysis yields the operand-stack height before
//     every pc and its high-water mark, so each call frame is a single
//     fixed-size allocation and every stack slot has a fixed home in it;
//   - the body is partitioned into straight-line segments (the shared
//     internal/cfg basic blocks, further split after call, call_indirect and
//     memory.grow so counters are settled at every host-visible point) and
//     fuel, CostModel cycles and the ground-truth instruction counter are
//     charged once per segment, with per-pc rollback metadata keeping trap
//     paths bit-identical to per-instruction accounting;
//   - an inlining pass (inline.go) then splices small straight-line callees
//     into their callers' flat IR, and the register lowering (regalloc.go)
//     compiles the result into the closure stream the default engine runs,
//     statement by statement and strictly within segment boundaries so the
//     accounting above is untouched.
//
// The pass is cost-model-independent: per-segment cost sums live in the
// CompiledModule's per-fingerprint cache (module.go), not in the flat IR,
// so one artifact serves instantiations under any cost model. The flat IR
// lives only as long as Compile: once the register stream is built, trim
// (module.go) drops it.

// flatTarget is one precompiled branch edge: continuation pc, the stack
// height the branch truncates to, and how many label results it copies down.
type flatTarget struct {
	pc     int32
	height int32
	arity  int32
}

// flatOp is the per-pc lowered metadata the register lowering compiles from.
// target/height/arity describe the taken-branch edge of br/br_if, the
// false edge of if, and the end-continuation of else. A br_table's edges
// are compiledFunc.brEdges[target:target+height], the last one the default.
// segCnt is non-zero exactly at segment leaders and holds the segment's
// instruction count; the segment's last pc is in compiledFunc.segEnd, and
// its InstrCost sum is looked up in the artifact's per-cost-model tables.
type flatOp struct {
	target int32
	height int32
	segCnt int32
	arity  int32
	flags  uint8 // call-path metadata, see fInl*/fCallDef
}

// flatOp.flags bits. They are assigned after the inlining pass (inline.go):
// the first two mark the boundaries of spliced callee bodies, the third is
// the residual-call descriptor resolved once at compile time. The other
// two descriptors need no bit: an OpCall that is neither inlined nor
// fCallDef calls the imported host function whose index is in target, and
// every OpCallIndirect carries its dense per-module inline-cache site id
// (indexing VM.icache) in target.
const (
	// fInlEnter marks an OpCall that was inlined: the callee body follows
	// immediately. The op stays OpCall so its accounting charge (fuel,
	// InstrCount, InstrCost(call)) is unchanged; at runtime it only bumps
	// the logical call depth and zeroes the callee's non-param locals
	// (arity = number of slots to zero; height unused).
	fInlEnter uint8 = 1 << iota
	// fInlEnd marks the spliced copy of an inlined callee's function-final
	// OpEnd: commit the results (arity = nresults) down to the caller's
	// operand height (height = commit base) and drop the logical depth.
	fInlEnd
	// fCallDef marks a residual OpCall to a defined (non-import) function;
	// target holds the defined-function index (body index, imports already
	// subtracted) so the call site never re-derives it.
	fCallDef
)

// compile builds the front-end representation of one function: the flat IR
// the default engine's register lowering consumes. One cfg.Build provides
// the control matching, the segment boundaries and the structural
// validation.
func compile(m *wasm.Module, f *wasm.Func) (compiledFunc, error) {
	t := m.Types[f.TypeIdx]
	cf := compiledFunc{
		typeIdx:  f.TypeIdx,
		nparams:  len(t.Params),
		nresults: len(t.Results),
		numLoc:   len(t.Params) + len(f.Locals),
		body:     f.Body,
		name:     f.Name,
	}
	g, err := cfg.Build(f.Body, f.BrTables)
	if err != nil {
		return cf, err
	}
	if err := lower(m, &cf, g, f.BrTables); err != nil {
		return cf, err
	}
	// Register lowering runs later, from Compile (module.go): the inlining
	// pass (inline.go) must splice callee bodies into this flat IR first.
	return cf, nil
}

// labelArity is the number of values a block, loop or if of type bt yields.
func labelArity(bt wasm.BlockType) int32 {
	if _, ok := bt.Value(); ok {
		return 1
	}
	return 0
}

// segLeaders is where both engines charge a segment: every basic-block
// start, plus the instruction after each call/call_indirect/memory.grow so
// accounting is settled whenever host code (imports, grow hooks) can
// observe the VM.
func segLeaders(g *cfg.Graph) []bool {
	return g.Leaders(wasm.OpCall, wasm.OpCallIndirect, wasm.OpMemoryGrow)
}

// segCounts is the per-pc segment instruction count of g's body: non-zero
// exactly at segment leaders.
func segCounts(g *cfg.Graph) []uint32 {
	leader := segLeaders(g)
	seg := make([]uint32, len(leader))
	end := len(leader)
	for pc := len(leader) - 1; pc >= 0; pc-- {
		if leader[pc] {
			seg[pc] = uint32(end - pc)
			end = pc
		}
	}
	return seg
}

// lframe is one open control frame during lowering. opener 0 denotes the
// implicit function frame.
type lframe struct {
	opener  wasm.Opcode
	hdr     int
	height  int32
	results int32
	dead    bool
}

// lower builds the flat IR: branch sidetable, segment accounting tables and
// the stack high-water mark. Block structure comes from g.Match; brTables
// holds the body's br_table targets.
func lower(m *wasm.Module, cf *compiledFunc, g *cfg.Graph, brTables [][]uint32) error {
	body := cf.body
	flat := make([]flatOp, len(body))
	cf.flat = flat
	leader := segLeaders(g)

	// Accounting tables: per-segment instruction counts charged at leaders
	// (cost sums are derived per cost-model fingerprint in module.go).
	cf.segEnd = make([]int32, len(body))
	end := int32(len(body) - 1)
	for pc := len(body) - 1; pc >= 0; pc-- {
		cf.segEnd[pc] = end
		if leader[pc] {
			flat[pc].segCnt = end - int32(pc) + 1
			end = int32(pc) - 1
		}
	}

	// Branch resolution and stack-height analysis. Heights are static in
	// validated code; code made unreachable by an unconditional transfer is
	// tracked with the dead flag and skipped (it can never execute, but its
	// branches still get structurally-valid targets).
	frames := []lframe{{hdr: -1, results: int32(cf.nresults)}}
	h, maxH := int32(0), int32(0)
	dead := false

	// Record the static height and reachability before every pc: the
	// register lowering (regalloc.go) replays the body against them without
	// re-deriving the control-frame walk.
	cf.preH = make([]int32, len(body))
	cf.preDead = make([]bool, len(body))

	resolve := func(depth uint32) (flatTarget, error) {
		if int(depth) >= len(frames) {
			return flatTarget{}, fmt.Errorf("branch depth %d out of range", depth)
		}
		fr := &frames[len(frames)-1-int(depth)]
		switch {
		case fr.hdr == -1: // function label: branching to it returns
			return flatTarget{pc: int32(len(body)), height: 0, arity: int32(cf.nresults)}, nil
		case fr.opener == wasm.OpLoop: // backward edge, no results
			return flatTarget{pc: int32(fr.hdr + 1), height: fr.height, arity: 0}, nil
		default:
			return flatTarget{pc: g.Match[fr.hdr].EndPC + 1, height: fr.height, arity: fr.results}, nil
		}
	}

	for pc, in := range body {
		cf.preH[pc] = h
		cf.preDead[pc] = dead
		switch in.Op {
		case wasm.OpBlock, wasm.OpLoop:
			frames = append(frames, lframe{
				opener: in.Op, hdr: pc, height: h,
				results: labelArity(in.BT), dead: dead,
			})
		case wasm.OpIf:
			if !dead {
				h-- // condition
			}
			frames = append(frames, lframe{
				opener: in.Op, hdr: pc, height: h,
				results: labelArity(in.BT), dead: dead,
			})
			if mi := g.Match[pc]; mi.ElsePC >= 0 {
				flat[pc].target = mi.ElsePC + 1
			} else {
				flat[pc].target = mi.EndPC + 1
			}
		case wasm.OpElse:
			fr := &frames[len(frames)-1]
			h = fr.height
			dead = fr.dead
			// Fallthrough from the then-arm continues after the matching
			// end; the end it skips is charged by the engine inline.
			flat[pc].target = g.Match[pc].EndPC + 1
		case wasm.OpEnd:
			if len(frames) > 1 {
				fr := frames[len(frames)-1]
				frames = frames[:len(frames)-1]
				h = fr.height + fr.results
				dead = fr.dead
			} else {
				h = int32(cf.nresults)
			}
		case wasm.OpBr:
			t, err := resolve(in.Idx)
			if err != nil {
				return err
			}
			flat[pc].target, flat[pc].height, flat[pc].arity = t.pc, t.height, t.arity
			dead = true
		case wasm.OpBrIf:
			if !dead {
				h-- // condition
			}
			t, err := resolve(in.Idx)
			if err != nil {
				return err
			}
			flat[pc].target, flat[pc].height, flat[pc].arity = t.pc, t.height, t.arity
		case wasm.OpBrTable:
			if !dead {
				h-- // index
			}
			targets := brTables[in.Idx] // in range: cfg.Build checked it
			flat[pc].target, flat[pc].height = int32(len(cf.brEdges)), int32(len(targets))
			for _, d := range targets {
				t, err := resolve(d)
				if err != nil {
					return err
				}
				cf.brEdges = append(cf.brEdges, t)
			}
			dead = true
		case wasm.OpReturn, wasm.OpUnreachable:
			dead = true
		case wasm.OpCall, wasm.OpCallIndirect:
			if !dead {
				var ft wasm.FuncType
				if in.Op == wasm.OpCall {
					var err error
					ft, err = m.FuncTypeAt(in.Idx)
					if err != nil {
						return err
					}
				} else {
					if int(in.Idx) >= len(m.Types) {
						return fmt.Errorf("call_indirect type %d out of range", in.Idx)
					}
					ft = m.Types[in.Idx]
					h-- // table element index
				}
				h += int32(len(ft.Results)) - int32(len(ft.Params))
			}
		default:
			if !dead {
				pop, push, ok := in.Op.StackEffect()
				if !ok {
					return fmt.Errorf("pc %d: no stack effect for %s", pc, in.Op)
				}
				h += int32(push - pop)
			}
		}
		if !dead && h < 0 {
			return fmt.Errorf("pc %d: operand stack underflow", pc)
		}
		if h > maxH {
			maxH = h
		}
	}
	// One slot of headroom so host functions returning their declared single
	// result always fit even when the call site sits at the high-water mark.
	cf.maxStack = int(maxH) + 1
	return nil
}
