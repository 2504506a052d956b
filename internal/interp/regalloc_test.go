package interp

import (
	"testing"

	"acctee/internal/polybench"
	"acctee/internal/wasm"
)

// White-box tests for the register lowering: structural invariants of the
// closure stream (the properties the accounting-exactness and dispatch
// arguments rest on) and the coverage the pass achieves on real kernels.

// checkRegInvariants walks every function's register stream and asserts:
//
//   - every pc has a closure (interior and dead pcs get defensive guards,
//     so a lowering bug can never dispatch a nil);
//   - the width table tiles the body: span leaders carry w >= 1, interior
//     pcs carry 0, and consecutive spans are contiguous;
//   - no span interior is a segment leader (so every branch target, post-
//     call and post-grow split point starts its own closure and the batched
//     accounting charge covers each span exactly once);
//   - a span never crosses its leader's segment end (trap rollback bound);
//   - the register file covers locals plus the operand-stack high-water
//     mark.
func checkRegInvariants(t *testing.T, name string, cm *CompiledModule) {
	t.Helper()
	for fi := range cm.funcs {
		cf := &cm.funcs[fi]
		if cf.reg == nil {
			t.Fatalf("%s func %d: no register stream", name, fi)
		}
		rc := cf.reg
		if len(rc.ops) != len(cf.body) || len(rc.wid) != len(cf.body) || len(rc.spec) != len(cf.body) {
			t.Fatalf("%s func %d: stream length mismatch", name, fi)
		}
		if rc.regs != cf.numLoc+cf.maxStack {
			t.Errorf("%s func %d: register file %d != numLoc %d + maxStack %d",
				name, fi, rc.regs, cf.numLoc, cf.maxStack)
		}
		for pc := range rc.ops {
			if rc.ops[pc] == nil {
				t.Fatalf("%s func %d pc %d: nil closure", name, fi, pc)
			}
		}
		for pc := 0; pc < len(cf.body); {
			w := int(rc.wid[pc])
			if w < 1 {
				t.Fatalf("%s func %d pc %d: span leader with width %d", name, fi, pc, w)
			}
			if pc+w > len(cf.body) {
				t.Fatalf("%s func %d pc %d: span overruns body (w=%d)", name, fi, pc, w)
			}
			for q := pc + 1; q < pc+w; q++ {
				if rc.wid[q] != 0 {
					t.Errorf("%s func %d pc %d: interior pc %d has width %d", name, fi, pc, q, rc.wid[q])
				}
				if cf.flat[q].segCnt != 0 {
					t.Errorf("%s func %d pc %d: interior pc %d is a segment leader", name, fi, pc, q)
				}
			}
			if end := int(cf.flat[pc].segEnd); w > 1 && pc+w-1 > end {
				t.Errorf("%s func %d pc %d: span [%d,%d] crosses segment end %d", name, fi, pc, pc, pc+w-1, end)
			}
			pc += w
		}
	}
}

// TestRegInvariantsPolybench checks the invariants on real kernels and
// requires the lowering to actually cover the stream with dedicated
// handlers and to form multi-instruction spans (the two claims RegStats
// makes).
func TestRegInvariantsPolybench(t *testing.T) {
	for _, name := range []string{"gemm", "atax", "jacobi-2d", "cholesky", "durbin"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := k.Build(8)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := Compile(m, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkRegInvariants(t, name, cm)
		s := cm.RegStats()
		if s.Registers == 0 || s.Instrs == 0 {
			t.Fatalf("%s: empty RegStats: %+v", name, s)
		}
		if cov := float64(s.Specialised) / float64(s.Instrs); cov < 0.5 {
			t.Errorf("%s: specialisation coverage %.0f%% below 50%% (%d/%d instrs, %d spans)",
				name, 100*cov, s.Specialised, s.Instrs, s.Spans)
		}
		if s.Spans == 0 {
			t.Errorf("%s: no register spans formed", name)
		}
	}
}

// TestRegStatsHandBuilt pins the stats on a function whose lowering is
// known by construction: a[i]*s + c compiles to one statement closure
// covering the whole scaled-load/fma expression up to its local.set sink,
// and the store line to a second; both are fully specialised.
func TestRegStatsHandBuilt(t *testing.T) {
	b := wasm.NewModule("rs")
	b.Memory(1, 1)
	f := b.Func("f", []wasm.ValueType{wasm.I32, wasm.F64, wasm.F64}, nil)
	addr := f.Local(wasm.I32)
	val := f.Local(wasm.F64)
	// i*8 scaled load, fma, store back.
	f.LocalGet(0).I32Const(8).Op(wasm.OpI32Mul).LocalTee(addr)
	f.Load(wasm.OpF64Load, 0).LocalGet(1).Op(wasm.OpF64Mul)
	f.LocalGet(2).Op(wasm.OpF64Add).LocalSet(val)
	f.LocalGet(addr).LocalGet(val).Store(wasm.OpF64Store, 0)
	b.ExportFunc("f", f.End())
	cm, err := Compile(b.MustBuild(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkRegInvariants(t, "handbuilt", cm)
	s := cm.RegStats()
	if s.Specialised != s.Instrs {
		t.Errorf("hand-built kernel not fully specialised: %d/%d", s.Specialised, s.Instrs)
	}
	if s.Spans != 2 {
		t.Errorf("expected exactly 2 statement spans (expression + store), got %d", s.Spans)
	}
	// Straight-line code without a counter update has neither a pure jump
	// to thread past nor a window to carry.
	if s.Threaded != 0 || s.InlineUpdates != 0 {
		t.Errorf("Threaded = %d, InlineUpdates = %d on a module with neither pattern", s.Threaded, s.InlineUpdates)
	}
	// f64.mul and f64.add are subtree ⊕ register, read inside the operator's
	// closure; the two leaf evaluators left are the store's address and
	// value, both bare registers (storeCommit has no register arms).
	if s.LeafOperands != 2 {
		t.Errorf("LeafOperands = %d, want 2", s.LeafOperands)
	}
}

// TestUpdateWindowSplitByLeader re-lowers a function after planting a
// segment leader inside its `g += k` window. Valid code cannot produce one
// (none of the window's four instructions ends a basic block), so the
// artifact is only lowered, never run: the statement must end at the leader
// and the update must not be carried.
func TestUpdateWindowSplitByLeader(t *testing.T) {
	b := wasm.NewModule("split")
	g := b.Global("g", wasm.I64, true, wasm.ConstI64(0))
	f := b.Func("f", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	f.LocalGet(0).I32Const(3).Op(wasm.OpI32LtS)
	f.GlobalGet(g).I64ConstV(5).Op(wasm.OpI64Add).GlobalSet(g) // pcs 3..6
	b.ExportFunc("f", f.End())
	cm, err := Compile(b.MustBuild(), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cf := &cm.funcs[0]
	if cf.reg.inlineUpd != 1 || cf.reg.wid[0] != 7 {
		t.Fatalf("intact window: inlineUpd = %d, first statement %d wide; want 1 and 7", cf.reg.inlineUpd, cf.reg.wid[0])
	}
	for split := 4; split <= 6; split++ {
		cf.flat[split].segCnt = 1
		regLower(cm, 0)
		checkRegInvariants(t, "split", cm)
		if cf.reg.inlineUpd != 0 {
			t.Errorf("leader at pc %d: the update was carried across it", split)
		}
		if got := int(cf.reg.wid[0]); got != split {
			t.Errorf("leader at pc %d: first statement is %d wide", split, got)
		}
		cf.flat[split].segCnt = 0
	}
}

// TestDivConstMatchesApplyBin checks the fault-free div/rem-by-constant
// evaluators against applyBin over the edge values, for all eight opcodes:
// a divisor that cannot trap must be lowered (never setting the statement's
// fault flag) and agree with applyBin on every dividend; one that can must
// stay on the trapping arm.
func TestDivConstMatchesApplyBin(t *testing.T) {
	edges := []uint64{0, 1, 2, 3, 7, 0x7fffffff, 0x80000000, 0xffffffff, 0xfffffff9,
		1 << 32, 0x7fffffffffffffff, 1 << 63, ^uint64(0), ^uint64(6)}
	ops := []struct {
		op     wasm.Opcode
		is32   bool
		signed bool
	}{
		{wasm.OpI32DivS, true, true}, {wasm.OpI32DivU, true, false},
		{wasm.OpI32RemS, true, true}, {wasm.OpI32RemU, true, false},
		{wasm.OpI64DivS, false, true}, {wasm.OpI64DivU, false, false},
		{wasm.OpI64RemS, false, true}, {wasm.OpI64RemU, false, false},
	}
	rl := &regLowering{}
	fr := make([]uint64, 1)
	for _, o := range ops {
		for _, c := range edges {
			if o.is32 {
				c = uint64(uint32(c)) // i32.const carries zero-extended bits
			}
			minusOne := c == ^uint64(0) || (o.is32 && c == 0xffffffff)
			s := &stmtState{rl: rl}
			// A register leaf, and a subtree (which x%1 may not drop).
			for _, a := range []vnode{{kind: vReg, reg: 0}, {kind: vEval, eval: func(vm *VM, fr []uint64) uint64 { return fr[0] }}} {
				v, ok := rl.divConst(o.op, a, c, 0, s)
				if want := c != 0 && !(o.signed && minusOne); ok != want {
					t.Errorf("%v by %#x: lowered = %v, want %v", o.op, c, ok, want)
				}
				if !ok {
					continue
				}
				if s.fault {
					t.Errorf("%v by %#x: marked the statement fault-capable", o.op, c)
				}
				eval := evalOf(v)
				for _, x := range edges {
					fr[0] = x
					want, err := applyBin(o.op, x, c)
					if err != nil {
						t.Fatalf("%v %#x by %#x traps (%v) but was lowered fault-free", o.op, x, c, err)
					}
					if got := eval(nil, fr); got != want {
						t.Errorf("%v %#x by %#x = %#x, applyBin says %#x", o.op, x, c, got, want)
					}
				}
			}
		}
	}
}

// TestMixedLayoutsMatchApplyBin checks the register ⊕ subtree and subtree ⊕
// register closures of regBinEvalSpec against applyBin over the integer edge
// values and, bit for bit, the float ones (both zeros and infinities, a quiet
// and a signalling NaN pattern, in f64 and f32 positions).
func TestMixedLayoutsMatchApplyBin(t *testing.T) {
	vals := []uint64{0, 1, ^uint64(0), // 0, 1, -1
		0x80000000, 0xffffffff, 1 << 63, // MinInt32 (-0.0 as f32), MaxUint32, MinInt64 (-0.0 as f64)
		0x7ff0000000000000, 0xfff0000000000000, 0x7ff8000000000001, 0x7ff0000000000001, // f64 ±Inf, quiet NaN, signalling NaN
		0x7f800000, 0xff800000, 0x7fc00001, 0x7f800001, // the same four as f32
		0x3ff8000000000000, 0x3fc00000} // 1.5 as f64 and as f32
	ops := []wasm.Opcode{wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpF64Add, wasm.OpF64Sub, wasm.OpF64Mul, wasm.OpF64Div,
		wasm.OpF32Add, wasm.OpF32Mul}
	fr := make([]uint64, 2)
	reg := vnode{kind: vReg, reg: 0}
	sub := vnode{kind: vEval, eval: func(vm *VM, fr []uint64) uint64 { return fr[1] }}
	for _, op := range ops {
		for _, regLeft := range []bool{true, false} {
			a, b := reg, sub
			if !regLeft {
				a, b = sub, reg
			}
			eval := regBinEvalSpec(op, a, b)
			if eval == nil {
				t.Fatalf("%v regLeft=%v: no inline closure", op, regLeft)
			}
			for _, x := range vals {
				for _, y := range vals {
					fr[0], fr[1] = x, y
					if !regLeft {
						fr[0], fr[1] = y, x
					}
					want, _ := applyBin(op, x, y)
					if got := eval(nil, fr); got != want {
						t.Errorf("%v regLeft=%v: %#x op %#x = %#x, applyBin says %#x", op, regLeft, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestZeroEngineIsReg pins the zero value: an instantiation that names no
// engine runs on the register engine, and that engine is Engine(0) — the
// spelling the benchmark uses for "whatever the default is".
func TestZeroEngineIsReg(t *testing.T) {
	if got := Engine(0).String(); got != "reg" {
		t.Errorf("Engine(0).String() = %q, want \"reg\"", got)
	}
	b := wasm.NewModule("dflt")
	f := b.Func("f", nil, []wasm.ValueType{wasm.I32})
	f.I32Const(7)
	b.ExportFunc("f", f.End())
	vm, err := Instantiate(b.MustBuild(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if vm.engine != EngineReg {
		t.Errorf("Config{} bound engine %v, want %v", vm.engine, EngineReg)
	}
	if res, err := vm.InvokeExport("f"); err != nil || res[0] != 7 {
		t.Errorf("f() = %v, %v", res, err)
	}
}
