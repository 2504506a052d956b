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
