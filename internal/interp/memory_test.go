package interp_test

import (
	"bytes"
	"slices"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/workloads"
)

// This file pins how linear memory is backed: page by page on first touch,
// so an instance holds the pages it touched rather than every page its
// module declares or every page below the highest byte it touched;
// memory.grow copies nothing; and pooled Reset re-zeroes 4 KiB blocks.

var i32 = []wasm.ValueType{wasm.I32}

// memoryModule declares minPages..maxPages of memory and exports
// grow(n) = memory.grow(n), size() = memory.size, load(a) = i32.load8_u(a)
// and store(a, v) = i32.store8(a, v).
func memoryModule(t *testing.T, minPages, maxPages uint32) *interp.CompiledModule {
	t.Helper()
	b := wasm.NewModule("mem")
	b.Memory(minPages, maxPages)
	g := b.Func("grow", i32, i32)
	g.LocalGet(0).Op(wasm.OpMemoryGrow)
	b.ExportFunc("grow", g.End())
	s := b.Func("size", nil, i32)
	s.Op(wasm.OpMemorySize)
	b.ExportFunc("size", s.End())
	l := b.Func("load", i32, i32)
	l.LocalGet(0).Load(wasm.OpI32Load8U, 0)
	b.ExportFunc("load", l.End())
	st := b.Func("store", []wasm.ValueType{wasm.I32, wasm.I32}, nil)
	st.LocalGet(0).LocalGet(1).Store(wasm.OpI32Store8, 0)
	b.ExportFunc("store", st.End())
	cm, err := interp.Compile(b.MustBuild(), interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// call invokes an export and returns its single result (0 for none).
func call(t *testing.T, vm *interp.VM, name string, args ...uint64) uint64 {
	t.Helper()
	res, err := vm.InvokeExport(name, args...)
	if err != nil {
		t.Fatalf("%s%v: %v", name, args, err)
	}
	if len(res) == 0 {
		return 0
	}
	return res[0]
}

var engines = []interp.Engine{interp.EngineReg, interp.EngineStructured}

// TestDeclaredMemoryIsNotAllocated: an instance backs the pages it touches,
// not the pages its module declares: instantiating a 65,536-page module
// must not allocate 4 GiB before the module runs an instruction.
func TestDeclaredMemoryIsNotAllocated(t *testing.T) {
	for _, pages := range []uint32{1024, 65536} {
		cm := memoryModule(t, pages, 65536)
		pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range engines {
			cfg := interp.Config{Engine: engine}
			for how, instantiate := range map[string]func() (*interp.VM, error){
				"Instantiate": func() (*interp.VM, error) { return cm.Instantiate(cfg) },
				"pool Get":    func() (*interp.VM, error) { return pool.Get(cfg) },
			} {
				var vm *interp.VM
				got := allocated(func() {
					if vm, err = instantiate(); err == nil {
						call(t, vm, "store", 100, 7)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if got >= 1<<20 {
					t.Errorf("%d pages, %v, %s: allocated %d bytes", pages, engine, how, got)
				}
				if size := call(t, vm, "size"); size != uint64(pages) || vm.MemorySize() != pages*wasm.PageSize {
					t.Errorf("%d pages, %v, %s: memory.size %d, MemorySize %d", pages, engine, how, size, vm.MemorySize())
				}
				if vm.Backed() != wasm.PageSize || call(t, vm, "load", 100) != 7 || call(t, vm, "load", 101) != 0 {
					t.Errorf("%d pages, %v, %s: backed %d bytes after one store at 100", pages, engine, how, vm.Backed())
				}
			}
		}
	}
}

// TestMemoryGrowCopiesNothing: memory.grow moves the page count only, on
// both engines; the new pages read zero, take stores, and are backed when
// touched. Growth past the module's maximum or Config.MaxPages fails with
// -1 and changes nothing.
func TestMemoryGrowCopiesNothing(t *testing.T) {
	cm := memoryModule(t, 1, 1024)
	for _, engine := range engines {
		vm, err := cm.Instantiate(interp.Config{Engine: engine, MaxPages: 600})
		if err != nil {
			t.Fatal(err)
		}
		call(t, vm, "store", 100, 7)
		var old uint64
		if got := allocated(func() { old = call(t, vm, "grow", 512) }); got >= 1<<10 || old != 1 {
			t.Errorf("%v: grow(512) = %d, allocated %d bytes", engine, old, got)
		}
		if size := call(t, vm, "size"); size != 513 || vm.Backed() != wasm.PageSize {
			t.Errorf("%v: after grow(512): size %d, backed %d", engine, size, vm.Backed())
		}
		high := uint64(512*wasm.PageSize + 5)
		if call(t, vm, "load", high) != 0 {
			t.Errorf("%v: a grown page does not read zero", engine)
		}
		call(t, vm, "store", high, 9)
		if call(t, vm, "load", high) != 9 || call(t, vm, "load", 100) != 7 {
			t.Errorf("%v: stores lost across memory.grow", engine)
		}
		if got := call(t, vm, "grow", 100); uint32(got) != 0xFFFFFFFF || call(t, vm, "size") != 513 {
			t.Errorf("%v: grow past MaxPages = %d", engine, got)
		}
		if _, err := vm.InvokeExport("load", 513*wasm.PageSize); err != interp.ErrOutOfBounds {
			t.Errorf("%v: load past the memory: %v", engine, err)
		}
	}
}

// TestPooledStoreAtTopOfBacking: every page a pooled instance backs can be
// stored to up to its last byte, and the next Reset re-zeroes it, wherever
// in a 417-page memory the pages lie. After each store below, the last byte
// of every page backed so far takes a store too: the block of each page a
// dirty bitmap sized from a rounded-down block count, or reaching only to
// the lower pages, has no bit for. The instance holds exactly those pages.
func TestPooledStoreAtTopOfBacking(t *testing.T) {
	const pages = 417
	cm := memoryModule(t, pages, pages)
	for _, engine := range engines {
		cfg := interp.Config{Engine: engine}
		pool, err := cm.NewPool(cfg, interp.PoolConfig{})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var stored, backed []uint64
		for _, a := range []uint64{13959167, 13959168, 17448960, 21811200, 27263999, pages*wasm.PageSize - 1} {
			call(t, vm, "store", a, 1)
			stored = append(stored, a)
			if pn := a / wasm.PageSize; !slices.Contains(backed, pn) {
				backed = append(backed, pn)
			}
			for _, pn := range backed {
				top := (pn+1)*wasm.PageSize - 1
				call(t, vm, "store", top, 0xCD)
				stored = append(stored, top)
			}
			if got, want := vm.Backed(), len(backed)*wasm.PageSize; got != want {
				t.Errorf("%v: after a store at %d, backed %d bytes, want %d", engine, a, got, want)
			}
		}
		pool.Put(vm)
		if vm, err = pool.Get(cfg); err != nil {
			t.Fatal(err)
		}
		for _, a := range stored {
			if got := call(t, vm, "load", a); got != 0 {
				t.Errorf("%v: byte %d reads %#x after Reset", engine, a, got)
			}
		}
	}
}

// TestResetHidesGrownPages: a run that grows memory and writes the new
// pages leaves them in a backing the next run keeps. Reset must re-zero
// them even though the smaller initial memory no longer covers them, so
// that growing again reads zero — pooled (block-granular) and direct
// (untracked, full clear), on both engines.
func TestResetHidesGrownPages(t *testing.T) {
	cm := memoryModule(t, 1, 16)
	high := uint64(3*wasm.PageSize + 5)
	for _, engine := range engines {
		cfg := interp.Config{Engine: engine}
		pool, err := cm.NewPool(cfg, interp.PoolConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pooled := range []bool{true, false} {
			vm, err := cm.Instantiate(cfg)
			if pooled {
				vm, err = pool.Get(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			call(t, vm, "grow", 3)
			call(t, vm, "store", high, 0xAB)
			if pooled {
				pool.Put(vm)
				vm, err = pool.Get(cfg)
			} else {
				err = vm.Reset(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if size := call(t, vm, "size"); size != 1 {
				t.Fatalf("%v, pooled %v: size %d after reset", engine, pooled, size)
			}
			call(t, vm, "grow", 3)
			if got := call(t, vm, "load", high); got != 0 {
				t.Errorf("%v, pooled %v: a regrown page reads %#x from the last run", engine, pooled, got)
			}
		}
	}
}

// TestPooledEchoBacksWhatItTouches serves gateway-shaped echo requests from
// a pool: a 64 B payload written at InBase, run, the response read at
// OutBase. The instance backs the 2 pages it touches — the request's and
// the response's — not the 66 up to the response's page nor the 129 the
// module declares; each request dirties one 4 KiB block at either end,
// which is all Reset clears; and a recycled instance reuses its pages.
func TestPooledEchoBacksWhatItTouches(t *testing.T) {
	m, err := workloads.BuildEcho()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := interp.Compile(m, interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{Prewarm: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 64)
	serve := func() *interp.VM {
		vm, err := pool.Get(interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		in, err := vm.MemoryDirty(workloads.InBase, uint32(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		copy(in, payload)
		n := call(t, vm, "run", uint64(len(payload)))
		out, err := vm.MemoryView(workloads.OutBase, uint32(n))
		if err != nil || !bytes.Equal(out, payload) {
			t.Fatalf("echo returned %q, %v", out, err)
		}
		return vm
	}
	vm := serve()
	declared := int(vm.MemorySize()) / wasm.PageSize
	if vm.Backed() != 2*wasm.PageSize || declared != 129 {
		t.Errorf("backed %d of %d declared pages, want 2", vm.Backed()/wasm.PageSize, declared)
	}
	if got := vm.DirtyBlocks(); got != 2 {
		t.Errorf("one request dirtied %d blocks, want 2", got)
	}
	pool.Put(vm)
	var again *interp.VM
	if got := allocated(func() { again = serve() }); got >= 64<<10 {
		t.Errorf("a recycled instance allocated %d bytes serving a request", got)
	}
	if again != vm || again.Backed() != vm.Backed() {
		t.Errorf("the pool did not hand back the warm instance with its pages")
	}
	pool.Put(again)
	vm, err = pool.Get(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []uint32{workloads.InBase, workloads.OutBase} {
		if view, err := vm.MemoryView(base, 64); err != nil || !bytes.Equal(view, make([]byte, 64)) {
			t.Errorf("offset %d after Reset: %v, %v", base, view, err)
		}
	}
}
