package interp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/wasm"
)

// This file pins the page table's slow paths against a flat []byte model of
// linear memory: accesses that straddle two pages — unbacked, backed apart,
// or sharing one allocation — or the memory's end, on both engines and
// through the register engine's fuel-exhaustion tail, and sequences of
// accesses, memory.grow, host views and pooled Reset (FuzzLinearMemory).

// pageLoads and pageStores are every load and store: its width, and for a
// load the bits of its result and whether it sign-extends.
var pageLoads = []struct {
	op          wasm.Opcode
	width, bits int
	signed      bool
}{
	{wasm.OpI32Load, 4, 32, false}, {wasm.OpI64Load, 8, 64, false},
	{wasm.OpF32Load, 4, 32, false}, {wasm.OpF64Load, 8, 64, false},
	{wasm.OpI32Load8S, 1, 32, true}, {wasm.OpI32Load8U, 1, 32, false},
	{wasm.OpI32Load16S, 2, 32, true}, {wasm.OpI32Load16U, 2, 32, false},
	{wasm.OpI64Load8S, 1, 64, true}, {wasm.OpI64Load8U, 1, 64, false},
	{wasm.OpI64Load16S, 2, 64, true}, {wasm.OpI64Load16U, 2, 64, false},
	{wasm.OpI64Load32S, 4, 64, true}, {wasm.OpI64Load32U, 4, 64, false},
}

var pageStores = []struct {
	op    wasm.Opcode
	width int
}{
	{wasm.OpI32Store, 4}, {wasm.OpI64Store, 8}, {wasm.OpF32Store, 4}, {wasm.OpF64Store, 8},
	{wasm.OpI32Store8, 1}, {wasm.OpI32Store16, 2},
	{wasm.OpI64Store8, 1}, {wasm.OpI64Store16, 2}, {wasm.OpI64Store32, 4},
}

// TestJoinedViewsRetainNoMoreThanTheMemory slides a multi-page host view
// up a pooled instance's memory one page at a time, so every view joins
// pages that an earlier one joined with pages below them. No view may leave
// an allocation alive whose pages it moved, and the heap retained after a
// GC stays within the declared memory.
func TestJoinedViewsRetainNoMoreThanTheMemory(t *testing.T) {
	const pages, window = 64, 8
	cm := pageModule(t, pages, pages)
	pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := pool.Get(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for round := range 3 {
		for p := uint32(0); p+window <= pages; p++ {
			view := vm.MemoryView
			if p%2 == 1 {
				view = vm.MemoryDirty
			}
			refs := vm.PageRefs()
			off := p*wasm.PageSize + 100*uint32(round)
			if _, err := view(off, min(window*wasm.PageSize, pages*wasm.PageSize-off)); err != nil {
				t.Fatal(err)
			}
			if n := vm.Stranded(refs); n > 0 {
				t.Fatalf("round %d, view at page %d: %d moved pages left their old allocation alive", round, p, n)
			}
		}
		pool.Put(vm)
		if vm, err = pool.Get(interp.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2*pages*wasm.PageSize {
		t.Errorf("the heap grew by %d bytes over %d bytes of declared memory", grew, pages*wasm.PageSize)
	}
	runtime.KeepAlive(vm)
}

// pageModule declares minPages..maxPages of memory with a data segment
// across the first page boundary, and exports lN(a) -> i64, the Nth load's
// result bits, also left in global 0 (where a run that stops on fuel at the
// function's last instruction leaves it), sN(a, v i64), the Nth store of
// v's low bits, grow(n) and size().
func pageModule(t testing.TB, minPages, maxPages uint32) *interp.CompiledModule {
	t.Helper()
	b := wasm.NewModule("pages")
	b.Memory(minPages, maxPages)
	b.Data(wasm.PageSize-3, []byte("segment"))
	loaded := b.Global("loaded", wasm.I64, true, wasm.ConstI64(0))
	for i, l := range pageLoads {
		f := b.Func(fmt.Sprint("l", i), i32, []wasm.ValueType{wasm.I64})
		f.LocalGet(0).Load(l.op, 0)
		switch l.op {
		case wasm.OpF32Load:
			f.Op(wasm.OpI32ReinterpretF).Op(wasm.OpI64ExtendI32U)
		case wasm.OpF64Load:
			f.Op(wasm.OpI64ReinterpretF)
		default:
			if l.bits == 32 {
				f.Op(wasm.OpI64ExtendI32U)
			}
		}
		f.GlobalSet(loaded).GlobalGet(loaded)
		b.ExportFunc(fmt.Sprint("l", i), f.End())
	}
	for i, s := range pageStores {
		f := b.Func(fmt.Sprint("s", i), []wasm.ValueType{wasm.I32, wasm.I64}, nil)
		f.LocalGet(0).LocalGet(1)
		switch s.op {
		case wasm.OpI32Store, wasm.OpI32Store8, wasm.OpI32Store16:
			f.Op(wasm.OpI32WrapI64)
		case wasm.OpF32Store:
			f.Op(wasm.OpI32WrapI64).Op(wasm.OpF32ReinterpretI)
		case wasm.OpF64Store:
			f.Op(wasm.OpF64ReinterpretI)
		}
		f.Store(s.op, 0)
		b.ExportFunc(fmt.Sprint("s", i), f.End())
	}
	g := b.Func("grow", i32, i32)
	g.LocalGet(0).Op(wasm.OpMemoryGrow)
	b.ExportFunc("grow", g.End())
	sz := b.Func("size", nil, i32)
	sz.Op(wasm.OpMemorySize)
	b.ExportFunc("size", sz.End())
	cm, err := interp.Compile(b.MustBuild(), interp.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// flatMemory is the model: linear memory as one []byte.
type flatMemory []byte

// fresh is the model of a new instance of pageModule(minPages, ...).
func fresh(minPages uint32) flatMemory {
	m := make(flatMemory, minPages*wasm.PageSize)
	copy(m[wasm.PageSize-3:], "segment")
	return m
}

func (m flatMemory) load(i int, a uint64) (uint64, bool) {
	l := pageLoads[i]
	if a+uint64(l.width) > uint64(len(m)) {
		return 0, false
	}
	var buf [8]byte
	copy(buf[:], m[a:a+uint64(l.width)])
	v := binary.LittleEndian.Uint64(buf[:])
	if l.signed {
		shift := 64 - 8*l.width
		v = uint64(int64(v<<shift) >> shift)
	}
	if l.bits == 32 {
		v = uint64(uint32(v))
	}
	return v, true
}

func (m flatMemory) store(i int, a, v uint64) bool {
	w := uint64(pageStores[i].width)
	if a+w > uint64(len(m)) {
		return false
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(m[a:a+w], buf[:])
	return true
}

// addrModel charges each instruction 1 and each access a figure that reads
// its address, width, kind and the memory size, so Cost tells two engines
// apart that charge an access differently, or charge a trapping one.
type addrModel struct{}

func (addrModel) InstrCost(wasm.Opcode) uint64 { return 1 }

func (addrModel) MemCost(addr, width uint32, store bool, memSize uint32) uint64 {
	c := uint64(addr)*3 + uint64(width)*1000 + uint64(memSize>>16)*7
	if store {
		c += 500
	}
	return c
}

// accessObs is what one engine did with one access: the value loaded
// (global 0), the error, the counters, and the bytes 16 either side of the
// page boundary.
type accessObs struct {
	val               uint64
	err               error
	count, cost, fuel uint64
	window            []byte
}

// TestPageStraddlingAccess: every load and store at k·64 KiB − d, d = 1…7,
// for every page boundary k of a 4-page memory and its end, after each way
// the two pages can be laid out: neither backed, only the lower one, both
// apart, both in one allocation (a host view joined them), and the upper
// one in another allocation than a lower one joined to the page below it.
// Each access runs on a fresh instance on the register engine, the
// structured engine, and both again with fuel that runs out at the access
// function's last instruction (or, for a trapping access, at the trap),
// which sends the register engine's access through its per-instruction
// tail. Values, traps and the bytes around the boundary must match the
// model, and InstrCount, Cost and FuelRemaining the structured engine's. A
// store across the memory's end traps with ErrOutOfBounds and writes no
// byte.
func TestPageStraddlingAccess(t *testing.T) {
	const pages = 4
	cm := pageModule(t, pages, pages)
	layouts := []struct {
		name string
		// lower, upper: the page below, above the boundary is backed (by
		// byte stores of a pattern) before the access; join > 0: a host
		// view joins pages k-join and k-join+1 into one allocation first.
		lower, upper bool
		join         uint64
	}{
		{"neither page backed", false, false, 0},
		{"upper page unbacked", true, false, 0},
		{"pages backed apart", true, true, 0},
		{"pages in one allocation", true, true, 1},
		{"upper page in another allocation", true, true, 2},
	}
	for _, lay := range layouts {
		for k := uint64(1); k <= pages; k++ {
			if k == pages && lay.join == 1 || k < lay.join {
				continue
			}
			boundary := k * wasm.PageSize
			// prep lays the pages out on vm (nil: the model only) and
			// writes the same pattern into it and the model: 8 bytes either
			// side of the boundary, on the pages the layout backs.
			prep := func(t *testing.T, vm *interp.VM, model flatMemory) {
				t.Helper()
				if lay.join > 0 && vm != nil {
					if _, err := vm.MemoryView(uint32(boundary-lay.join*wasm.PageSize), 2*wasm.PageSize); err != nil {
						t.Fatal(err)
					}
				}
				for d := uint64(1); d <= 8; d++ {
					for _, a := range []uint64{boundary - d, boundary + d - 1} {
						if a < boundary && !lay.lower || a >= boundary && (!lay.upper || k == pages) {
							continue
						}
						v := 0xA0 + a%0x40
						model.store(4, a, v)
						if vm != nil {
							call(t, vm, "s4", a, v)
						}
					}
				}
			}
			for d := uint64(1); d <= 7; d++ {
				a := boundary - d
				for i := range pageLoads {
					name := fmt.Sprint("l", i)
					t.Run(fmt.Sprintf("%s/k=%d/%v/d=%d", lay.name, k, pageLoads[i].op, d), func(t *testing.T) {
						model := fresh(pages)
						prep(t, nil, model)
						want, ok := model.load(i, a)
						for _, got := range runStraddle(t, cm, prep, name, a, 0, boundary) {
							if ok != (got.err == nil) || ok && got.val != want {
								t.Errorf("%s(%d) = %#x, %v; model %#x, in bounds %v", name, a, got.val, got.err, want, ok)
							}
							if !ok && !errors.Is(got.err, interp.ErrOutOfBounds) {
								t.Errorf("%s(%d): %v, want ErrOutOfBounds", name, a, got.err)
							}
						}
					})
				}
				for i := range pageStores {
					name := fmt.Sprint("s", i)
					t.Run(fmt.Sprintf("%s/k=%d/%v/d=%d", lay.name, k, pageStores[i].op, d), func(t *testing.T) {
						const v = 0x8877665544332211
						model := fresh(pages)
						prep(t, nil, model)
						ok := model.store(i, a, v)
						lo, hi := boundary-16, min(boundary+16, uint64(len(model)))
						for _, got := range runStraddle(t, cm, prep, name, a, v, boundary) {
							if ok != (got.err == nil) || !ok && !errors.Is(got.err, interp.ErrOutOfBounds) {
								t.Errorf("%s(%d): %v; model in bounds %v", name, a, got.err, ok)
							}
							if !bytes.Equal(got.window, model[lo:hi]) {
								t.Errorf("%s(%d): bytes [%d, %d) read %x, model %x", name, a, lo, hi, got.window, model[lo:hi])
							}
						}
					})
				}
			}
		}
	}
}

// runStraddle runs one access — export name at a, with v for a store — on a
// fresh instance prepared by prep, under two fuel budgets: unlimited, and
// the unlimited run's InstrCount less one when the access returns (fuel
// runs out at the access function's last instruction) or that count when
// it traps (fuel lasts to the trap). Either way the register engine meets
// a budget smaller than the access function's one segment and runs the
// function in its per-instruction tail. Under each budget the register and
// the structured engine must agree on the loaded value, error, InstrCount,
// Cost, FuelRemaining and bytes; runStraddle returns the register engine's
// observations, a tail run's ErrFuelExhausted cleared once InstrCount shows
// it came after the access.
func runStraddle(t *testing.T, cm *interp.CompiledModule, prep func(*testing.T, *interp.VM, flatMemory), name string, a, v, boundary uint64) []accessObs {
	t.Helper()
	args := []uint64{a}
	if name[0] == 's' {
		args = append(args, v)
	}
	run := func(engine interp.Engine, fuel uint64) accessObs {
		vm, err := cm.Instantiate(interp.Config{Engine: engine, Fuel: fuel, CostModel: addrModel{}})
		if err != nil {
			t.Fatal(err)
		}
		prep(t, vm, fresh(uint32(vm.MemorySize()/wasm.PageSize)))
		var o accessObs
		_, o.err = vm.InvokeExport(name, args...)
		o.val, _ = vm.Global(0)
		o.count, o.cost, o.fuel = vm.InstrCount(), vm.Cost(), vm.FuelRemaining()
		hi := min(boundary+16, uint64(vm.MemorySize()))
		view, err := vm.MemoryView(uint32(boundary-16), uint32(hi-(boundary-16)))
		if err != nil {
			t.Fatal(err)
		}
		o.window = bytes.Clone(view)
		return o
	}
	full := run(interp.EngineReg, 0)
	tail := full.count
	if full.err == nil {
		tail--
	}
	var out []accessObs
	for _, fuel := range []uint64{0, tail} {
		got, ref := run(interp.EngineReg, fuel), run(interp.EngineStructured, fuel)
		if (got.err == nil) != (ref.err == nil) || got.err != nil && !errors.Is(got.err, ref.err) ||
			got.val != ref.val || got.count != ref.count || got.cost != ref.cost || got.fuel != ref.fuel ||
			!bytes.Equal(got.window, ref.window) {
			t.Fatalf("fuel %d: reg %#x %v count %d cost %d fuel %d, structured %#x %v count %d cost %d fuel %d",
				fuel, got.val, got.err, got.count, got.cost, got.fuel, ref.val, ref.err, ref.count, ref.cost, ref.fuel)
		}
		if fuel > 0 {
			// The instruction fuel runs out at counts too: either way the
			// run reached every instruction the unlimited one did.
			if got.count != full.count {
				t.Fatalf("fuel %d: the run stopped after %d of %d instructions (%v)", fuel, got.count, full.count, got.err)
			}
			if errors.Is(got.err, interp.ErrFuelExhausted) {
				got.err = nil
			}
		}
		out = append(out, got)
	}
	return out
}

// FuzzLinearMemory drives one pooled instance per engine through a
// sequence of steps the fuzz bytes choose — loads and stores of every
// width, memory.grow, MemoryView, MemoryDirty and pooled Reset — at
// addresses biased to within 8 bytes of a page boundary or of the memory's
// end. Every value, trap and view must match a flat []byte model, a view
// that moves pages must leave their old allocations unreachable, and the
// two engines' InstrCount and Cost must agree after every step; at the end
// the whole memory must equal the model on both.
func FuzzLinearMemory(f *testing.F) {
	const minPages, maxPages = 2, 6
	cm := pageModule(f, minPages, maxPages)
	// Seeds, one step per line: an op byte (mod 6: load, store, grow,
	// MemoryView, MemoryDirty, Reset) and its operands (see the switch
	// below). An address is a selector byte — mod 4: 0 the memory's end;
	// 1 and 2 page boundary selector/4 mod (pages+1); 3 any address, from
	// four more bytes — and a distance byte, mod 17, less 8. A view's
	// length is a byte shifted left by 0, 5 or 10; MemoryDirty then takes
	// the byte it fills the view from.
	for _, seed := range [][]byte{{
		1, 1, 5, 5, 1, 2, 3, 4, 5, 6, 7, 8, // i64.store at 64 KiB - 3
		0, 1, 5, 5, // i64.load of it
	}, {
		2, 2, // memory.grow(2)
		1, 1, 0, 7, 9, 9, 9, 9, 9, 9, 9, 9, // i64.store at the end - 1: traps
		1, 1, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, // i64.store into the last 8 bytes
		5,          // Reset
		0, 5, 0, 8, // i32.load8_u at the end: traps
	}, {
		4, 5, 0, 2, 2, 0x77, // MemoryDirty of 2 KiB from 64 KiB - 8: joins pages 0 and 1
		3, 5, 8, 1, 2, // MemoryView of 1 KiB at 64 KiB, inside the joined pages
		1, 0, 9, 4, 0xAA, 0, 0, 0, 0, 0, 0, 0, // i32.store into the last 4 bytes
		5,          // Reset
		0, 0, 9, 4, // i32.load of them
	}, {
		3, 1, 8, 128, 2, // MemoryView of the whole memory
		4, 3, 8, 0xFF, 0xFF, 0xFF, 0x7F, 4, 0, 1, // MemoryDirty far out of bounds
		5,               // Reset
		3, 1, 8, 128, 2, // MemoryView of the whole memory
	}, {
		2, 2, // memory.grow(2)
		3, 1, 8, 255, 2, // MemoryView of 255 KiB from 0: joins pages 0..3
		5,          // Reset: pages 2 and 3 stay, beyond the table's length
		2, 2, 2, 2, // memory.grow(2) twice
		1, 4, 21, 8, 1, 0, 0, 0, 0, 0, 0, 0, // i32.store8 at page 5: the table grows
		1, 4, 9, 8, 0x55, 0, 0, 0, 0, 0, 0, 0, // i32.store8 at page 2
		3, 5, 8, 65, 2, // MemoryView of 65 KiB from page 1: must see it
	}, {
		2, 2, 2, 2, // memory.grow(2) twice: 6 pages
		3, 9, 8, 255, 2, // MemoryView of 255 KiB from page 2: joins pages 2..5
		3, 5, 8, 128, 2, // MemoryView of pages 1 and 2: moves pages 3..5 too
		3, 1, 8, 128, 2, // MemoryView of pages 0 and 1: moves page 2 too
		4, 13, 8, 128, 2, 0x11, // MemoryDirty of pages 3 and 4: one allocation already
		3, 5, 8, 128, 2, // MemoryView of pages 1 and 2: moves page 0 too
		0, 0, 5, 11, // i32.load across pages 0 and 1
		5,          // Reset
		0, 1, 9, 7, // i64.load across pages 1 and 2
	}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		type side struct {
			pool *interp.InstancePool
			cfg  interp.Config
			vm   *interp.VM
		}
		var sides [2]side
		for i, engine := range engines {
			s := &sides[i]
			s.cfg = interp.Config{Engine: engine, CostModel: addrModel{}}
			var err error
			if s.pool, err = cm.NewPool(s.cfg, interp.PoolConfig{}); err != nil {
				t.Fatal(err)
			}
			if s.vm, err = s.pool.Get(s.cfg); err != nil {
				t.Fatal(err)
			}
		}
		model := fresh(minPages)
		addr := func() uint64 {
			sel, d := next(), int64(next()%17)-8
			var base int64
			switch sel % 4 {
			case 0:
				base = int64(len(model))
			case 1, 2:
				base = int64(sel/4) % (int64(len(model))/wasm.PageSize + 1) * wasm.PageSize
			case 3:
				base = int64(binary.LittleEndian.Uint32([]byte{next(), next(), next(), next()}))
			}
			return uint64(uint32(base + d))
		}
		span := func() (uint32, uint32) {
			off := uint32(addr())
			n := uint32(next()) << (next() % 3 * 5)
			return off, n
		}
		// invoke runs an export on both engines and requires equal
		// results, errors, InstrCount and Cost.
		invoke := func(name string, args ...uint64) ([]uint64, error) {
			var res [2][]uint64
			var errs [2]error
			for i := range sides {
				res[i], errs[i] = sides[i].vm.InvokeExport(name, args...)
			}
			reg, ref := sides[0].vm, sides[1].vm
			if fmt.Sprint(res[0], errs[0]) != fmt.Sprint(res[1], errs[1]) || reg.InstrCount() != ref.InstrCount() || reg.Cost() != ref.Cost() {
				t.Fatalf("%s%v: reg %v %v count %d cost %d, structured %v %v count %d cost %d",
					name, args, res[0], errs[0], reg.InstrCount(), reg.Cost(), res[1], errs[1], ref.InstrCount(), ref.Cost())
			}
			return res[0], errs[0]
		}
		for steps := 0; len(prog) > 0 && steps < 64; steps++ {
			switch op := next() % 6; op {
			case 0:
				i, a := int(next())%len(pageLoads), addr()
				want, ok := model.load(i, a)
				res, err := invoke(fmt.Sprint("l", i), a)
				if ok != (err == nil) || ok && res[0] != want || !ok && !errors.Is(err, interp.ErrOutOfBounds) {
					t.Fatalf("%v at %d: %v, %v; model %#x, in bounds %v", pageLoads[i].op, a, res, err, want, ok)
				}
			case 1:
				i, a := int(next())%len(pageStores), addr()
				v := binary.LittleEndian.Uint64([]byte{next(), next(), next(), next(), next(), next(), next(), next()})
				ok := model.store(i, a, v)
				if _, err := invoke(fmt.Sprint("s", i), a, v); ok != (err == nil) || !ok && !errors.Is(err, interp.ErrOutOfBounds) {
					t.Fatalf("%v at %d: %v; model in bounds %v", pageStores[i].op, a, err, ok)
				}
			case 2:
				delta := uint64(next() % 3)
				want := uint64(len(model) / wasm.PageSize)
				if want+delta <= maxPages {
					model = append(model, make(flatMemory, delta*wasm.PageSize)...)
				} else {
					want = 0xFFFFFFFF
				}
				if res, _ := invoke("grow", delta); res[0] != want {
					t.Fatalf("memory.grow(%d) = %d, model %d", delta, res[0], want)
				}
			case 3, 4:
				dirty := op == 4
				off, n := span()
				var fill byte
				if dirty {
					fill = next()
				}
				ok := uint64(off)+uint64(n) <= uint64(len(model))
				refs := [2]interp.PageRefs{sides[0].vm.PageRefs(), sides[1].vm.PageRefs()}
				for i := range sides {
					get := sides[i].vm.MemoryView
					if dirty {
						get = sides[i].vm.MemoryDirty
					}
					b, err := get(off, n)
					if ok != (err == nil) || !ok && !errors.Is(err, interp.ErrOutOfBounds) {
						t.Fatalf("view [%d, +%d): %v; model in bounds %v", off, n, err, ok)
					}
					if !ok {
						continue
					}
					if !bytes.Equal(b, model[off:off+n]) {
						t.Fatalf("%v: view [%d, +%d) differs from the model", engines[i], off, n)
					}
					if dirty {
						for j := range b {
							b[j] = fill + byte(j)
						}
					}
				}
				if ok && dirty {
					for j := range n {
						model[off+j] = fill + byte(j)
					}
				}
				for i := range sides {
					if moved := sides[i].vm.Stranded(refs[i]); moved > 0 {
						t.Fatalf("%v: view [%d, +%d) moved %d pages but left their old allocation alive", engines[i], off, n, moved)
					}
				}
			case 5:
				for i := range sides {
					s := &sides[i]
					s.pool.Put(s.vm)
					var err error
					if s.vm, err = s.pool.Get(s.cfg); err != nil {
						t.Fatal(err)
					}
				}
				model = fresh(minPages)
			}
		}
		for i := range sides {
			all, err := sides[i].vm.MemoryView(0, sides[i].vm.MemorySize())
			if err != nil || !bytes.Equal(all, model) {
				t.Fatalf("%v: the memory differs from the model at the end (%v)", engines[i], err)
			}
		}
	})
}
