// Package interp implements AccTEE's WebAssembly execution sandbox: a
// from-scratch interpreter for the full MVP instruction set with bounds-
// checked linear memory, a protected call stack, host-function imports and
// cost hooks. It replaces the paper's V8 engine; because the paper's
// accounting counts executed WebAssembly instructions, any conforming engine
// yields identical counts (§3.5), which this interpreter's ground-truth
// counter is used to verify.
//
// Compilation and instantiation are split (paper §3.3, "instrument once,
// execute many times"): Compile lowers a module once into an immutable
// CompiledModule — including the register-form closure stream the default
// engine dispatches — from which any number of VMs are instantiated cheaply,
// directly or recycled through an InstancePool with a deterministic Reset.
// Instantiate below composes the two for one-shot use.
package interp

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"acctee/internal/wasm"
)

// Trap errors returned by execution. They match the wasm spec trap
// conditions.
var (
	ErrUnreachable        = errors.New("wasm trap: unreachable executed")
	ErrOutOfBounds        = errors.New("wasm trap: out of bounds memory access")
	ErrDivByZero          = errors.New("wasm trap: integer divide by zero")
	ErrIntOverflow        = errors.New("wasm trap: integer overflow")
	ErrInvalidConversion  = errors.New("wasm trap: invalid conversion to integer")
	ErrUndefinedElement   = errors.New("wasm trap: undefined table element")
	ErrIndirectTypeBad    = errors.New("wasm trap: indirect call type mismatch")
	ErrCallStackExhausted = errors.New("wasm trap: call stack exhausted")
	ErrFuelExhausted      = errors.New("wasm trap: fuel exhausted")
	// ErrInterrupted is the cooperative-cancellation trap (TrapInterrupted):
	// the embedder set Config.Interrupt and the engine observed it at a
	// segment-leader charge point. The check runs before the segment is
	// charged, so the accounting counters hold exactly the work executed up
	// to the interrupt — bit-identical across both engines.
	ErrInterrupted = errors.New("wasm trap: execution interrupted")
)

// HostFunc is a function provided by the embedder (the runtime "glue code").
// Args and results are raw 64-bit values matching the import signature.
type HostFunc func(vm *VM, args []uint64) ([]uint64, error)

// Engine selects the execution strategy of an instantiation.
type Engine int

// Engines.
const (
	// EngineReg (the default) executes the register-form IR: the flat IR
	// (precompiled branch sidetable, static stack heights) lowered by a
	// stack-to-register allocation pass (every operand-stack slot and local
	// pinned to a slot of the frame's flat register file, explicit src/dst
	// operands per instruction, no runtime stack pointer) and emitted as a
	// direct-threaded closure stream, so execution is
	// pc = ops[pc](vm, frame) with no big-switch dispatch. Accounting is
	// bit-identical to EngineStructured by construction: block-batched
	// charging at segment leaders, per-original-pc trap rollback and a
	// per-instruction deopt tail on fuel shortfall.
	EngineReg Engine = iota
	// EngineStructured is the original structured-control-flow interpreter
	// (runtime label stack, per-instruction accounting). It is retained as
	// the reference oracle for differential testing and before/after
	// dispatch benchmarks.
	EngineStructured
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineReg:
		return "reg"
	case EngineStructured:
		return "structured"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Config parameterises instantiation.
type Config struct {
	// Imports maps "module.name" to host implementations.
	Imports map[string]HostFunc
	// Engine selects the execution strategy (default EngineReg).
	Engine Engine
	// MaxPages caps linear memory regardless of the module's limit: growth
	// past it fails, and an instantiation whose module declares more initial
	// pages is refused with ErrMemoryTooLarge.
	MaxPages uint32
	// Fuel, when >0, bounds the number of executed instructions; execution
	// traps with ErrFuelExhausted when spent. Used by the two-way sandbox to
	// bound resource consumption (paper §2.1, pay-by-computation).
	Fuel uint64
	// CostModel, when non-nil, accrues a weighted cycle count per executed
	// instruction and per memory access; read it back via VM.Cost.
	CostModel CostModel
	// MaxCallDepth bounds recursion; 0 means the default (1024).
	MaxCallDepth int
	// GrowHook, when non-nil, runs after every successful memory.grow with
	// the old and new page counts. The accounting enclave uses it to track
	// the memory-size integral (paper §3.5, fine-grained memory policy).
	GrowHook func(vm *VM, oldPages, newPages uint32)
	// Interrupt, when non-nil, is polled at segment-leader charge points
	// (before the segment is charged) by every engine; once it reads true
	// the invocation aborts with ErrInterrupted. Setting the flag from
	// another goroutine is the cooperative-cancellation mechanism used for
	// deadline propagation: the interrupted run's counters charge exactly
	// the instructions retired before the flag was observed.
	Interrupt *atomic.Bool
}

// InterruptOn returns a Config.Interrupt flag that is set the moment ctx is
// done, and the stop to call once the run is over. A context that can never
// end needs no flag (nil); one that has already ended gets a flag set from
// the start, so the run aborts at its entry leader. It starts no goroutine:
// the flag is set from context.AfterFunc, which runs only if ctx ends.
func InterruptOn(ctx context.Context) (*atomic.Bool, func() bool) {
	if ctx.Done() == nil {
		return nil, noStop
	}
	intr := new(atomic.Bool)
	if ctx.Err() != nil {
		intr.Store(true)
		return intr, noStop
	}
	return intr, context.AfterFunc(ctx, func() { intr.Store(true) })
}

func noStop() bool { return false }

// CostModel charges simulated cycles for executed instructions. It is how
// the SGX substrate injects EPC/transition penalties and how ground-truth
// weighted instruction counting is implemented.
type CostModel interface {
	// InstrCost returns the cycles charged for one dynamic execution of op.
	// It must be pure (a fixed function of the opcode): the compiled
	// artifact precomputes per-segment sums and caches them per cost
	// fingerprint. Stateful charging belongs in MemCost, which is always
	// invoked per access.
	InstrCost(op wasm.Opcode) uint64
	// MemCost returns extra cycles for a memory access at addr of the given
	// byte width (store=true for stores), given current memory size.
	MemCost(addr uint32, width uint32, store bool, memSize uint32) uint64
}

// VM is an instantiated module ready for invocation. It borrows the
// immutable compiled artifact from its CompiledModule and owns only the
// mutable instance state (memory, globals, table, counters, call frames),
// which Reset restores to fresh-instantiation state for reuse.
type VM struct {
	cm       *CompiledModule
	module   *wasm.Module
	funcs    []compiledFunc // shared, read-only: the compiled artifact
	oracle   []oracleFunc   // shared, read-only: the oracle's views (EngineStructured only)
	costs    []funcCosts    // shared, read-only: cost tables for this config
	hostFns  []HostFunc     // imported functions
	hostSigs []wasm.FuncType
	globals  []uint64
	// pages backs linear memory page by page: pages[pn] is wasm page pn,
	// PageSize long, or empty until an access touches it, and an unbacked
	// page reads as zero. The table reaches no further than the highest
	// page touched (len(pages) <= memPages), so declaring or growing memory
	// allocates nothing; the engines' one bounds check is the page lookup in
	// at. An entry is cut from an allocation and its cap runs to that
	// allocation's end: pages a view joined share one (span), no entry's
	// cap reaches a page whose entry points elsewhere, and every page of an
	// allocation has its entry in it, so the table keeps alive exactly the
	// pages it backs. Between len and cap lie the entries of pages an
	// earlier run backed above the initial size, which Reset zeroed and a
	// later touch takes back.
	pages    [][]byte
	memPages uint32
	maxPages uint32
	table    []int32 // function indices; -1 = undefined

	fuel        uint64
	fuelLimited bool
	cost        CostModel
	costAcc     uint64
	endCost     uint64 // InstrCost(end), charged inline on else fallthrough
	instrCount  uint64 // ground-truth executed instructions (all opcodes)
	ioBytes     uint64 // accounted by host shims via AddIOBytes

	engine   Engine
	maxDepth int
	depth    int
	growHook func(vm *VM, oldPages, newPages uint32)
	intr     *atomic.Bool // cooperative-cancellation flag (nil = never)

	// icache is the per-site monomorphic inline cache for call_indirect:
	// one entry per static call_indirect site (dense ids assigned at
	// compile time), caching the table element last dispatched through the
	// site after it passed the bounds + signature checks. A hit replaces
	// lookup + type walk with one compare. Entries are invalidated by
	// SetTableEntry; tableMutated additionally tells Reset the table (and
	// hence the cache) must be restored to the initial image.
	icache       []icEntry
	tableMutated bool

	// frames holds one reusable call-frame slab per call depth, so repeated
	// invocations on a (pooled) instance allocate no frames at all.
	frames [][]uint64

	// Register-engine scratch: exit handlers deposit the function result
	// in regRet; trapping handlers deposit the error and the original
	// (body-pc-space) trap pc for rollback. Each field is written
	// immediately before the driver reads it, so recursion is safe.
	regRet    uint64
	regErr    error
	regTrapPC int32
	// regFault is the register engine's in-statement fault latch: a
	// trapping evaluator node (load, div/rem, trunc) sets it together with
	// regErr/regTrapPC, later nodes in the same statement see it and skip
	// their side effects (first fault wins), and the statement's commit
	// point converts it into a regTrapRet. Always false between statements.
	regFault bool

	// dirty is a bitmap over the dirtyBlock-sized blocks of the pages the
	// table reaches, set by writes since the last reset; Reset re-zeroes
	// only those blocks instead of every backed page. Tracking is enabled
	// only for pool-managed instances (trackDirty), so one-shot
	// instantiations pay nothing per store; untracked VMs fall back to
	// clearing every backed page on Reset.
	dirty      []uint64
	trackDirty bool
}

// compiledFunc is one function of the artifact. After Compile it keeps what
// the register engine reads; flat, brEdges and preDead are the lowering
// passes' tables and Compile drops them (trim) once the register stream is
// built. Block structure is read from the function's cfg.Graph while it is
// lowered and kept nowhere. The structured reference engine reads its own
// views (oracleFunc).
type compiledFunc struct {
	typeIdx  uint32
	numLoc   int // params + locals
	nparams  int
	nresults int
	maxStack int // operand-stack high-water mark (stack-home registers per frame)
	body     []wasm.Instr
	preH     []int32  // static operand-stack height before each pc (fuel-tail entry)
	segEnd   []int32  // last pc of each pc's segment (trap rollback bound)
	reg      *regCode // register-form direct-threaded stream (EngineReg)
	name     string

	flat    []flatOp     // branch sidetable + segment leaders; lowering only
	brEdges []flatTarget // every br_table's edges, indexed from flat; lowering only
	preDead []bool       // pc statically unreachable (after unconditional transfer); lowering only
}

// Instantiate compiles and instantiates a module in one step. Callers that
// instantiate the same module repeatedly should Compile once and reuse the
// artifact (optionally through a pool) instead.
func Instantiate(m *wasm.Module, cfg Config) (*VM, error) {
	cm, err := Compile(m, CompileOptions{})
	if err != nil {
		return nil, err
	}
	return cm.Instantiate(cfg)
}

// InstrCount returns the ground-truth number of instructions executed so far
// (every opcode, including structural ones, costed per the weight model).
func (vm *VM) InstrCount() uint64 { return vm.instrCount }

// Cost returns the accumulated simulated-cycle cost (0 without a CostModel).
func (vm *VM) Cost() uint64 { return vm.costAcc }

// AddCost charges extra simulated cycles (used by host shims, e.g. enclave
// transition penalties).
func (vm *VM) AddCost(c uint64) { vm.costAcc += c }

// IOBytes returns the accounted I/O volume.
func (vm *VM) IOBytes() uint64 { return vm.ioBytes }

// AddIOBytes records accounted I/O traffic crossing the sandbox boundary.
func (vm *VM) AddIOBytes(n uint64) { vm.ioBytes += n }

// FuelRemaining reports the remaining fuel (meaningful only when limited).
func (vm *VM) FuelRemaining() uint64 { return vm.fuel }

// MemorySize returns the current linear memory size in bytes.
func (vm *VM) MemorySize() uint32 { return vm.memSize() }

// memSize is the memory size in bytes as the cost model sees it: uint32, so
// a full 4 GiB memory reads 0.
func (vm *VM) memSize() uint32 { return vm.memPages * wasm.PageSize }

// MemoryView returns memory[off:off+n] for reading, backing the pages under
// it. Writing through the view is not allowed: such writes are invisible to
// the dirty tracking that pooled Reset relies on. The view aliases the
// memory until memory.grow, Reset, or a view that joins any of its pages
// (span) invalidates it.
func (vm *VM) MemoryView(off, n uint32) ([]byte, error) {
	return vm.span(off, n)
}

// MemoryDirty returns memory[off:off+n] for host-side writes, recording the
// range as dirty so pooled Reset re-zeroes it. The view is invalidated as
// MemoryView's is.
func (vm *VM) MemoryDirty(off, n uint32) ([]byte, error) {
	b, err := vm.span(off, n)
	if err == nil && n > 0 {
		vm.markDirty(int(off), int(n))
	}
	return b, err
}

// pageShift and pageMask split an address into its page number and its
// offset in the page (wasm.PageSize is 1<<pageShift).
const (
	pageShift = 16
	pageMask  = 1<<pageShift - 1
)

// at is the engines' one bounds check: the bytes from ea on when
// [ea, ea+w) lies inside one backed page, or nil on a miss — out of bounds,
// an unbacked page, or an access that straddles two pages — which the
// caller hands to loadMiss or storeMiss.
func (vm *VM) at(ea, w uint64) []byte {
	if pn := ea >> pageShift; pn < uint64(len(vm.pages)) {
		if pg, o := vm.pages[pn], ea&pageMask; o+w <= uint64(len(pg)) {
			return pg[o:]
		}
	}
	return nil
}

// inMemory reports whether [ea, ea+w) lies inside the memory's size.
func (vm *VM) inMemory(ea, w uint64) bool {
	return ea+w <= uint64(vm.memPages)<<pageShift
}

// loadMiss is a load off at's fast path. Out of bounds it reports false
// and charges nothing; otherwise it charges MemCost, backs the pages the
// access touches and reads width bytes little-endian, across a page
// boundary when the access straddles one.
func (vm *VM) loadMiss(ea uint64, width uint32) (uint64, bool) {
	if !vm.inMemory(ea, uint64(width)) {
		return 0, false
	}
	if vm.cost != nil {
		vm.costAcc += vm.cost.MemCost(uint32(ea), width, false, vm.memSize())
	}
	var v uint64
	for a := ea + uint64(width); a > ea; {
		a--
		v = v<<8 | uint64(vm.page(a >> pageShift)[a&pageMask])
	}
	return v, true
}

// storeMiss is a store off at's fast path, as loadMiss is a load's: out of
// bounds it writes no byte and charges nothing.
func (vm *VM) storeMiss(ea uint64, width uint32, v uint64) bool {
	if !vm.inMemory(ea, uint64(width)) {
		return false
	}
	if vm.cost != nil {
		vm.costAcc += vm.cost.MemCost(uint32(ea), width, true, vm.memSize())
	}
	for a := ea; a < ea+uint64(width); a++ {
		vm.page(a >> pageShift)[a&pageMask] = byte(v)
		v >>= 8
	}
	vm.markDirty(int(ea), int(width))
	return true
}

// page returns page pn (below memPages), backing it first if no access has
// touched it: a zeroed allocation of its own, which no other entry's cap
// reaches because none reaches an unbacked page.
func (vm *VM) page(pn uint64) []byte {
	if pn >= uint64(len(vm.pages)) {
		vm.reach(int(pn) + 1)
	}
	pg := vm.pages[pn]
	if len(pg) == 0 {
		pg = make([]byte, wasm.PageSize)
		vm.pages[pn] = pg
	}
	return pg
}

// reach extends the page table to n entries (n <= memPages), and the dirty
// bitmap with it. Entries up to the table's cap come back as Reset left
// them, zeroed; a table that must grow copies its whole cap, so no page an
// earlier run backed is dropped while an entry's cap still reaches it.
func (vm *VM) reach(n int) {
	if n > cap(vm.pages) {
		grown := make([][]byte, n, min(max(n, 2*cap(vm.pages)), int(vm.memPages)))
		copy(grown, vm.pages[:cap(vm.pages)])
		vm.pages = grown
	}
	vm.pages = vm.pages[:n]
	if words := (n*pageBlocks + 63) / 64; vm.trackDirty && words > len(vm.dirty) {
		vm.dirty = append(vm.dirty, make([]uint64, words-len(vm.dirty))...)
	}
}

// span returns memory[off:off+n], backing the pages under it. A range
// inside one allocation aliases it. A range that spans allocations joins
// its pages: one new allocation, each page copied in once and its entry
// repointed to it. The allocations it replaces may reach below first and
// above last; the pages they hold there move too, each side into one
// allocation of its own, so no old allocation stays reachable from the
// table and the memory never holds more than one copy of a page. A view
// taken earlier of a moved page no longer aliases the memory.
func (vm *VM) span(off, n uint32) ([]byte, error) {
	a, end := uint64(off), uint64(off)+uint64(n)
	if !vm.inMemory(a, uint64(n)) {
		return nil, ErrOutOfBounds
	}
	if n == 0 {
		return []byte{}, nil
	}
	first, last := a>>pageShift, (end-1)>>pageShift
	if last >= uint64(len(vm.pages)) {
		vm.reach(int(last) + 1)
	}
	pg := vm.page(first)
	if end-first<<pageShift > uint64(cap(pg)) {
		lo, hi := int(first), int(last)+1
		for lo > 0 && cap(vm.pages[lo-1]) > (int(first)-lo+1)<<pageShift {
			lo--
		}
		if c := cap(vm.pages[last]); c > 0 {
			hi += c>>pageShift - 1
		}
		vm.rehome(lo, int(first))
		vm.rehome(int(last)+1, hi)
		pg = vm.rehome(int(first), int(last)+1)
	}
	o := a & pageMask
	return pg[o : o+uint64(n) : o+uint64(n)], nil
}

// rehome copies pages [lo, hi) into one new allocation and repoints their
// entries to it, and returns it. Pages above the table's length, which a
// Reset cut off, move too: an allocation a join replaces may reach them.
func (vm *VM) rehome(lo, hi int) []byte {
	if lo >= hi {
		return nil
	}
	pages := vm.pages[:cap(vm.pages)]
	buf := make([]byte, (hi-lo)<<pageShift)
	for pn := lo; pn < hi; pn++ {
		at := (pn - lo) << pageShift
		copy(buf[at:], pages[pn])
		pages[pn] = buf[at : at+wasm.PageSize]
	}
	return buf
}

// copyIn writes b at a page by page, backing the pages it covers, and
// marks it dirty: Reset's data segments.
func (vm *VM) copyIn(a uint64, b []byte) {
	for len(b) > 0 {
		n := copy(vm.page(a >> pageShift)[a&pageMask:], b)
		vm.markDirty(int(a), n)
		a, b = a+uint64(n), b[n:]
	}
}

// grow is memory.grow on both engines: it returns the old page count, or
// 0xFFFFFFFF when the memory cannot grow by delta pages. Nothing is
// allocated or copied: the new pages lie beyond the page table until
// touched.
func (vm *VM) grow(delta uint32) uint32 {
	old := vm.memPages
	if delta > vm.maxPages || old+delta > vm.maxPages {
		return 0xFFFFFFFF
	}
	vm.memPages = old + delta
	if vm.growHook != nil {
		vm.growHook(vm, old, old+delta)
	}
	return old
}

// dirtyBlock is the granularity of the dirty bitmap and so of pooled reset:
// a request that writes a few bytes costs Reset one 4 KiB clear, not a
// 64 KiB wasm page. pageBlocks is the number of blocks in a page.
const (
	dirtyBlock = 4 << 10
	pageBlocks = wasm.PageSize / dirtyBlock
)

// markDirty records that memory[a:a+n) is about to be written (n >= 1; the
// caller has already backed the range, so the bitmap covers it). It is a
// no-op unless the instance is pool-managed.
func (vm *VM) markDirty(a, n int) {
	if !vm.trackDirty {
		return
	}
	b0 := a / dirtyBlock
	b1 := (a + n - 1) / dirtyBlock
	vm.dirty[b0>>6] |= 1 << (b0 & 63)
	vm.dirty[b1>>6] |= 1 << (b1 & 63)
	for b := b0 + 1; b < b1; b++ {
		vm.dirty[b>>6] |= 1 << (b & 63)
	}
}

// clearDirtyMemory re-zeroes the dirty blocks, one clear per page a run of
// adjacent blocks covers, and resets the dirty tracking. Reset calls it
// before it cuts the page table back to the initial size, while the table
// still reaches every page the run could write; the pages beyond the cut
// stay zeroed until a later run touches them again. Untracked instances
// zero every backed page.
func (vm *VM) clearDirtyMemory() {
	if !vm.trackDirty {
		for _, pg := range vm.pages {
			clear(pg)
		}
		return
	}
	for w, word := range vm.dirty {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			run := bits.TrailingZeros64(^(word >> b))
			word &^= (1<<run - 1) << b
			lo := uint64(w*64+b) * dirtyBlock
			for end := lo + uint64(run)*dirtyBlock; lo < end; {
				pn := lo >> pageShift
				hi := min(end, (pn+1)<<pageShift)
				clear(vm.pages[pn][lo&pageMask : hi-pn<<pageShift])
				lo = hi
			}
		}
	}
	clear(vm.dirty)
}

// Global reads a global by index.
func (vm *VM) Global(i uint32) (uint64, error) {
	if int(i) >= len(vm.globals) {
		return 0, fmt.Errorf("interp: global %d out of range", i)
	}
	return vm.globals[i], nil
}

// Module returns the instantiated module.
func (vm *VM) Module() *wasm.Module { return vm.module }

// icEntry is one call_indirect inline-cache slot: the table element index
// the site last dispatched (-1 = empty) and the resolved combined-space
// function index it mapped to after passing the bounds and signature checks.
// Elements are stored as int32, so indices >= 2^31 (which can only trap on
// the full path) can never collide with a cached entry.
type icEntry struct {
	elem int32
	fidx int32
}

// invalidateICache empties every inline-cache slot.
func (vm *VM) invalidateICache() {
	for i := range vm.icache {
		vm.icache[i] = icEntry{elem: -1}
	}
}

// SetTableEntry stores function index fidx (-1 to clear) into table slot i.
// It is the host-side table-mutation API; every call invalidates the
// call_indirect inline caches, and Reset restores the module's initial
// table image afterwards.
func (vm *VM) SetTableEntry(i uint32, fidx int32) error {
	if int(i) >= len(vm.table) {
		return fmt.Errorf("interp: table index %d out of range", i)
	}
	if fidx >= 0 {
		if _, err := vm.module.FuncTypeAt(uint32(fidx)); err != nil {
			return fmt.Errorf("interp: table entry: %w", err)
		}
	}
	vm.table[i] = fidx
	vm.tableMutated = true
	vm.invalidateICache()
	return nil
}

// getFrame returns a frame of n slots for the next call, reusing the
// per-depth slab when it is large enough. Depth uniquely identifies the live
// frame at each level, so reuse never aliases an active frame. Only
// [loClear:hiClear) — the callee's declared non-param locals, which the spec
// requires zeroed — is cleared: params are overwritten by the caller, and
// every operand-stack slot is written before it is read (wasm validation's
// stack discipline), so stale values in the slab are unobservable.
func (vm *VM) getFrame(n, loClear, hiClear int) []uint64 {
	d := vm.depth
	for len(vm.frames) <= d {
		vm.frames = append(vm.frames, nil)
	}
	f := vm.frames[d]
	if cap(f) < n {
		f = make([]uint64, n)
		vm.frames[d] = f
		return f
	}
	f = f[:n]
	clear(f[loClear:hiClear])
	return f
}

// InvokeExport calls an exported function by name.
func (vm *VM) InvokeExport(name string, args ...uint64) ([]uint64, error) {
	idx, ok := vm.module.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("interp: no exported function %q", name)
	}
	return vm.Invoke(idx, args...)
}

// Invoke calls a function by index in the combined function index space.
func (vm *VM) Invoke(idx uint32, args ...uint64) ([]uint64, error) {
	nimp := len(vm.hostFns)
	if int(idx) < nimp {
		return vm.hostFns[idx](vm, args)
	}
	di := int(idx) - nimp
	if di >= len(vm.funcs) {
		return nil, fmt.Errorf("interp: function index %d out of range", idx)
	}
	f := &vm.funcs[di]
	if len(args) != f.nparams {
		return nil, fmt.Errorf("interp: func %d expects %d args, got %d", idx, f.nparams, len(args))
	}
	if vm.engine == EngineStructured {
		locals := make([]uint64, f.numLoc)
		copy(locals, args)
		return vm.execStructured(di, locals, make([]uint64, 0, 64))
	}
	frame := vm.getFrame(f.numLoc+f.maxStack, f.nparams, f.numLoc)
	copy(frame, args)
	res, err := vm.execReg(f, di, frame)
	if err != nil {
		return nil, err
	}
	if f.nresults > 0 {
		return []uint64{res}, nil
	}
	return nil, nil
}
