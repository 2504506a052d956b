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
	"errors"
	"fmt"
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
	// MaxPages caps linear memory growth regardless of the module's limit.
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
	costs    []funcCosts    // shared, read-only: cost tables for this config
	hostFns  []HostFunc     // imported functions
	hostSigs []wasm.FuncType
	globals  []uint64
	memory   []byte
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

	// dirtyPages is a bitmap over linear-memory pages (wasm.PageSize
	// granularity) written since the last reset; Reset re-zeroes only those
	// pages instead of the whole memory. Tracking is enabled only for
	// pool-managed instances (trackDirty), so one-shot instantiations pay
	// nothing per store; untracked VMs fall back to a full clear on Reset.
	// dirtyAll records an escape hatch: the caller took an unscoped
	// Memory() alias, so everything may have been written.
	dirtyPages []uint64
	trackDirty bool
	dirtyAll   bool
}

type compiledFunc struct {
	typeIdx  uint32
	numLoc   int // params + locals
	nparams  int
	nresults int
	maxStack int // operand-stack high-water mark (stack-home registers per frame)
	body     []wasm.Instr
	ctrl     []ctrlMeta // structured-engine control metadata
	flat     []flatOp   // branch sidetable + segment accounting
	preH     []int32    // static operand-stack height before each pc
	preDead  []bool     // pc statically unreachable (after unconditional transfer)
	reg      *regCode   // register-form direct-threaded stream (EngineReg)
	name     string

	// Original (pre-inlining) views, used by the structured reference
	// engine: the oracle must execute real call frames so differential
	// tests compare inlined execution against the ground-truth call path.
	// When the inlining pass leaves a function untouched these alias
	// body/ctrl/flat.
	sbody []wasm.Instr
	sctrl []ctrlMeta
	sflat []flatOp
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

// Compiled returns the compiled artifact this VM was instantiated from.
func (vm *VM) Compiled() *CompiledModule { return vm.cm }

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
func (vm *VM) MemorySize() uint32 { return uint32(len(vm.memory)) }

// Memory exposes the whole linear memory for host functions. The returned
// slice aliases the VM's memory; it is invalidated by memory.grow. Because
// the caller may write through the alias, the entire memory is
// conservatively treated as dirty for pooled reset — hot paths should
// prefer MemoryView (reads) and MemoryDirty (writes).
func (vm *VM) Memory() []byte {
	vm.dirtyAll = true
	return vm.memory
}

// MemoryView returns memory[off:off+n] for reading. Writing through the
// view is not allowed: such writes are invisible to the dirty tracking that
// pooled Reset relies on. The view is invalidated by memory.grow.
func (vm *VM) MemoryView(off, n uint32) ([]byte, error) {
	if uint64(off)+uint64(n) > uint64(len(vm.memory)) {
		return nil, ErrOutOfBounds
	}
	return vm.memory[off : off+n : off+n], nil
}

// MemoryDirty returns memory[off:off+n] for host-side writes, recording the
// range as dirty so pooled Reset re-zeroes it. The view is invalidated by
// memory.grow.
func (vm *VM) MemoryDirty(off, n uint32) ([]byte, error) {
	if uint64(off)+uint64(n) > uint64(len(vm.memory)) {
		return nil, ErrOutOfBounds
	}
	if n > 0 {
		vm.markDirty(int(off), int(n))
	}
	return vm.memory[off : off+n : off+n], nil
}

// markDirty records that memory[a:a+n) is about to be written (n >= 1; the
// caller has already bounds-checked the range). It is a no-op unless the
// instance is pool-managed.
func (vm *VM) markDirty(a, n int) {
	if !vm.trackDirty {
		return
	}
	p0 := a / wasm.PageSize
	p1 := (a + n - 1) / wasm.PageSize
	vm.dirtyPages[p0>>6] |= 1 << (p0 & 63)
	vm.dirtyPages[p1>>6] |= 1 << (p1 & 63)
	for p := p0 + 1; p < p1; p++ {
		vm.dirtyPages[p>>6] |= 1 << (p & 63)
	}
}

// clearDirtyMemory re-zeroes the dirty pages of vm.memory (already resliced
// to the target length) and resets the dirty tracking. Untracked instances
// and instances with an unscoped Memory() alias outstanding fall back to
// zeroing everything.
func (vm *VM) clearDirtyMemory() {
	n := len(vm.memory)
	if !vm.trackDirty || vm.dirtyAll {
		clear(vm.memory)
	} else {
		pages := (n + wasm.PageSize - 1) / wasm.PageSize
		for w, word := range vm.dirtyPages {
			if word == 0 || w*64 >= pages {
				continue
			}
			for b := 0; b < 64; b++ {
				if word&(1<<b) == 0 {
					continue
				}
				p := w*64 + b
				if p >= pages {
					break
				}
				lo := p * wasm.PageSize
				hi := lo + wasm.PageSize
				if hi > n {
					hi = n
				}
				clear(vm.memory[lo:hi])
			}
		}
	}
	vm.dirtyAll = false
	clear(vm.dirtyPages)
}

// sizeDirtyMap (re)sizes the dirty bitmap to cover n bytes of memory,
// preserving existing bits (memory.grow keeps old offsets valid and the
// freshly allocated tail starts zeroed, i.e. clean).
func (vm *VM) sizeDirtyMap(n int) {
	pages := (n + wasm.PageSize - 1) / wasm.PageSize
	words := (pages + 63) / 64
	for len(vm.dirtyPages) < words {
		vm.dirtyPages = append(vm.dirtyPages, 0)
	}
}

// Global reads a global by index.
func (vm *VM) Global(i uint32) (uint64, error) {
	if int(i) >= len(vm.globals) {
		return 0, fmt.Errorf("interp: global %d out of range", i)
	}
	return vm.globals[i], nil
}

// SetGlobal writes a global by index (host-side; bypasses mutability).
func (vm *VM) SetGlobal(i uint32, v uint64) error {
	if int(i) >= len(vm.globals) {
		return fmt.Errorf("interp: global %d out of range", i)
	}
	vm.globals[i] = v
	return nil
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

// TableEntry reads the function index stored at table slot i (-1 = empty).
func (vm *VM) TableEntry(i uint32) (int32, error) {
	if int(i) >= len(vm.table) {
		return -1, fmt.Errorf("interp: table index %d out of range", i)
	}
	return vm.table[i], nil
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
		return vm.execStructured(f, locals, make([]uint64, 0, 64))
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
