package interp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"acctee/internal/affinity"
	"acctee/internal/cfg"
	"acctee/internal/wasm"
)

// This file implements the compile-once/run-many split (paper §3.3:
// "instrument once, execute many times", and the FaaS gateway of §5.3 that
// spins up a fresh sandbox per request). Compile produces an immutable
// CompiledModule — the register-form closure stream with its segment
// tables and initialiser templates — that any number of VMs instantiate
// from without repeating the lowering passes. The passes' own tables (the
// flat IR and its br_table edges) are dropped once the stream is built, and
// the structured oracle's views are built only by the first EngineStructured
// instantiation, from the module: an artifact stays resident while its
// module is deployed, inside an enclave in EPC. Per-CostModel segment
// cost sums are cached on the artifact keyed by the model's per-opcode cost
// fingerprint, so a fresh stateful model per run (e.g. a new EPC paging
// model per request) still hits the cache.
// InstancePool recycles VM slabs (memory, globals, table, call frames) across
// runs with a deterministic Reset that is observationally identical to a
// fresh instantiation.

// CompileOptions parameterise Compile.
type CompileOptions struct {
	// CostModels pre-computes the per-segment cost tables for these models'
	// fingerprints at compile time. Models with other fingerprints are
	// computed lazily (and cached) on first instantiation.
	CostModels []CostModel
	// DisableInline skips the cross-function inlining pass (inline.go).
	// Used by benchmarks and tests to compare against the pre-inline call
	// path; the residual-call fast path and call_indirect inline caches are
	// unaffected.
	DisableInline bool
}

// CompiledModule is the immutable compile artifact shared by all VMs
// instantiated from it. It is safe for concurrent use.
type CompiledModule struct {
	m     *wasm.Module
	funcs []compiledFunc

	importKeys []string
	importSigs []wasm.FuncType

	hasMemory   bool
	minMemBytes int
	memMaxPages uint32
	globalInit  []uint64
	tableInit   []int32

	// opsUsed is the sorted set of opcodes appearing in any function body
	// (plus OpEnd, charged inline on else fallthrough); evaluating a
	// CostModel over it fingerprints the model for the cost-table cache.
	// Inlining only duplicates existing instructions, so the set (and the
	// fingerprint) is independent of the inlining decisions.
	opsUsed []wasm.Opcode

	// InlineStats summarises the inlining pass over this module.
	InlineStats InlineStats

	// numICSites is the number of static call_indirect sites across all
	// (post-inline) bodies; it sizes each VM's inline-cache array.
	numICSites int

	// oracle holds the structured reference engine's views, one per
	// function, built from m by the first EngineStructured instantiation,
	// once (oracleViews).
	oracleOnce sync.Once
	oracle     []oracleFunc
	oracleErr  error

	// costCache holds the cost tables per CostModel fingerprint. Reads
	// vastly outnumber writes (every pooled Get with a cost model looks up,
	// only the first request per fingerprint computes), so it is a
	// copy-on-write slice: a hit loads the pointer and compares, allocating
	// nothing. costMu serializes misses only, so concurrent first requests
	// compute the tables once instead of racing duplicate work.
	costMu    sync.Mutex
	costCache atomic.Pointer[[]costEntry]
}

// costEntry is one cached fingerprint: InstrCost evaluated over opsUsed.
type costEntry struct {
	fingerprint []uint64
	tables      *costTables
}

// funcCosts are one function's cost tables under one CostModel fingerprint:
// the per-segment InstrCost sums charged at segment leaders, and the prefix
// sums used for exact trap rollback.
type funcCosts struct {
	segCost []uint64 // per-pc; the segment's InstrCost sum at leaders, else 0
	costPfx []uint64 // InstrCost prefix sums over the body
}

// costTables hold the cost tables for every function under one fingerprint.
type costTables struct {
	endCost uint64
	funcs   []funcCosts
}

// MaxTableEntries is the largest table minimum Compile accepts, the limit
// browser engines apply. A few bytes of table section can declare 2^32-1
// entries, and the table template is allocated at the minimum.
const MaxTableEntries = 10_000_000

// Errors for declared minimums above a ceiling, returned before anything is
// allocated for them.
var (
	ErrTableTooLarge  = fmt.Errorf("interp: table minimum above %d entries", MaxTableEntries)
	ErrMemoryTooLarge = errors.New("interp: memory minimum above Config.MaxPages")
)

// Compile runs the lowering passes once over every function and returns the
// shared artifact. The module must already be validated; structural errors
// (unmatched control, bad branch depths, out-of-bounds data or element
// segments) are still reported here.
func Compile(m *wasm.Module, opts CompileOptions) (*CompiledModule, error) {
	cm, err := lowerModule(m, opts)
	if err != nil {
		return nil, err
	}
	for _, model := range opts.CostModels {
		if model != nil {
			cm.costTablesFor(model)
		}
	}
	cm.trim()
	return cm, nil
}

// trim drops what only the lowering passes read: the flat sidetable, its
// br_table edges and the reachability map.
func (cm *CompiledModule) trim() {
	for i := range cm.funcs {
		cf := &cm.funcs[i]
		cf.flat, cf.brEdges, cf.preDead = nil, nil, nil
	}
}

// lowerModule is Compile without the trim: every pass runs and every
// lowering table is kept, which the white-box tests inspect.
func lowerModule(m *wasm.Module, opts CompileOptions) (*CompiledModule, error) {
	cm := &CompiledModule{m: m}

	// Imports: record resolution keys; host functions bind per instantiation.
	for _, im := range m.Imports {
		switch im.Kind {
		case wasm.ExternalFunc:
			cm.importKeys = append(cm.importKeys, im.Module+"."+im.Name)
			cm.importSigs = append(cm.importSigs, m.Types[im.TypeIdx])
		case wasm.ExternalMemory:
			return nil, fmt.Errorf("interp: memory imports are not supported")
		}
	}

	// Memory template.
	if len(m.Memories) > 0 {
		cm.hasMemory = true
		cm.minMemBytes = int(m.Memories[0].Limits.Min) * wasm.PageSize
		cm.memMaxPages = uint32(65536)
		if m.Memories[0].Limits.HasMax {
			cm.memMaxPages = m.Memories[0].Limits.Max
		}
	}
	for _, d := range m.Data {
		off := int(d.Offset.I32Val())
		if off < 0 || off+len(d.Bytes) > cm.minMemBytes {
			return nil, fmt.Errorf("interp: data segment out of bounds")
		}
	}

	// Global initialiser template.
	cm.globalInit = make([]uint64, len(m.Globals))
	for i, g := range m.Globals {
		cm.globalInit[i] = g.Init.U64
	}

	// Table template.
	if len(m.Tables) > 0 {
		if m.Tables[0].Limits.Min > MaxTableEntries {
			return nil, ErrTableTooLarge
		}
		cm.tableInit = make([]int32, m.Tables[0].Limits.Min)
		for i := range cm.tableInit {
			cm.tableInit[i] = -1
		}
		for _, e := range m.Elements {
			off := int(e.Offset.I32Val())
			if off < 0 || off+len(e.Funcs) > len(cm.tableInit) {
				return nil, fmt.Errorf("interp: element segment out of bounds")
			}
			for j, f := range e.Funcs {
				cm.tableInit[off+j] = int32(f)
			}
		}
	}

	// Lower every function and collect the opcode set for fingerprinting.
	nimp := m.NumImportedFuncs()
	cm.funcs = make([]compiledFunc, len(m.Funcs))
	var seen [256]bool
	seen[wasm.OpEnd] = true
	for i := range m.Funcs {
		cf, err := compile(m, &m.Funcs[i])
		if err != nil {
			return nil, fmt.Errorf("interp: func %d: %w", nimp+i, err)
		}
		cm.funcs[i] = cf
		for _, in := range cf.body {
			seen[in.Op] = true
		}
	}
	nops := 0
	for _, used := range seen {
		if used {
			nops++
		}
	}
	cm.opsUsed = make([]wasm.Opcode, 0, nops)
	for op, used := range seen {
		if used {
			cm.opsUsed = append(cm.opsUsed, wasm.Opcode(op))
		}
	}

	// Cross-function inlining, then residual-call finalization (fast-path
	// descriptors and call_indirect inline-cache site ids — assigned after
	// inlining so duplicated sites get distinct cache slots), then the
	// register lowering over the post-inline view.
	if !opts.DisableInline {
		cm.InlineStats = inlinePass(cm)
	}
	finalizeCalls(cm)
	for i := range cm.funcs {
		regLower(cm, i)
	}
	return cm, nil
}

// oracleViews returns the structured reference engine's views, building
// them once from the module.
func (cm *CompiledModule) oracleViews() ([]oracleFunc, error) {
	cm.oracleOnce.Do(func() {
		cm.oracle, cm.oracleErr = buildOracle(cm)
	})
	return cm.oracle, cm.oracleErr
}

// buildOracle derives the oracle's views from the pre-inline bodies of cm.m:
// one cfg.Build per function for its control matching, the register
// stream's leader counts where the inliner left the function alone, and
// the graph's own leader counts where it grew the body (splicing always
// does).
func buildOracle(cm *CompiledModule) ([]oracleFunc, error) {
	views := make([]oracleFunc, len(cm.funcs))
	for i := range cm.funcs {
		cf, f := &cm.funcs[i], &cm.m.Funcs[i]
		g, err := cfg.Build(f.Body, f.BrTables)
		if err != nil {
			return nil, fmt.Errorf("interp: func %d: %w", cm.m.NumImportedFuncs()+i, err)
		}
		o := oracleFunc{body: f.Body, brTables: f.BrTables, match: g.Match, seg: cf.reg.seg}
		if len(f.Body) != len(cf.body) {
			o.seg = segCounts(g)
		}
		views[i] = o
	}
	return views, nil
}

// Module returns the underlying module.
func (cm *CompiledModule) Module() *wasm.Module { return cm.m }

// lookupCosts finds the cached tables whose fingerprint the model matches.
// A CostModel is fingerprinted by evaluating InstrCost over the module's
// opcode set: InstrCost is required to be pure (a fixed function of the
// opcode), so two models with equal fingerprints yield identical segment
// sums — a fresh stateful model per run maps to the same cached tables.
func (cm *CompiledModule) lookupCosts(model CostModel) *costTables {
	entries := cm.costCache.Load()
	if entries == nil {
		return nil
	}
next:
	for _, e := range *entries {
		for i, op := range cm.opsUsed {
			if model.InstrCost(op) != e.fingerprint[i] {
				continue next
			}
		}
		return e.tables
	}
	return nil
}

// costTablesFor returns (computing and caching if needed) the cost tables
// for the model's fingerprint. The hit path — every pooled Get/Reset with a
// cost model — is lock-free and allocation-free; only a miss takes costMu,
// with a double-check so concurrent misses on the same fingerprint compute
// the tables once.
func (cm *CompiledModule) costTablesFor(model CostModel) *costTables {
	if t := cm.lookupCosts(model); t != nil {
		return t
	}
	cm.costMu.Lock()
	defer cm.costMu.Unlock()
	if t := cm.lookupCosts(model); t != nil {
		return t
	}
	t := &costTables{
		endCost: model.InstrCost(wasm.OpEnd),
		funcs:   make([]funcCosts, len(cm.funcs)),
	}
	for i := range cm.funcs {
		cf := &cm.funcs[i]
		pfx := make([]uint64, len(cf.body)+1)
		for pc, in := range cf.body {
			pfx[pc+1] = pfx[pc] + model.InstrCost(in.Op)
		}
		seg := make([]uint64, len(cf.body))
		for pc, n := range cf.reg.seg {
			if n != 0 {
				seg[pc] = pfx[pc+int(n)] - pfx[pc]
			}
		}
		t.funcs[i] = funcCosts{segCost: seg, costPfx: pfx}
	}
	fingerprint := make([]uint64, len(cm.opsUsed))
	for i, op := range cm.opsUsed {
		fingerprint[i] = model.InstrCost(op)
	}
	var entries []costEntry
	if old := cm.costCache.Load(); old != nil {
		entries = append(entries, *old...)
	}
	entries = append(entries, costEntry{fingerprint, t})
	cm.costCache.Store(&entries)
	return t
}

// Instantiate creates a fresh VM from the artifact. It performs no
// compilation: it binds the config, allocates the instance state and applies
// the initialiser templates (and runs the start function, if any).
func (cm *CompiledModule) Instantiate(cfg Config) (*VM, error) {
	return cm.instantiate(cfg, false)
}

// instantiate creates a VM, optionally with dirty-block tracking enabled
// from the very first Reset — pool-managed instances need the initial data
// segments and any start-function stores marked, or a later block-granular
// reset would skip them.
func (cm *CompiledModule) instantiate(cfg Config, track bool) (*VM, error) {
	vm := &VM{cm: cm, module: cm.m, funcs: cm.funcs, trackDirty: track}
	if err := vm.Reset(cfg); err != nil {
		return nil, err
	}
	return vm, nil
}

// Reset restores the VM to the state of a fresh instantiation under cfg:
// counters and fuel are reset, linear memory is re-zeroed to its initial
// size with data segments re-applied, globals and the table are
// re-initialised from the module, imports and the cost model are re-bound,
// and the start function (if any) re-runs. A Reset VM is observationally
// identical to a newly instantiated one.
func (vm *VM) Reset(cfg Config) error {
	cm := vm.cm
	if cfg.MaxPages > 0 && cm.minMemBytes > int(cfg.MaxPages)*wasm.PageSize {
		return ErrMemoryTooLarge
	}

	// Bind the configuration.
	vm.engine = cfg.Engine
	vm.oracle = nil
	if cfg.Engine == EngineStructured {
		views, err := cm.oracleViews()
		if err != nil {
			return err
		}
		vm.oracle = views
	}
	vm.maxDepth = cfg.MaxCallDepth
	if vm.maxDepth == 0 {
		vm.maxDepth = 1024
	}
	vm.growHook = cfg.GrowHook
	vm.intr = cfg.Interrupt
	vm.fuel = cfg.Fuel
	vm.fuelLimited = cfg.Fuel > 0
	vm.cost = cfg.CostModel
	vm.costs = nil
	vm.endCost = 0
	if cfg.CostModel != nil {
		t := cm.costTablesFor(cfg.CostModel)
		vm.costs = t.funcs
		vm.endCost = t.endCost
	}
	vm.depth = 0
	vm.instrCount = 0
	vm.costAcc = 0
	vm.ioBytes = 0

	// Imports.
	if n := len(cm.importKeys); n > 0 {
		if vm.hostFns == nil {
			vm.hostFns = make([]HostFunc, n)
		}
		for i, key := range cm.importKeys {
			fn, ok := cfg.Imports[key]
			if !ok {
				return fmt.Errorf("interp: unresolved import %q", key)
			}
			vm.hostFns[i] = fn
		}
		vm.hostSigs = cm.importSigs
	}

	// Globals.
	if cap(vm.globals) < len(cm.globalInit) {
		vm.globals = make([]uint64, len(cm.globalInit))
	}
	vm.globals = vm.globals[:len(cm.globalInit)]
	copy(vm.globals, cm.globalInit)

	// Memory: keep the pages the previous runs backed, re-zeroing only the
	// blocks they dirtied, cut the page table back to the initial size and
	// re-apply the data segments, backing the pages they cover. Pages no
	// segment covers stay unbacked until touched.
	if cm.hasMemory {
		vm.maxPages = cm.memMaxPages
		if cfg.MaxPages > 0 && cfg.MaxPages < vm.maxPages {
			vm.maxPages = cfg.MaxPages
		}
		vm.clearDirtyMemory()
		vm.memPages = uint32(cm.minMemBytes / wasm.PageSize)
		vm.pages = vm.pages[:min(len(vm.pages), int(vm.memPages))]
		for _, d := range cm.m.Data {
			vm.copyIn(uint64(d.Offset.I32Val()), d.Bytes)
		}
	} else {
		vm.pages = nil
		vm.memPages, vm.maxPages = 0, 0
	}

	// Table.
	if cm.tableInit != nil {
		if cap(vm.table) < len(cm.tableInit) {
			vm.table = make([]int32, len(cm.tableInit))
		}
		vm.table = vm.table[:len(cm.tableInit)]
		copy(vm.table, cm.tableInit)
	}

	// call_indirect inline caches. Cached entries were validated against the
	// table image, which the copy above has just restored — so they survive
	// Reset (the pooled hot path pays nothing here) unless the previous run
	// mutated the table through SetTableEntry.
	if cap(vm.icache) < cm.numICSites {
		vm.icache = make([]icEntry, cm.numICSites)
		vm.invalidateICache()
	} else if vm.tableMutated {
		vm.icache = vm.icache[:cm.numICSites]
		vm.invalidateICache()
	}
	vm.tableMutated = false

	// Start function runs at instantiation.
	if cm.m.Start != nil {
		if _, err := vm.Invoke(*cm.m.Start); err != nil {
			return fmt.Errorf("interp: start: %w", err)
		}
	}
	return nil
}

// PoolConfig tunes an InstancePool.
type PoolConfig struct {
	// Prewarm instantiates this many instances at pool construction so the
	// first requests do not pay the cold allocation.
	Prewarm int
}

// poolStripe is one striped free-list. Stripes live in a contiguous slice,
// so the trailing pad keeps neighbouring stripes' lock words off a shared
// cache line — without it, Get/Put on *different* stripes would still
// ping-pong the line holding both mutexes.
type poolStripe struct {
	mu   sync.Mutex
	warm []*VM
	_    [64]byte
}

// InstancePool recycles VM instances of one CompiledModule across runs. Get
// hands out an instance deterministically Reset to fresh-instantiation
// state; Put returns it for reuse. The pool is safe for concurrent use; an
// instance handed out by Get is owned by the caller until Put.
//
// The owned free-list is striped across min(GOMAXPROCS, 16) stripes, each
// under its own mutex. A caller sticks to one stripe across Get/Put (lane
// affinity with periodic rebalance), so the common cycle touches a mutex no
// other processor is hammering; an empty stripe steals from siblings with
// TryLock only, never serializing behind a busy stripe.
//
// Prewarmed instances live on the owned stripes, which the garbage
// collector never evicts, so the Prewarm knob delivers deterministically;
// instances beyond that capacity overflow into a sync.Pool and may be
// collected under memory pressure.
type InstancePool struct {
	cm      *CompiledModule
	stripes []poolStripe
	// stripeCap bounds each stripe's owned list at ceil(Prewarm/stripes),
	// so total owned capacity is at least Prewarm.
	stripeCap int
	picker    *affinity.Picker
	pool      sync.Pool
}

// NewPool creates an instance pool over the artifact. base is the
// configuration used for prewarmed instances; Get rebinds each instance to
// its own per-run configuration, so base only matters for prewarming (it
// must resolve the module's imports).
func (cm *CompiledModule) NewPool(base Config, pc PoolConfig) (*InstancePool, error) {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	p := &InstancePool{
		cm:      cm,
		stripes: make([]poolStripe, n),
		picker:  affinity.NewPicker(n, 0),
	}
	if pc.Prewarm > 0 {
		p.stripeCap = (pc.Prewarm + n - 1) / n
	}
	for i := 0; i < pc.Prewarm; i++ {
		vm, err := cm.instantiate(base, true)
		if err != nil {
			return nil, fmt.Errorf("interp: prewarm instance %d: %w", i, err)
		}
		s := &p.stripes[i%n]
		s.warm = append(s.warm, vm)
	}
	return p, nil
}

// Get returns a VM bound to cfg: a recycled instance after a deterministic
// Reset, or a fresh instantiation when the pool is empty.
// Pool-managed instances carry dirty-block tracking from their very first
// instantiation, so every Reset re-zeroes exactly the written blocks —
// including data segments and start-function stores.
func (p *InstancePool) Get(cfg Config) (*VM, error) {
	vm := p.take()
	if vm == nil {
		if v := p.pool.Get(); v != nil {
			vm = v.(*VM)
		}
	}
	if vm == nil {
		return p.cm.instantiate(cfg, true)
	}
	if err := vm.Reset(cfg); err != nil {
		return nil, err
	}
	return vm, nil
}

// take pops a warm instance: the caller's sticky stripe first (a blocking
// lock — by construction it is rarely contended), then the sibling stripes
// opportunistically. Stealing uses TryLock only: a stripe busy handing out
// its own instances is skipped, not waited on.
func (p *InstancePool) take() *VM {
	home := int(p.picker.Pick())
	s := &p.stripes[home]
	s.mu.Lock()
	vm := s.popLocked()
	s.mu.Unlock()
	if vm != nil {
		return vm
	}
	for d := 1; d < len(p.stripes); d++ {
		s := &p.stripes[(home+d)%len(p.stripes)]
		if !s.mu.TryLock() {
			continue
		}
		vm = s.popLocked()
		s.mu.Unlock()
		if vm != nil {
			return vm
		}
	}
	return nil
}

func (s *poolStripe) popLocked() *VM {
	n := len(s.warm)
	if n == 0 {
		return nil
	}
	vm := s.warm[n-1]
	s.warm[n-1] = nil
	s.warm = s.warm[:n-1]
	return vm
}

// Put returns an instance to the pool for reuse, unbound from its run.
// Instances from other modules are rejected. The instance lands on the
// caller's sticky stripe when it has owned capacity, spills to a sibling
// stripe otherwise (so the owned set keeps its full Prewarm complement even
// when callers cluster on one stripe), and only then overflows into the
// GC-managed sync.Pool.
func (p *InstancePool) Put(vm *VM) {
	if vm == nil || vm.cm != p.cm {
		return
	}
	// An idle instance must not keep its last run's cost model, hooks and
	// host closures (and what they capture) alive; Get rebinds all of them.
	vm.cost, vm.growHook, vm.intr = nil, nil, nil
	clear(vm.hostFns)
	home := int(p.picker.Pick())
	s := &p.stripes[home]
	s.mu.Lock()
	ok := s.pushLocked(vm, p.stripeCap)
	s.mu.Unlock()
	if ok {
		return
	}
	for d := 1; d < len(p.stripes); d++ {
		s := &p.stripes[(home+d)%len(p.stripes)]
		if !s.mu.TryLock() {
			continue
		}
		ok = s.pushLocked(vm, p.stripeCap)
		s.mu.Unlock()
		if ok {
			return
		}
	}
	p.pool.Put(vm)
}

func (s *poolStripe) pushLocked(vm *VM, limit int) bool {
	if len(s.warm) >= limit {
		return false
	}
	s.warm = append(s.warm, vm)
	return true
}
