// Package acctee is the public API of the AccTEE reproduction: a
// WebAssembly-based two-way sandbox for trusted resource accounting
// (Goltzsche et al., Middleware '19).
//
// The workflow mirrors the paper's Fig. 3:
//
//  1. The workload provider compiles code to WebAssembly (here: text
//     format via ParseWAT, binary via DecodeBinary, or the builder in
//     internal/wasm for programmatic construction).
//  2. An Instrumenter — the instrumentation enclave (IE) — rewrites the
//     module with a weighted instruction counter and signs Evidence
//     binding input to output.
//  3. Both parties attest the IE and the accounting enclave (AE) against
//     their public measurements on a Platform (quoting enclave +
//     attestation service).
//  4. A Sandbox — the AE — verifies the evidence, executes the workload
//     inside the two-way sandbox, and chains one usage record per run onto
//     a sharded, hash-chained ledger. Checkpoints (signed periodically or
//     on request) cover the whole ledger with one signature; acctee-verify
//     replays a serialised ledger offline.
//
// See examples/quickstart for the complete chain in ~60 lines.
package acctee

import (
	"crypto/ecdsa"
	"io"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	wasmbin "acctee/internal/wasm/binary"
	"acctee/internal/wasm/validate"
	"acctee/internal/wasm/wat"
	"acctee/internal/weights"
)

// Module is a WebAssembly module in the AccTEE pipeline.
type Module struct {
	m *wasm.Module
}

// ParseWAT parses WebAssembly text format.
func ParseWAT(src string) (*Module, error) {
	m, err := wat.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	return &Module{m: m}, nil
}

// DecodeBinary parses a wasm binary.
func DecodeBinary(b []byte) (*Module, error) {
	m, err := wasmbin.Decode(b)
	if err != nil {
		return nil, err
	}
	if err := validate.Module(m); err != nil {
		return nil, err
	}
	return &Module{m: m}, nil
}

// WrapModule adopts an internally-built module (used by the examples and
// the evaluation harness, whose workloads come from the builder API).
func WrapModule(m *wasm.Module) *Module { return &Module{m: m} }

// WAT renders the module as WebAssembly text.
func (m *Module) WAT() string { return wat.Print(m.m) }

// Binary encodes the module as a wasm binary.
func (m *Module) Binary() ([]byte, error) { return wasmbin.Encode(m.m) }

// Hash returns the module's SHA-256 identity (over the binary encoding).
func (m *Module) Hash() ([32]byte, error) { return core.ModuleHash(m.m) }

// Raw exposes the underlying module for advanced use.
func (m *Module) Raw() *wasm.Module { return m.m }

// CompiledModule is a compile-once execution artifact: the module lowered
// through the interpreter's compilation pass exactly once, with a pool of
// reusable sandbox instances behind it. Compile it once and Execute many
// times ("instrument once, execute many times", paper §3.3).
type CompiledModule struct {
	src  *Module
	cm   *interp.CompiledModule
	pool *interp.InstancePool
}

// Compile lowers the module once into a reusable execution artifact.
func (m *Module) Compile() (*CompiledModule, error) {
	cm, err := interp.Compile(m.m, interp.CompileOptions{})
	if err != nil {
		return nil, err
	}
	pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{})
	if err != nil {
		return nil, err
	}
	return &CompiledModule{src: m, cm: cm, pool: pool}, nil
}

// Module returns the source module.
func (c *CompiledModule) Module() *Module { return c.src }

// RegStats reports the register engine's allocation and specialisation
// coverage: register-file size, instructions under dedicated handlers, and
// multi-instruction statement spans.
func (c *CompiledModule) RegStats() interp.RegStats { return c.cm.RegStats() }

// Execute invokes an exported function on a pooled sandbox instance (no
// enclaves, no accounting) — the compile-once counterpart of Execute. It is
// safe to call concurrently.
func (c *CompiledModule) Execute(entry string, args ...uint64) ([]uint64, error) {
	vm, err := c.pool.Get(interp.Config{})
	if err != nil {
		return nil, err
	}
	defer c.pool.Put(vm)
	return vm.InvokeExport(entry, args...)
}

// OptLevel selects the instrumentation optimisation level (paper §3.6).
type OptLevel = instrument.Level

// Instrumentation levels.
const (
	Naive     = instrument.Naive
	FlowBased = instrument.FlowBased
	LoopBased = instrument.LoopBased
)

// Mode selects hardware or simulation enclaves (paper §5 setups).
type Mode = sgx.Mode

// Enclave modes.
const (
	Simulation = sgx.ModeSimulation
	Hardware   = sgx.ModeHardware
)

// Evidence is the instrumentation enclave's signed statement binding an
// instrumented module to its original (Fig. 3).
type Evidence = core.Evidence

// UsageLog is one execution's resource record (paper §3.5).
type UsageLog = accounting.UsageLog

// Record is one hash-chained ledger entry: a usage log bound to its shard
// and to the previous record of that shard.
type Record = accounting.Record

// Receipt locates a run's record in the sandbox ledger (shard, lane-local
// sequence, chain head).
type Receipt = accounting.Receipt

// SignedCheckpoint is a batch-signed ledger checkpoint: one enclave
// signature covering a contiguous prefix of every sequence lane plus the
// aggregate totals (the paper's "periodically or upon request" log).
type SignedCheckpoint = accounting.SignedCheckpoint

// LedgerOptions tune the sandbox ledger: shard (sequence-lane) count,
// per-record eager signing, periodic checkpointing, bounded retention.
type LedgerOptions = accounting.LedgerOptions

// RetentionPolicy bounds the ledger's resident memory: sealed segments are
// dropped behind signed checkpoints or spilled to append-only segment
// files (RetentionPolicy.SpillDir), with per-shard heads carried forward.
type RetentionPolicy = accounting.RetentionPolicy

// RecordStore is the retention layer behind a ledger: resident segments,
// plus a spill directory when RetentionPolicy.SpillDir names one.
type RecordStore = accounting.RecordStore

// CompactResult summarises one ledger compaction: the anchoring
// checkpoint, how many records left memory, what stayed resident.
type CompactResult = accounting.CompactResult

// DumpOptions select a full or checkpoint-anchored (truncated) dump.
type DumpOptions = accounting.DumpOptions

// LedgerDump is a serialised ledger for offline verification (acctee-verify).
type LedgerDump = accounting.Dump

// Weights is an instruction weight table (paper §3.7).
type Weights = weights.Table

// UnitWeights returns the plain instruction-counting table.
func UnitWeights() *Weights { return weights.Unit() }

// CalibratedWeights returns the Fig. 7-shaped cycle weight table.
func CalibratedWeights() *Weights { return weights.Calibrated() }

// Platform is one infrastructure-provider machine: its quoting enclave
// registered with an attestation service (paper §2.2).
type Platform struct {
	QE *sgx.QuotingEnclave
	AS *sgx.AttestationService
}

// NewPlatform provisions a platform with a fresh quoting enclave.
func NewPlatform(name string) (*Platform, error) {
	qe, err := sgx.NewQuotingEnclave()
	if err != nil {
		return nil, err
	}
	as := sgx.NewAttestationService()
	as.RegisterPlatform(name, qe)
	return &Platform{QE: qe, AS: as}, nil
}

// Instrumenter is the instrumentation enclave (IE).
type Instrumenter struct {
	ie *core.InstrumentationEnclave
}

// NewInstrumenter creates an IE at the given level; nil weights means unit
// (plain instruction counting).
func NewInstrumenter(level OptLevel, w *Weights) (*Instrumenter, error) {
	ie, err := core.NewInstrumentationEnclave(level, w)
	if err != nil {
		return nil, err
	}
	return &Instrumenter{ie: ie}, nil
}

// Instrument rewrites the module for weighted instruction counting and
// signs the evidence.
func (i *Instrumenter) Instrument(m *Module) (*Module, Evidence, error) {
	out, ev, err := i.ie.Instrument(m.m)
	if err != nil {
		return nil, Evidence{}, err
	}
	return &Module{m: out}, ev, nil
}

// PublicKey returns the IE's evidence-signing key.
func (i *Instrumenter) PublicKey() *ecdsa.PublicKey { return i.ie.PublicKey() }

// Attest verifies this IE against its public measurement on the platform.
func (i *Instrumenter) Attest(p *Platform) error {
	q, err := i.ie.Quote(p.QE)
	if err != nil {
		return err
	}
	return p.AS.Attest(q, core.IEMeasurement(), i.ie.PublicKey())
}

// RunOptions configure one sandbox execution.
type RunOptions = core.RunOptions

// RunResult is one execution's results plus its signed usage log.
type RunResult = core.RunResult

// Sandbox is the accountable two-way sandbox: the accounting enclave (AE)
// hosting the execution sandbox.
type Sandbox struct {
	ae *core.AccountingEnclave
}

// PoolConfig tunes the sandbox instance pool (compile-once, run-many).
type PoolConfig = interp.PoolConfig

// SandboxConfig configures sandbox creation.
type SandboxConfig struct {
	// Mode selects hardware or simulation (default Hardware).
	Mode Mode
	// Costs overrides the SGX cost parameters (zero value = paper
	// defaults: 93 MB EPC).
	Costs sgx.CostParams
	// Weights must match the table the evidence was produced with
	// (nil = unit).
	Weights *Weights
	// Pool tunes sandbox instance reuse across runs: Prewarm pre-creates
	// instances. The zero value pools lazily.
	Pool PoolConfig
	// Ledger tunes the hash-chained usage ledger: shard count (default one
	// lane per CPU), EagerSign for per-record signatures, and
	// CheckpointInterval for periodic batch signing.
	Ledger LedgerOptions
}

// NewSandbox verifies the instrumented module against the evidence (signed
// by iePub, which the caller must have attested) and prepares execution.
// The module is compiled once here; Run reuses pooled instances and is safe
// to call concurrently.
func NewSandbox(cfg SandboxConfig, m *Module, ev Evidence, iePub *ecdsa.PublicKey) (*Sandbox, error) {
	if cfg.Mode == 0 {
		cfg.Mode = Hardware
	}
	if cfg.Costs == (sgx.CostParams{}) {
		cfg.Costs = sgx.DefaultCostParams()
	}
	ae, err := core.NewAccountingEnclave(cfg.Mode, cfg.Costs, cfg.Weights, m.m, ev, iePub)
	if err != nil {
		return nil, err
	}
	if cfg.Pool != (PoolConfig{}) {
		if err := ae.SetPoolConfig(cfg.Pool); err != nil {
			return nil, err
		}
	}
	if cfg.Ledger != (LedgerOptions{}) {
		if err := ae.SetLedgerOptions(cfg.Ledger); err != nil {
			return nil, err
		}
	}
	return &Sandbox{ae: ae}, nil
}

// Attest verifies this sandbox's accounting enclave on the platform.
func (s *Sandbox) Attest(p *Platform) error {
	q, err := s.ae.Quote(p.QE)
	if err != nil {
		return err
	}
	return p.AS.Attest(q, core.AEMeasurement(), s.ae.PublicKey())
}

// PublicKey returns the AE's log-signing key.
func (s *Sandbox) PublicKey() *ecdsa.PublicKey { return s.ae.PublicKey() }

// Run executes an exported function and returns results plus the receipt
// and hash-chained record in the sandbox ledger.
func (s *Sandbox) Run(opts RunOptions) (RunResult, error) { return s.ae.Run(opts) }

// Snapshot signs a checkpoint on request: one signature covering every
// record chained so far, with cumulative totals.
func (s *Sandbox) Snapshot() (SignedCheckpoint, error) { return s.ae.Snapshot() }

// Dump serialises the sandbox ledger for offline verification.
func (s *Sandbox) Dump() (*LedgerDump, error) { return s.ae.Ledger().Dump() }

// WriteDump streams the serialised ledger to w in O(segment) memory;
// DumpOptions{Truncated: true} anchors it at the last compaction
// checkpoint (non-zero starting sequences, heads carried forward).
func (s *Sandbox) WriteDump(w io.Writer, opts DumpOptions) error {
	return s.ae.Ledger().WriteDump(w, opts)
}

// Compact bounds the ledger's resident footprint: signs a checkpoint
// covering every record chained so far and seals (spills or drops) what it
// covers, leaving chain heads carried forward. With
// LedgerOptions.Retention.MaxResidentRecords set, the sandbox does this
// automatically whenever the resident count exceeds the budget.
func (s *Sandbox) Compact() (CompactResult, error) { return s.ae.Compact() }

// Close stops the ledger's periodic checkpoint goroutine, if configured,
// and closes its spill files.
func (s *Sandbox) Close() { s.ae.Close() }

// VerifyRecord checks an eager-mode record: hash consistency plus its
// per-record enclave signature against the attested AE key. Records from
// the default batched mode carry no individual signature and return
// accounting.ErrNoRecordSignature — verify them through a covering
// checkpoint (VerifyCheckpoint / VerifyLedger) instead.
func VerifyRecord(r Record, aePub *ecdsa.PublicKey) error {
	return accounting.VerifyRecordSig(r, aePub)
}

// VerifyCheckpoint checks a batch-signed checkpoint against the attested AE
// key and the public AE measurement.
func VerifyCheckpoint(sc SignedCheckpoint, aePub *ecdsa.PublicKey) error {
	return accounting.VerifyCheckpointSig(sc, aePub, core.AEMeasurement())
}

// VerifyLedger replays an in-memory ledger dump offline against the
// attested AE key: chain continuity from the carried-forward heads, per-shard
// gap-freedom, checkpoint signatures, and totals reconstruction (the
// acctee-verify command wraps this). Anchored (truncated) dumps verify
// from their non-zero starting sequences against the anchor's signature.
func VerifyLedger(d *LedgerDump, aePub *ecdsa.PublicKey) (*accounting.VerifyResult, error) {
	return accounting.VerifyDump(d, accounting.VerifyOptions{Key: aePub, Measurement: core.AEMeasurement()})
}

// VerifyLedgerStream verifies a serialised ledger (the dump container
// Ledger.WriteDump and GET /ledger produce) straight off a reader, one
// record at a time — the streaming counterpart of VerifyLedger for dumps
// too large to materialise.
func VerifyLedgerStream(r io.Reader, aePub *ecdsa.PublicKey) (*accounting.VerifyResult, error) {
	return accounting.VerifyReader(r, accounting.VerifyOptions{Key: aePub, Measurement: core.AEMeasurement()})
}

// Execute is a convenience for untrusted-free local runs (no enclaves, no
// accounting): instantiate the module and call an export.
func Execute(m *Module, entry string, args ...uint64) ([]uint64, error) {
	vm, err := interp.Instantiate(m.m, interp.Config{})
	if err != nil {
		return nil, err
	}
	return vm.InvokeExport(entry, args...)
}

// Version identifies this implementation.
const Version = "1.0.0"
