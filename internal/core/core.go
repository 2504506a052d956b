// Package core assembles AccTEE's two-way sandbox (paper §3, Fig. 2/3):
// the Instrumentation Enclave (IE) that rewrites WebAssembly for weighted
// instruction counting and signs evidence of having done so, and the
// Accounting Enclave (AE) that verifies the evidence, executes the workload
// inside the execution sandbox under an SGX cost model, and emits signed
// resource usage logs trusted by both the workload provider and the
// infrastructure provider.
package core

import (
	"context"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"acctee/internal/accounting"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/sgxlkl"
	"acctee/internal/wasm"
	wasmbin "acctee/internal/wasm/binary"
	"acctee/internal/wasm/validate"
	"acctee/internal/weights"
)

// Enclave code identities. Both parties audit the (public) enclave code and
// compute these measurements independently (§3.3); attestation then proves
// a genuine enclave with exactly this code is running.
const (
	ieCodeIdentity = "acctee/instrumentation-enclave v1.0"
	aeCodeIdentity = "acctee/accounting-enclave v1.0 (sgx-lkl + wasm interpreter)"
)

// IEMeasurement returns the expected instrumentation-enclave measurement.
func IEMeasurement() sgx.Measurement { return sgx.MeasureCode([]byte(ieCodeIdentity)) }

// AEMeasurement returns the expected accounting-enclave measurement.
func AEMeasurement() sgx.Measurement { return sgx.MeasureCode([]byte(aeCodeIdentity)) }

// Evidence is the instrumentation enclave's signed statement that a given
// instrumented module was derived from a given original module with a given
// instrumentation configuration (Fig. 3 "Instrumentation Evidence").
type Evidence struct {
	OriginalHash     [32]byte
	InstrumentedHash [32]byte
	CounterGlobal    uint32
	CounterName      string
	Level            instrument.Level
	WeightsHash      [32]byte
	Signature        []byte
}

func (e *Evidence) marshalForSig() []byte {
	out := make([]byte, 0, 128)
	out = append(out, e.OriginalHash[:]...)
	out = append(out, e.InstrumentedHash[:]...)
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], e.CounterGlobal)
	out = append(out, b[:4]...)
	binary.LittleEndian.PutUint64(b[:], uint64(e.Level))
	out = append(out, b[:]...)
	out = append(out, e.WeightsHash[:]...)
	out = append(out, []byte(e.CounterName)...)
	return out
}

// Evidence verification errors.
var (
	ErrEvidenceSignature = errors.New("core: instrumentation evidence signature invalid")
	ErrEvidenceMismatch  = errors.New("core: module does not match instrumentation evidence")
)

// InstrumentationEnclave (IE) instruments modules inside a TEE and signs
// evidence binding input to output. Its code is public and auditable; the
// measurement commits to exactly this implementation.
type InstrumentationEnclave struct {
	enclave *sgx.Enclave
	weights *weights.Table
	level   instrument.Level
}

// NewInstrumentationEnclave creates an IE with the given instrumentation
// level and weight table (nil means unit weights).
func NewInstrumentationEnclave(level instrument.Level, tbl *weights.Table) (*InstrumentationEnclave, error) {
	if tbl == nil {
		tbl = weights.Unit()
	}
	encl, err := sgx.NewEnclave([]byte(ieCodeIdentity), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		return nil, err
	}
	return &InstrumentationEnclave{enclave: encl, weights: tbl, level: level}, nil
}

// PublicKey returns the IE's signing key (bound via attestation).
func (ie *InstrumentationEnclave) PublicKey() *ecdsa.PublicKey { return ie.enclave.PublicKey() }

// Quote produces a remote-attestation quote for the IE via the platform's
// quoting enclave.
func (ie *InstrumentationEnclave) Quote(qe *sgx.QuotingEnclave) (sgx.Quote, error) {
	rep := ie.enclave.CreateReport(sgx.PubKeyUserData(ie.enclave.PublicKey()))
	return qe.QuoteReport(rep)
}

// ModuleHash hashes a module's binary encoding.
func ModuleHash(m *wasm.Module) ([32]byte, error) {
	bin, err := wasmbin.Encode(m)
	if err != nil {
		return [32]byte{}, fmt.Errorf("core: encode module: %w", err)
	}
	return sha256.Sum256(bin), nil
}

// Instrument validates and instruments a module, returning the instrumented
// module and signed evidence. The instrumentation runs once; the output can
// be cached and reused across many executions (§3.3).
func (ie *InstrumentationEnclave) Instrument(m *wasm.Module) (*wasm.Module, Evidence, error) {
	origHash, err := ModuleHash(m)
	if err != nil {
		return nil, Evidence{}, err
	}
	res, err := instrument.Instrument(m, instrument.Options{Level: ie.level, Weights: ie.weights})
	if err != nil {
		return nil, Evidence{}, err
	}
	instHash, err := ModuleHash(res.Module)
	if err != nil {
		return nil, Evidence{}, err
	}
	ev := Evidence{
		OriginalHash:     origHash,
		InstrumentedHash: instHash,
		CounterGlobal:    res.CounterGlobal,
		CounterName:      res.CounterName,
		Level:            ie.level,
		WeightsHash:      ie.weights.Hash(),
	}
	sig, err := ie.enclave.Sign(ev.marshalForSig())
	if err != nil {
		return nil, Evidence{}, fmt.Errorf("core: sign evidence: %w", err)
	}
	ev.Signature = sig
	return res.Module, ev, nil
}

// VerifyEvidence checks that the instrumented module matches the evidence
// and that the evidence was signed by the attested IE key.
func VerifyEvidence(m *wasm.Module, ev Evidence, iePub *ecdsa.PublicKey) error {
	_, err := verifiedHash(m, ev, iePub)
	return err
}

// verifiedHash is VerifyEvidence handing back the module hash it computed,
// so a caller that needs the hash does not encode and hash the module again.
func verifiedHash(m *wasm.Module, ev Evidence, iePub *ecdsa.PublicKey) ([32]byte, error) {
	h, err := ModuleHash(m)
	if err != nil {
		return h, err
	}
	if h != ev.InstrumentedHash {
		return h, ErrEvidenceMismatch
	}
	probe := ev
	probe.Signature = nil
	if !sgx.VerifyBy(iePub, probe.marshalForSig(), ev.Signature) {
		return h, ErrEvidenceSignature
	}
	return h, nil
}

// ---------------------------------------------------------------------------
// Accounting enclave

// RunOptions configure one workload execution inside the AE.
type RunOptions struct {
	// Entry is the exported function to invoke.
	Entry string
	// Args are the raw argument values.
	Args []uint64
	// Fuel bounds total executed instructions (0 = unbounded) — the
	// two-way sandbox's resource limit.
	Fuel uint64
	// Policy selects the memory accounting policy (default PeakMemory).
	Policy accounting.MemoryPolicy
	// Imports adds host functions beyond the library-OS defaults.
	Imports map[string]interp.HostFunc
	// MaxPages caps linear memory growth.
	MaxPages uint32
}

// RunResult is one execution's outcome plus its ledger evidence.
type RunResult struct {
	Results []uint64
	// Receipt locates the run's record in the AE's hash-chained ledger:
	// shard, lane-local sequence, and the shard's chain head after the
	// append. A later signed checkpoint covering (shard, sequence) vouches
	// for the record with one signature.
	Receipt accounting.Receipt
	// Record is the appended hash-chained ledger record. Its Signature is
	// set only under LedgerOptions.EagerSign (the per-record signing
	// baseline); in the default batched mode records are vouched for by
	// checkpoints instead.
	Record accounting.Record
	// PageFaults and Transitions expose cost-model detail for evaluation.
	PageFaults  uint64
	Transitions uint64
}

// AccountingEnclave (AE) hosts the execution sandbox under SGX protection.
// One AE instance executes one workload module (possibly many invocations,
// e.g. FaaS requests), appending one record per invocation to a sharded,
// hash-chained ledger. The module is compiled once at construction (paper
// §3.3, "instrument once, execute many times"); each Run borrows a pooled
// sandbox instance. Run and Snapshot are safe to call concurrently:
// concurrent runs land on independent sequence lanes (per-shard locks,
// lane-local gap-free sequences), and signing happens at checkpoints
// (periodic or on Snapshot — the paper's "either periodically or upon
// request"), not per record, unless eager signing is configured.
type AccountingEnclave struct {
	enclave  *sgx.Enclave
	libos    *sgxlkl.LibOS
	mode     sgx.Mode
	costs    sgx.CostParams
	weights  *weights.Table
	module   *wasm.Module
	compiled *interp.CompiledModule
	pool     *interp.InstancePool
	modHash  [32]byte
	counter  uint32
	ledger   *accounting.Ledger
}

// NewAccountingEnclave verifies the instrumented module against the
// evidence and prepares it for execution. iePub must already have been
// attested against IEMeasurement by the caller (see Workflow in the root
// package for the full chain).
func NewAccountingEnclave(mode sgx.Mode, costs sgx.CostParams, tbl *weights.Table,
	m *wasm.Module, ev Evidence, iePub *ecdsa.PublicKey) (*AccountingEnclave, error) {
	if tbl == nil {
		tbl = weights.Unit()
	}
	if tbl.Hash() != ev.WeightsHash {
		return nil, errors.New("core: weight table does not match evidence")
	}
	// One encode + SHA-256 per deployment: the evidence check hands back the
	// hash it computed; without an IE key nothing has computed it yet.
	var h [32]byte
	var err error
	if iePub != nil {
		h, err = verifiedHash(m, ev, iePub)
	} else {
		h, err = ModuleHash(m)
	}
	if err != nil {
		return nil, err
	}
	if err := validate.Module(m); err != nil {
		return nil, fmt.Errorf("core: instrumented module invalid: %w", err)
	}
	encl, err := sgx.NewEnclave([]byte(aeCodeIdentity), mode, costs)
	if err != nil {
		return nil, err
	}
	// Compile once; every Run instantiates from the artifact. Pre-warming
	// with this AE's cost-model fingerprint makes the first Run as cheap as
	// the rest.
	compiled, err := interp.Compile(m, interp.CompileOptions{
		CostModels: []interp.CostModel{sgx.NewEPCModel(mode, costs, tbl)},
	})
	if err != nil {
		return nil, fmt.Errorf("core: compile workload: %w", err)
	}
	ledger, err := accounting.NewLedger(encl, accounting.LedgerOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: ledger: %w", err)
	}
	ae := &AccountingEnclave{
		enclave:  encl,
		libos:    sgxlkl.New(encl),
		mode:     mode,
		costs:    costs,
		weights:  tbl,
		module:   m,
		compiled: compiled,
		modHash:  h,
		counter:  ev.CounterGlobal,
		ledger:   ledger,
	}
	if err := ae.SetPoolConfig(interp.PoolConfig{}); err != nil {
		return nil, err
	}
	return ae, nil
}

// SetLedgerOptions replaces the AE's ledger (e.g. to change the shard
// count, enable eager per-record signing, start periodic checkpointing, or
// configure bounded retention/spill-to-disk). It starts a FRESH ledger —
// unless the options name a spill directory holding a previous ledger of
// this enclave identity, which is recovered with its chain state carried
// forward. Records and checkpoints chained in the replaced in-memory
// ledger are discarded with it, and receipts issued against it no longer
// resolve — call it once at setup, before the first Run.
func (ae *AccountingEnclave) SetLedgerOptions(opts accounting.LedgerOptions) error {
	ledger, err := accounting.NewLedger(ae.enclave, opts)
	if err != nil {
		return fmt.Errorf("core: ledger: %w", err)
	}
	ae.ledger.Close()
	ae.ledger = ledger
	return nil
}

// Ledger exposes the AE's hash-chained ledger (receipt lookup, checkpoints,
// offline-verification dumps).
func (ae *AccountingEnclave) Ledger() *accounting.Ledger { return ae.ledger }

// Compact bounds the ledger's resident footprint on request: it signs a
// checkpoint covering every lane and seals the covered records (spilling
// or dropping them per the retention policy), leaving the chain heads
// carried forward.
func (ae *AccountingEnclave) Compact() (accounting.CompactResult, error) {
	return ae.ledger.Compact()
}

// Close stops the ledger's periodic checkpoint goroutine, if one runs, and
// closes its spill files.
func (ae *AccountingEnclave) Close() { ae.ledger.Close() }

// SetPoolConfig replaces the AE's sandbox instance pool (e.g. to pre-warm
// instances). Call it before serving concurrent runs; instances already
// handed out to in-flight runs drain to the old pool.
func (ae *AccountingEnclave) SetPoolConfig(pc interp.PoolConfig) error {
	pool, err := ae.compiled.NewPool(interp.Config{Imports: DefaultImports(ae.libos)}, pc)
	if err != nil {
		return fmt.Errorf("core: sandbox pool: %w", err)
	}
	ae.pool = pool
	return nil
}

// PublicKey returns the AE key that signs usage logs.
func (ae *AccountingEnclave) PublicKey() *ecdsa.PublicKey { return ae.enclave.PublicKey() }

// Measurement returns the AE's measurement.
func (ae *AccountingEnclave) Measurement() sgx.Measurement { return ae.enclave.Measurement() }

// Quote produces a remote-attestation quote for the AE.
func (ae *AccountingEnclave) Quote(qe *sgx.QuotingEnclave) (sgx.Quote, error) {
	rep := ae.enclave.CreateReport(sgx.PubKeyUserData(ae.enclave.PublicKey()))
	return qe.QuoteReport(rep)
}

// LibOS exposes the in-enclave library OS (network pipe, block device).
func (ae *AccountingEnclave) LibOS() *sgxlkl.LibOS { return ae.libos }

// Run executes the workload once, chains its usage record onto the ledger,
// and returns results plus the receipt. Each invocation serves from a
// pooled sandbox instance deterministically reset to fresh-instantiation
// state, as the FaaS gateway does per request (§5.3) — without re-running
// the lowering pass. Run is safe to call from concurrent goroutines: each
// run gets its own instance and its record lands on a caller-affine
// sequence lane (sticky per processor, rebalanced round-robin between
// windows), so runs never contend on a shared lock; per-shard sequences
// are gap-free and strictly increasing.
func (ae *AccountingEnclave) Run(opts RunOptions) (RunResult, error) {
	return ae.RunContext(context.Background(), opts)
}

// RunContext is Run with deadline propagation: when ctx carries a deadline
// or cancellation, the sandbox's cooperative-interrupt flag is armed the
// moment ctx is done, and the workload aborts at its next segment-leader
// charge point with interp.ErrInterrupted (check with errors.Is). The abort
// is accounting-exact: the returned record and receipt charge precisely the
// fuel/instructions retired before the interrupt — resources already spent
// are still billed — so cancellation never produces an unaccounted partial
// execution.
func (ae *AccountingEnclave) RunContext(ctx context.Context, opts RunOptions) (RunResult, error) {
	if opts.Policy == 0 {
		opts.Policy = accounting.PeakMemory
	}
	var intr *atomic.Bool
	if ctx.Done() != nil {
		intr = new(atomic.Bool)
		if ctx.Err() != nil {
			// Already expired: the run aborts at the entry leader, charging
			// nothing, but still flows through the ledger for a zero-work
			// record — callers see one uniform cancellation path.
			intr.Store(true)
		} else {
			// AfterFunc registers on the context; it starts no goroutine
			// unless the context actually ends while the run is in flight.
			stop := context.AfterFunc(ctx, func() { intr.Store(true) })
			defer stop()
		}
	}
	model := sgx.NewEPCModel(ae.mode, ae.costs, ae.weights)
	// Per-run I/O tally: the ledger sums per-record values into signed
	// checkpoint totals, so every record must carry only this run's bytes,
	// never the library OS's cumulative counters.
	var tally ioTally
	imports := talliedImports(ae.libos, &tally)
	for k, v := range opts.Imports {
		imports[k] = v
	}
	// The meter integrates linear-memory size over the weighted counter:
	// each growth event closes the interval at the old size (§3.5,
	// fine-grained memory policy).
	var meter accounting.Meter
	counterIdx := ae.counter
	pool := ae.pool
	vm, err := pool.Get(interp.Config{
		Imports:   imports,
		Fuel:      opts.Fuel,
		CostModel: model,
		MaxPages:  opts.MaxPages,
		GrowHook: func(vm *interp.VM, oldPages, newPages uint32) {
			c, err := vm.Global(counterIdx)
			if err == nil {
				meter.Update(c, uint64(oldPages)*wasm.PageSize)
			}
		},
		Interrupt: intr,
	})
	if err != nil {
		return RunResult{}, fmt.Errorf("core: instantiate workload: %w", err)
	}
	defer pool.Put(vm)
	// Entering the enclave for the call is one transition.
	vm.AddCost(ae.enclave.Transition())

	results, runErr := vm.InvokeExport(opts.Entry, opts.Args...)
	// Leaving the enclave with the results is another transition.
	vm.AddCost(ae.enclave.Transition())

	counter, err := vm.Global(ae.counter)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: read counter: %w", err)
	}
	meter.Update(counter, uint64(vm.MemorySize()))

	// vm.IOBytes() holds only custom-import traffic here (the tallied
	// library-OS shims account into the tally instead), so nothing is
	// counted twice and the record is a pure per-run delta: summing
	// records across a checkpoint yields exact cumulative totals.
	log := accounting.UsageLog{
		WorkloadHash:         ae.modHash,
		WeightedInstructions: counter,
		PeakMemoryBytes:      uint64(vm.MemorySize()),
		MemoryIntegral:       meter.Integral(),
		IOBytesIn:            tally.in + vm.IOBytes(),
		IOBytesOut:           tally.out,
		SimulatedCycles:      vm.Cost(),
		Policy:               opts.Policy,
	}
	receipt, record, err := ae.ledger.Append(log)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{
		Results:     results,
		Receipt:     receipt,
		Record:      record,
		PageFaults:  model.PageFaults(),
		Transitions: ae.enclave.Transitions(),
	}
	if runErr != nil {
		// The record is still valid — resources were spent up to the trap.
		return res, fmt.Errorf("core: workload: %w", runErr)
	}
	return res, nil
}

// Snapshot produces a signed checkpoint on request (the paper's on-demand
// log, §3.3): one signature covering the contiguous prefix of every
// sequence lane, with totals over all invocations so far. It can be called
// between invocations, e.g. once per billing period, including concurrently
// with Run.
func (ae *AccountingEnclave) Snapshot() (accounting.SignedCheckpoint, error) {
	return ae.ledger.Checkpoint()
}

// QuoteCheckpoint produces a remote-attestation quote whose report binds
// the AE's key AND the given checkpoint — verifiable with
// sgx.AttestationService.AttestCheckpoint. It lets a party prove to a third
// one that the attested enclave stood behind exactly this ledger state.
func (ae *AccountingEnclave) QuoteCheckpoint(qe *sgx.QuotingEnclave, sc accounting.SignedCheckpoint) (sgx.Quote, error) {
	h := sc.Checkpoint.Hash()
	rep := ae.enclave.CreateReport(sgx.CheckpointUserData(ae.enclave.PublicKey(), h))
	return qe.QuoteReport(rep)
}

// ioTally accumulates one run's sandbox-boundary I/O by direction. Host
// functions execute on the run's own goroutine, so no locking is needed.
type ioTally struct{ in, out uint64 }

// DefaultImports exposes the library OS to workloads as host functions:
//
//	env.read(fd, ptr, len) -> n      env.write(fd, ptr, len) -> n
//	env.clock() -> i64               env.block_read(off, ptr, len) -> errno
//	env.block_write(off, ptr, len) -> errno
func DefaultImports(l *sgxlkl.LibOS) map[string]interp.HostFunc {
	return talliedImports(l, nil)
}

// talliedImports is DefaultImports with per-run attribution: with a tally,
// the shims account their bytes there (leaving vm.AddIOBytes to custom
// imports, so nothing is counted twice) and charge the enclave-transition
// cycles the library OS records for net/block syscalls into the run's VM —
// mirroring the LibOS's own accounting, so per-record SimulatedCycles
// include I/O crossings. Without a tally they fall back to the plain VM
// byte counter.
func talliedImports(l *sgxlkl.LibOS, t *ioTally) map[string]interp.HostFunc {
	tallyIn := func(vm *interp.VM, n uint64) {
		if t != nil {
			t.in += n
		} else {
			vm.AddIOBytes(n)
		}
	}
	tallyOut := func(vm *interp.VM, n uint64) {
		if t != nil {
			t.out += n
		} else {
			vm.AddIOBytes(n)
		}
	}
	// The LibOS records one enclave crossing per net or block syscall
	// (mem-file I/O stays inside); attribute its cycle cost to this run.
	crossing := func(vm *interp.VM) {
		if t != nil {
			vm.AddCost(l.TransitionCost())
		}
	}
	return map[string]interp.HostFunc{
		"env.read": func(vm *interp.VM, args []uint64) ([]uint64, error) {
			fd, ptr, n := int32(uint32(args[0])), uint32(args[1]), uint32(args[2])
			buf, err := vm.MemoryDirty(ptr, n)
			if err != nil {
				return []uint64{uint64(uint32(0xFFFFFFFF))}, nil
			}
			got, err := l.Read(fd, buf)
			if err != nil {
				return []uint64{uint64(uint32(0xFFFFFFFF))}, nil
			}
			if fd == sgxlkl.NetFD {
				crossing(vm)
			}
			tallyIn(vm, uint64(got))
			return []uint64{uint64(uint32(got))}, nil
		},
		"env.write": func(vm *interp.VM, args []uint64) ([]uint64, error) {
			fd, ptr, n := int32(uint32(args[0])), uint32(args[1]), uint32(args[2])
			data, err := vm.MemoryView(ptr, n)
			if err != nil {
				return []uint64{uint64(uint32(0xFFFFFFFF))}, nil
			}
			put, err := l.Write(fd, data)
			if err != nil {
				return []uint64{uint64(uint32(0xFFFFFFFF))}, nil
			}
			if fd == sgxlkl.NetFD {
				crossing(vm)
			}
			tallyOut(vm, uint64(put))
			return []uint64{uint64(uint32(put))}, nil
		},
		"env.clock": func(vm *interp.VM, args []uint64) ([]uint64, error) {
			return []uint64{l.Clock()}, nil
		},
		"env.block_read": func(vm *interp.VM, args []uint64) ([]uint64, error) {
			off, ptr, n := uint32(args[0]), uint32(args[1]), uint32(args[2])
			buf, err := vm.MemoryDirty(ptr, n)
			if err != nil {
				return []uint64{1}, nil
			}
			if err := l.ReadBlock(int(off), buf); err != nil {
				return []uint64{1}, nil
			}
			crossing(vm)
			if t != nil {
				t.in += uint64(n)
			}
			return []uint64{0}, nil
		},
		"env.block_write": func(vm *interp.VM, args []uint64) ([]uint64, error) {
			off, ptr, n := uint32(args[0]), uint32(args[1]), uint32(args[2])
			data, err := vm.MemoryView(ptr, n)
			if err != nil {
				return []uint64{1}, nil
			}
			if err := l.WriteBlock(int(off), data); err != nil {
				return []uint64{1}, nil
			}
			crossing(vm)
			if t != nil {
				t.out += uint64(len(data))
			}
			return []uint64{0}, nil
		},
	}
}
