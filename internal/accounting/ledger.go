// Sharded, hash-chained, batch-signed usage ledger (paper §3.3, §3.5).
//
// PR 2 left the accounting enclave with one mutex around a global sequence
// counter and a full ECDSA signature per record — the accounting layer, not
// the interpreter, capped concurrent throughput. This file replaces that
// with the structure shielded middleboxes use to scale enclave crypto:
//
//   - records are partitioned into shards, each shard an independent
//     sequence lane with its own lock, lane-local gap-free sequence numbers
//     and its own hash chain (every record carries the previous record's
//     hash, so any retroactive edit breaks the chain);
//   - signing moves off the hot path: a Checkpoint covers the contiguous
//     prefix of every shard with ONE signature ("either periodically or
//     upon request", §3.3/§3.5), and checkpoints themselves are
//     hash-chained so none can be dropped unnoticed;
//   - per-record eager signing stays available via LedgerOptions.EagerSign
//     as the differential-testing baseline (the PR 2 behaviour, minus the
//     global lock).
//
// verify.go replays a serialised ledger offline against the attested key.
package accounting

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"acctee/internal/affinity"
	"acctee/internal/fault"
	"acctee/internal/sgx"
)

// Record is one chained ledger entry: a usage log bound to its shard and to
// the previous record in the shard's chain.
type Record struct {
	// Shard is the sequence lane this record belongs to.
	Shard uint32 `json:"shard"`
	// Log is the usage record; Log.Sequence is the lane-local, gap-free
	// sequence number (0, 1, 2, … per shard).
	Log UsageLog `json:"log"`
	// PrevHash chains to the previous record of the same shard (zero for
	// the first record of a lane).
	PrevHash [32]byte `json:"prevHash"`
	// Hash is SHA-256 over Marshal() — the lane's new chain head.
	Hash [32]byte `json:"hash"`
	// Signature is a per-record enclave signature over Marshal(), set only
	// under LedgerOptions.EagerSign.
	Signature []byte `json:"signature,omitempty"`
}

// recordMarshalSize is the exact byte length of a marshalled Record body.
const recordMarshalSize = 4 + 32 + MarshalSize

// Marshal serialises the signed/hashed portion of a record: shard id, the
// previous chain hash, and the usage log.
func (r *Record) Marshal() []byte {
	return r.appendMarshal(make([]byte, 0, recordMarshalSize))
}

// appendMarshal appends the marshalled record to buf — the allocation-free
// form the append hot path uses with a per-lane scratch buffer.
func (r *Record) appendMarshal(buf []byte) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], r.Shard)
	buf = append(buf, b[:]...)
	buf = append(buf, r.PrevHash[:]...)
	return r.Log.AppendMarshal(buf)
}

// ComputeHash recomputes the record's chain hash from its contents.
func (r *Record) ComputeHash() [32]byte {
	var b [recordMarshalSize]byte // stays on the stack: a verifier calls this per record
	return sha256.Sum256(r.appendMarshal(b[:0]))
}

// Receipt is what a caller holds after appending a record: enough to locate
// the record and to later check it is covered by a signed checkpoint.
type Receipt struct {
	Shard uint32 `json:"shard"`
	// Sequence is the lane-local sequence number.
	Sequence uint64 `json:"sequence"`
	// ChainHead is the appended record's hash — the shard's chain head at
	// append time.
	ChainHead [32]byte `json:"chainHead"`
}

// ShardHead is one shard's covered state inside a checkpoint: the first
// Count records of the shard, whose chain head is Head.
type ShardHead struct {
	Shard uint32 `json:"shard"`
	// Count is the number of records covered (sequence numbers 0..Count-1).
	Count uint64 `json:"count"`
	// Head is the chain head after Count records (zero when Count is 0).
	Head [32]byte `json:"head"`
}

// Checkpoint covers a contiguous prefix of every shard with a single
// signature: per-shard chain heads in ascending shard order (the
// deterministic merge order) plus totals aggregated over all covered
// records. Checkpoints are themselves hash-chained via PrevHash.
type Checkpoint struct {
	// Sequence numbers checkpoints (0, 1, 2, …).
	Sequence uint64 `json:"sequence"`
	// PrevHash chains to the previous checkpoint (zero for the first).
	PrevHash [32]byte `json:"prevHash"`
	// Heads lists every shard's covered prefix, ascending by shard id.
	Heads []ShardHead `json:"heads"`
	// Totals aggregates the covered records deterministically: sums for
	// counters and integrals, max for peak memory, Sequence = covered
	// record count. WorkloadHash and Policy are zero (records carry them).
	Totals UsageLog `json:"totals"`
}

// Marshal serialises the checkpoint for signing and chaining.
func (c *Checkpoint) Marshal() []byte {
	buf := make([]byte, 0, 8+32+8+len(c.Heads)*(4+8+32)+MarshalSize)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], c.Sequence)
	buf = append(buf, b[:]...)
	buf = append(buf, c.PrevHash[:]...)
	binary.LittleEndian.PutUint64(b[:], uint64(len(c.Heads)))
	buf = append(buf, b[:]...)
	for _, h := range c.Heads {
		binary.LittleEndian.PutUint32(b[:4], h.Shard)
		buf = append(buf, b[:4]...)
		binary.LittleEndian.PutUint64(b[:], h.Count)
		buf = append(buf, b[:]...)
		buf = append(buf, h.Head[:]...)
	}
	return c.Totals.AppendMarshal(buf)
}

// Hash is the checkpoint's chain hash.
func (c *Checkpoint) Hash() [32]byte { return sha256.Sum256(c.Marshal()) }

// Covered returns the total number of records the checkpoint covers.
func (c *Checkpoint) Covered() uint64 {
	var n uint64
	for _, h := range c.Heads {
		n += h.Count
	}
	return n
}

// SignedCheckpoint is a checkpoint signed by the accounting enclave; after
// attestation binds the key to the measurement, one signature vouches for
// every record the checkpoint covers.
type SignedCheckpoint struct {
	Checkpoint  Checkpoint      `json:"checkpoint"`
	Measurement sgx.Measurement `json:"measurement"`
	Signature   []byte          `json:"signature"`
}

// ErrBadCheckpointSignature indicates a forged or corrupted checkpoint.
var ErrBadCheckpointSignature = errors.New("accounting: checkpoint signature invalid")

// clone deep-copies the checkpoint's slices, so handing it to a caller can
// never alias ledger-internal state (a mutated Heads entry or signature
// byte must corrupt only the caller's copy).
func (sc SignedCheckpoint) clone() SignedCheckpoint {
	sc.Checkpoint.Heads = append([]ShardHead(nil), sc.Checkpoint.Heads...)
	sc.Signature = append([]byte(nil), sc.Signature...)
	return sc
}

// SignCheckpoint signs a checkpoint with the enclave's key.
func SignCheckpoint(e *sgx.Enclave, c Checkpoint) (SignedCheckpoint, error) {
	sig, err := e.Sign(c.Marshal())
	if err != nil {
		return SignedCheckpoint{}, fmt.Errorf("accounting: sign checkpoint: %w", err)
	}
	return SignedCheckpoint{Checkpoint: c, Measurement: e.Measurement(), Signature: sig}, nil
}

// VerifyCheckpointSig checks a signed checkpoint against the attested key
// and expected measurement.
func VerifyCheckpointSig(sc SignedCheckpoint, pub *ecdsa.PublicKey, expected sgx.Measurement) error {
	if sc.Measurement != expected {
		return sgx.ErrWrongMeasurement
	}
	if !sgx.VerifyBy(pub, sc.Checkpoint.Marshal(), sc.Signature) {
		return ErrBadCheckpointSignature
	}
	return nil
}

// ErrNoRecordSignature marks a record without a per-record signature: the
// ledger ran in the default batched mode, where records are vouched for by
// checkpoints (VerifyCheckpointSig / VerifyDump), not individually.
var ErrNoRecordSignature = errors.New("accounting: record carries no per-record signature (batched mode; verify via a checkpoint)")

// VerifyRecordSig checks a record's eager per-record signature and that its
// stored hash matches its contents. Records from a batched-mode ledger
// carry no signature and are rejected with ErrNoRecordSignature — their
// authenticity comes from a covering checkpoint instead.
func VerifyRecordSig(r Record, pub *ecdsa.PublicKey) error {
	m := r.Marshal() // the hash and the signature cover the same bytes
	if r.Hash != sha256.Sum256(m) {
		return fmt.Errorf("accounting: record %d/%d hash mismatch", r.Shard, r.Log.Sequence)
	}
	if len(r.Signature) == 0 {
		return ErrNoRecordSignature
	}
	if !sgx.VerifyBy(pub, m, r.Signature) {
		return ErrBadLogSignature
	}
	return nil
}

// RetentionPolicy bounds how much of the ledger stays resident in memory.
// The zero value is the unbounded PR 3 behaviour: everything resident,
// nothing spilled, compaction only on explicit request.
type RetentionPolicy struct {
	// MaxResidentRecords, when positive, triggers a compaction (checkpoint
	// + seal) whenever the resident record count exceeds it. Immediately
	// after a compaction at most one partially covered segment per shard
	// remains resident, so memory stays bounded by roughly
	// MaxResidentRecords + Shards·SegmentRecords regardless of how many
	// records the ledger has ever chained.
	MaxResidentRecords int
	// SegmentRecords is the fixed in-memory segment size. Zero picks
	// MaxResidentRecords/(2·Shards) clamped to [64, 4096] (1024 when
	// MaxResidentRecords is zero too).
	SegmentRecords int
	// SpillDir, when set, spills sealed segments to append-only per-shard
	// segment files under this directory instead of dropping them: records
	// stay receipt-addressable, full from-genesis dumps stream from disk,
	// and a crashed ledger reopens from the directory with its chain state
	// carried forward (see NewLedger).
	SpillDir string
	// CheckpointKeepEvery, when > 1, prunes the checkpoint chain after
	// each compaction: below the compaction anchor only every K-th
	// checkpoint (sequence divisible by K) survives, in memory and in the
	// spill directory's persisted log. Everything at or above the anchor
	// is always kept, so recovery and truncated dumps still verify
	// end-to-end — the anchor's signature vouches for the pruned span,
	// and the retained skip-list of K-th checkpoints keeps coarse
	// history. 0 or 1 keeps every checkpoint (the PR 5 behaviour).
	CheckpointKeepEvery int
}

// segmentRecords resolves the effective segment size.
func (r RetentionPolicy) segmentRecords(shards int) int {
	if r.SegmentRecords > 0 {
		return r.SegmentRecords
	}
	if r.MaxResidentRecords <= 0 {
		return 1024
	}
	seg := r.MaxResidentRecords / (2 * shards)
	if seg < 64 {
		seg = 64
	}
	if seg > 4096 {
		seg = 4096
	}
	return seg
}

// LedgerOptions configure a ledger.
type LedgerOptions struct {
	// Shards is the number of independent sequence lanes (default: one per
	// CPU, capped at 16). Concurrent appends to different lanes never
	// contend on a lock.
	Shards int
	// EagerSign signs every record at append time — the per-record
	// signing baseline kept for differential tests. Checkpoints still work.
	EagerSign bool
	// CheckpointInterval, when positive, starts a goroutine that signs a
	// checkpoint periodically (the paper's "periodically"; Checkpoint()
	// remains the "upon request" path). Close() stops it.
	CheckpointInterval time.Duration
	// Retention bounds resident memory; see RetentionPolicy. Checkpoints
	// make covered prefixes independently verifiable, so sealed records
	// can leave memory without weakening the trust guarantee.
	Retention RetentionPolicy
	// Faults, when non-nil, interposes the fault-injection harness
	// (internal/fault) on the record store's write/sync/truncate calls.
	// Chaos tests only; leave nil in production. It has no effect unless
	// Retention.SpillDir gives the store a directory.
	Faults *fault.Injector
}

// withDefaults fills zero values.
func (o LedgerOptions) withDefaults() LedgerOptions {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards > 16 {
			o.Shards = 16
		}
	}
	return o
}

// lane is one shard's chain state: its own lock, gap-free sequence, chain
// head and running totals. The records themselves live in the store; the
// lane state carries forward when sealed records leave memory, so the live
// chain never breaks. Appends to different lanes proceed fully in
// parallel; the trailing pad keeps neighbouring lanes (which live in one
// contiguous slice for locality) off each other's cache lines, so one
// lane's lock traffic never invalidates another's.
type lane struct {
	mu      sync.Mutex
	head    [32]byte
	next    uint64
	totals  UsageLog // aggregated as in Checkpoint.Totals
	scratch []byte   // marshal/hash scratch, reused across appends (guarded by mu)
	_       [64]byte // cache-line pad against false sharing between lanes
}

// Ledger is the sharded, hash-chained usage ledger.
type Ledger struct {
	enclave *sgx.Enclave
	opts    LedgerOptions
	lanes   []lane
	store   *RecordStore
	// picker assigns appends to lanes with processor affinity: sticky
	// assignments with periodic round-robin rebalance, instead of a shared
	// per-append atomic counter (a cache-line ping-pong at high core
	// counts that also sprayed each goroutine's appends across every
	// lane's lock in turn).
	picker *affinity.Picker

	cpMu        sync.Mutex
	checkpoints []SignedCheckpoint
	anchor      *SignedCheckpoint // last compaction (or recovery) anchor
	cpFailures  uint64
	cpLastErr   error

	// compactMu serialises compactions against each other and against dump
	// snapshots; the append-path trigger TryLocks it, making auto-
	// compaction single-flight and non-blocking.
	compactMu sync.Mutex
	// recoveredDroppedCheckpoints counts persisted checkpoints a crash
	// recovery had to discard (their covered tail was lost with the
	// resident records).
	recoveredDroppedCheckpoints int

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewLedger creates a ledger signing with the given enclave key.
//
// When Retention.SpillDir names a directory that already holds a spill
// from a previous ledger with the same enclave identity, the ledger
// *recovers*: per-shard heads, sequences and totals carry forward from
// the spilled segments, the persisted checkpoint chain is reloaded, and
// the last checkpoint the spill fully contains becomes the anchor —
// records that were only resident at crash time are gone, but everything
// the anchor's signature vouches for is intact and verifiable.
func NewLedger(e *sgx.Enclave, opts LedgerOptions) (*Ledger, error) {
	opts = opts.withDefaults()
	l := &Ledger{
		enclave: e,
		opts:    opts,
		lanes:   make([]lane, opts.Shards),
		picker:  affinity.NewPicker(opts.Shards, 0),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		store:   newStore(opts.Shards, opts.Retention.segmentRecords(opts.Shards)),
	}
	var recovered *recoveredState
	if dir := opts.Retention.SpillDir; dir != "" {
		pubDER, err := MarshalPublicKey(e.PublicKey())
		if err != nil {
			return nil, err
		}
		recovered, err = l.store.openSpill(dir, e.Measurement(), pubDER,
			opts.Retention.CheckpointKeepEvery > 1, opts.Faults)
		if err != nil {
			return nil, err
		}
	}
	if recovered != nil {
		for i := range l.lanes {
			l.lanes[i].next = recovered.Heads[i].Count
			l.lanes[i].head = recovered.Heads[i].Head
			l.lanes[i].totals = recovered.Totals[i]
		}
		l.checkpoints = recovered.Checkpoints
		if n := len(l.checkpoints); n > 0 {
			a := l.checkpoints[n-1].clone()
			l.anchor = &a
		}
		l.recoveredDroppedCheckpoints = recovered.DroppedCheckpoints
	}
	if opts.CheckpointInterval > 0 {
		go l.checkpointLoop(opts.CheckpointInterval)
	} else {
		close(l.done)
	}
	return l, nil
}

// Recovered reports post-recovery diagnostics: the number of persisted
// checkpoints discarded because a crash lost the resident records they
// covered. Zero for a fresh ledger.
func (l *Ledger) Recovered() (droppedCheckpoints int) {
	return l.recoveredDroppedCheckpoints
}

// checkpointLoop signs checkpoints periodically until Close. Failures are
// recorded (see CheckpointFailures) — silent degradation of the trust
// guarantee would otherwise be invisible to the operator.
func (l *Ledger) checkpointLoop(every time.Duration) {
	defer close(l.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if _, err := l.Checkpoint(); err != nil {
				l.cpMu.Lock()
				l.cpFailures++
				l.cpLastErr = err
				l.cpMu.Unlock()
			}
		}
	}
}

// CheckpointFailures reports how many periodic checkpoint attempts failed
// and the most recent error — a batched-mode deployment should alarm on a
// non-zero count, since records appended after the last good checkpoint
// are not yet vouched for by any signature.
func (l *Ledger) CheckpointFailures() (uint64, error) {
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	return l.cpFailures, l.cpLastErr
}

// Close stops the periodic checkpoint goroutine (if any) and closes the
// record store's spill files. The ledger stays readable for resident
// records; further appends are not prevented but can no longer spill.
// Close is idempotent.
func (l *Ledger) Close() {
	l.stopOnce.Do(func() {
		close(l.stop)
		<-l.done
		_ = l.store.Close()
	})
	<-l.done
}

// Options returns the ledger's configuration (after defaulting).
func (l *Ledger) Options() LedgerOptions { return l.opts }

// Shards returns the number of sequence lanes.
func (l *Ledger) Shards() int { return len(l.lanes) }

// Store exposes the ledger's record store.
func (l *Ledger) Store() *RecordStore { return l.store }

// Resident returns how many records are currently held in memory.
func (l *Ledger) Resident() int { return l.store.Resident() }

// Degraded reports whether the record store has given up on durable
// spilling after a permanent disk fault, together with the first error
// that forced it. A degraded ledger keeps appending, chaining, and
// checkpointing in memory; only durability is lost.
func (l *Ledger) Degraded() (bool, error) { return l.store.Degraded() }

// SpilledRecords returns how many records have been sealed out of the
// resident tail into the spill pipeline across all shards (0 without a
// spill directory). Sealed frames become durable asynchronously; Anchor or
// WriteDump act as drain barriers when durability matters.
func (l *Ledger) SpilledRecords() uint64 {
	var n uint64
	for i := range l.lanes {
		n += l.store.Spilled(uint32(i))
	}
	return n
}

// aggregate folds one covered log into running totals using the
// deterministic checkpoint aggregation rule.
func aggregate(t *UsageLog, u *UsageLog) {
	t.WeightedInstructions += u.WeightedInstructions
	if u.PeakMemoryBytes > t.PeakMemoryBytes {
		t.PeakMemoryBytes = u.PeakMemoryBytes
	}
	t.MemoryIntegral += u.MemoryIntegral
	t.IOBytesIn += u.IOBytesIn
	t.IOBytesOut += u.IOBytesOut
	t.SimulatedCycles += u.SimulatedCycles
	t.Sequence++ // covered record count
}

// merge folds one lane's totals into cross-shard totals.
func merge(t *UsageLog, lt *UsageLog) {
	t.WeightedInstructions += lt.WeightedInstructions
	if lt.PeakMemoryBytes > t.PeakMemoryBytes {
		t.PeakMemoryBytes = lt.PeakMemoryBytes
	}
	t.MemoryIntegral += lt.MemoryIntegral
	t.IOBytesIn += lt.IOBytesIn
	t.IOBytesOut += lt.IOBytesOut
	t.SimulatedCycles += lt.SimulatedCycles
	t.Sequence += lt.Sequence
}

// Append chains a usage log onto an affinity-chosen shard: the calling
// goroutine sticks to one lane for a window of appends (so its records
// serialise on a lock that stays hot in its own core's cache) and
// rebalances round-robin between windows, keeping lanes evenly loaded
// over time. Lane choice never affects what is accounted — totals and
// verification are shard-order deterministic regardless. The log's
// Sequence field is overwritten with the lane-local sequence number.
func (l *Ledger) Append(log UsageLog) (Receipt, Record, error) {
	return l.AppendShard(l.picker.Pick(), log)
}

// maybeCompact runs one bounded-retention compaction if the resident
// record count exceeds the configured budget. The TryLock makes triggers
// single-flight AND non-blocking: concurrent appends that also observe
// the budget exceeded return immediately while one compaction runs, and a
// trigger that would have to wait behind a dump snapshot is skipped
// entirely — the budget is still exceeded on the next append, so the
// trigger re-fires once the lock frees. No signature is paid before the
// lock is held. Failures are recorded like periodic-checkpoint failures
// (CheckpointFailures) rather than failing the append that happened to
// trip the threshold.
func (l *Ledger) maybeCompact() {
	max := l.opts.Retention.MaxResidentRecords
	if max <= 0 || l.store.Resident() <= max {
		return
	}
	if !l.compactMu.TryLock() {
		return
	}
	defer l.compactMu.Unlock()
	sc, err := l.Checkpoint()
	if err == nil {
		_, err = l.sealLocked(sc)
	}
	if err != nil {
		l.cpMu.Lock()
		l.cpFailures++
		l.cpLastErr = err
		l.cpMu.Unlock()
	}
}

// AppendShard chains a usage log onto an explicit shard lane. Only the
// lane's own lock is taken. Under EagerSign the ECDSA signature is computed
// while holding it — that serialises the lane exactly like the PR 2
// per-record baseline this mode reproduces, and guarantees a concurrent
// Dump or Record never observes an eager record without its signature.
// Other lanes keep appending in parallel either way.
func (l *Ledger) AppendShard(shard uint32, log UsageLog) (Receipt, Record, error) {
	if int(shard) >= len(l.lanes) {
		return Receipt{}, Record{}, fmt.Errorf("accounting: shard %d out of range (%d lanes)", shard, len(l.lanes))
	}
	ln := &l.lanes[shard]
	ln.mu.Lock()
	log.Sequence = ln.next
	rec := Record{Shard: shard, Log: log, PrevHash: ln.head}
	// Marshal once into the lane's scratch buffer (guarded by ln.mu) and
	// hash/sign from it — the eager path previously marshalled twice, and
	// every append allocated a fresh buffer.
	ln.scratch = rec.appendMarshal(ln.scratch[:0])
	rec.Hash = sha256.Sum256(ln.scratch)
	if l.opts.EagerSign {
		sig, err := l.enclave.Sign(ln.scratch)
		if err != nil {
			ln.mu.Unlock()
			return Receipt{}, Record{}, fmt.Errorf("accounting: eager sign: %w", err)
		}
		rec.Signature = sig
	}
	if err := l.store.Append(rec); err != nil {
		// The lane state is only advanced after the store accepted the
		// record, so a failed append leaves the chain untouched.
		ln.mu.Unlock()
		return Receipt{}, Record{}, err
	}
	ln.head = rec.Hash
	ln.next++
	aggregate(&ln.totals, &log)
	ln.mu.Unlock()
	l.maybeCompact()
	return Receipt{Shard: shard, Sequence: rec.Log.Sequence, ChainHead: rec.Hash}, rec, nil
}

// Record returns a reachable record by shard and lane-local sequence —
// resident in memory, or read back from a spilled segment when the ledger
// has a spill directory.
func (l *Ledger) Record(shard uint32, seq uint64) (Record, bool) {
	if int(shard) >= len(l.lanes) {
		return Record{}, false
	}
	return l.store.Get(shard, seq)
}

// Totals returns the live (unsigned) aggregate over all appended records,
// merged across shards in ascending shard order.
func (l *Ledger) Totals() UsageLog {
	var t UsageLog
	for i := range l.lanes {
		ln := &l.lanes[i]
		ln.mu.Lock()
		lt := ln.totals
		ln.mu.Unlock()
		merge(&t, &lt)
	}
	return t
}

// Checkpoint signs the current state of every lane with one signature (the
// paper's "upon request" log; the periodic goroutine calls it too). The
// covered prefix of each lane is captured under that lane's lock; lanes
// keep accepting appends while the signature is computed. If no lane
// advanced since the last checkpoint, that checkpoint is returned instead
// of signing a duplicate — an idle gateway with periodic checkpointing
// must not grow its checkpoint chain with zero-information entries.
func (l *Ledger) Checkpoint() (SignedCheckpoint, error) {
	l.cpMu.Lock()
	defer l.cpMu.Unlock()

	cp := Checkpoint{
		Heads: make([]ShardHead, len(l.lanes)),
	}
	for i := range l.lanes {
		ln := &l.lanes[i]
		ln.mu.Lock()
		cp.Heads[i] = ShardHead{Shard: uint32(i), Count: ln.next, Head: ln.head}
		lt := ln.totals
		ln.mu.Unlock()
		merge(&cp.Totals, &lt)
	}
	if n := len(l.checkpoints); n > 0 {
		last := &l.checkpoints[n-1]
		same := true
		for i := range cp.Heads {
			if cp.Heads[i] != last.Checkpoint.Heads[i] {
				same = false
				break
			}
		}
		if same {
			return last.clone(), nil
		}
		// A recovered ledger continues the persisted chain, so the next
		// sequence comes from the last checkpoint, not the in-memory count.
		cp.Sequence = last.Checkpoint.Sequence + 1
		cp.PrevHash = last.Checkpoint.Hash()
	}
	sc, err := SignCheckpoint(l.enclave, cp)
	if err != nil {
		return SignedCheckpoint{}, err
	}
	// Persist before publishing: recovery must never see spilled frames
	// anchored by a checkpoint it cannot reload. A persistence failure
	// fails the request — callers alarm exactly as on a signing failure.
	if err := l.store.PersistCheckpoint(&sc); err != nil {
		return SignedCheckpoint{}, fmt.Errorf("accounting: persist checkpoint: %w", err)
	}
	l.checkpoints = append(l.checkpoints, sc)
	return sc.clone(), nil
}

// CompactResult summarises one compaction.
type CompactResult struct {
	// Checkpoint is the anchor the compaction sealed to: the signed state
	// that now vouches for every released record.
	Checkpoint SignedCheckpoint `json:"checkpoint"`
	// Released is how many records left memory.
	Released int `json:"released"`
	// Resident is the post-compaction resident record count.
	Resident int `json:"resident"`
	// SpilledRecords is the cumulative durably spilled record count.
	SpilledRecords uint64 `json:"spilledRecords"`
}

// Compact bounds retention: it signs a checkpoint covering the current
// state of every lane (reusing the latest one when nothing advanced) and
// seals everything the checkpoint covers — sealed segments are spilled to
// the store's segment files or, without a live spill directory, dropped.
// The checkpoint becomes the ledger's truncation anchor: truncated dumps
// start at its per-shard counts and chain from its heads.
func (l *Ledger) Compact() (CompactResult, error) {
	sc, err := l.Checkpoint()
	if err != nil {
		return CompactResult{}, err
	}
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	return l.sealLocked(sc)
}

// sealLocked seals everything sc covers and advances the anchor. The
// caller holds compactMu.
func (l *Ledger) sealLocked(sc SignedCheckpoint) (CompactResult, error) {
	released, err := l.store.Seal(&sc)
	if err != nil {
		return CompactResult{}, fmt.Errorf("accounting: seal: %w", err)
	}
	l.cpMu.Lock()
	if l.anchor == nil || sc.Checkpoint.Covered() >= l.anchor.Checkpoint.Covered() {
		a := sc.clone()
		l.anchor = &a
	}
	l.cpMu.Unlock()
	if l.opts.Retention.CheckpointKeepEvery > 1 && l.prunableCheckpoints() >= pruneDrainMin {
		// Prune only once the anchor's frames are durable: dropping a
		// checkpoint below the anchor while the anchor's own seal is
		// still in flight could leave a crash with durable frames whose
		// only anchoring checkpoint was just pruned. The drain lands on
		// the compaction path — backpressure never touches Append — and
		// is amortised: a drain is a durability barrier (it forces the
		// deferred sync point), so pruning waits until enough checkpoints
		// are prunable to be worth one.
		if err := l.store.Drain(); err == nil {
			l.cpMu.Lock()
			l.pruneCheckpointsLocked()
			l.cpMu.Unlock()
		}
	}
	return CompactResult{
		Checkpoint:     sc,
		Released:       released,
		Resident:       l.store.Resident(),
		SpilledRecords: l.SpilledRecords(),
	}, nil
}

// pruneDrainMin amortises checkpoint pruning across compactions: each
// prune needs the spill pipeline drained first, so it waits until at
// least this many checkpoints would actually be dropped.
const pruneDrainMin = 64

// prunableCheckpoints counts the checkpoints a prune would drop right
// now (the complement of pruneCheckpointsLocked's retain predicate).
func (l *Ledger) prunableCheckpoints() int {
	k := uint64(l.opts.Retention.CheckpointKeepEvery)
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	if k <= 1 || l.anchor == nil || len(l.checkpoints) == 0 {
		return 0
	}
	anchorSeq := l.anchor.Checkpoint.Sequence
	latest := l.checkpoints[len(l.checkpoints)-1].Checkpoint.Sequence
	n := 0
	for i := range l.checkpoints {
		seq := l.checkpoints[i].Checkpoint.Sequence
		if seq%k != 0 && seq < anchorSeq && seq != latest {
			n++
		}
	}
	return n
}

// pruneCheckpointsLocked drops superseded checkpoints per
// Retention.CheckpointKeepEvery: below the compaction anchor only every
// K-th checkpoint and the latest survive; everything at or above the
// anchor is untouched (any of it may anchor recovery or a truncated
// dump). The surviving set is mirrored into the store's persisted log.
// Caller holds cpMu; the store must be drained first (see sealLocked).
func (l *Ledger) pruneCheckpointsLocked() {
	k := uint64(l.opts.Retention.CheckpointKeepEvery)
	if k <= 1 || l.anchor == nil || len(l.checkpoints) == 0 {
		return
	}
	anchorSeq := l.anchor.Checkpoint.Sequence
	latest := l.checkpoints[len(l.checkpoints)-1].Checkpoint.Sequence
	retained := l.checkpoints[:0]
	pruned := false
	for i := range l.checkpoints {
		seq := l.checkpoints[i].Checkpoint.Sequence
		if seq%k == 0 || seq >= anchorSeq || seq == latest {
			retained = append(retained, l.checkpoints[i])
		} else {
			pruned = true
		}
	}
	if !pruned {
		return
	}
	l.checkpoints = retained
	if err := l.store.pruneCheckpoints(retained); err != nil {
		l.cpFailures++
		l.cpLastErr = err
	}
}

// Anchor returns the ledger's current truncation anchor: the checkpoint
// the last compaction sealed to (records below it may no longer be
// resident). ok is false while no compaction has happened. Anchor drains
// the spill pipeline first: when it returns, everything the anchor
// vouches for is durable — callers (and tests) use it as the barrier
// before inspecting or verifying the spill directory.
func (l *Ledger) Anchor() (SignedCheckpoint, bool) {
	_ = l.store.Drain()
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	if l.anchor == nil {
		return SignedCheckpoint{}, false
	}
	return l.anchor.clone(), true
}

// LatestCheckpoint returns the most recent signed checkpoint.
func (l *Ledger) LatestCheckpoint() (SignedCheckpoint, bool) {
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	if len(l.checkpoints) == 0 {
		return SignedCheckpoint{}, false
	}
	return l.checkpoints[len(l.checkpoints)-1].clone(), true
}

// DumpOptions select what a dump contains.
type DumpOptions struct {
	// Truncated anchors the dump at the ledger's compaction anchor: the
	// anchor checkpoint travels in the dump, records it covers are
	// omitted, and each shard's chain starts at the anchor's counts,
	// chaining from the anchor's carried-forward heads. Without an anchor
	// (no compaction yet) the dump is the full from-genesis one.
	Truncated bool
	// Binary once chose between a JSON stream and the binary container.
	//
	// Deprecated: accepted and ignored — WriteDump always writes the
	// container. The field survives only because the frozen benchmark
	// (benchmark/ledger.go) still sets it; nothing else may.
	Binary bool
}

// dumpCapture is a consistent snapshot of what a dump will contain, taken
// under compactMu so no compaction can move the anchor or release records
// between the header and the record stream.
type dumpCapture struct {
	anchor *SignedCheckpoint
	cps    []SignedCheckpoint
	starts []uint64 // per-shard first dumped sequence
	ends   []uint64 // per-shard exclusive end (lane next at capture)
}

// capture snapshots the dump contents. Checkpoints are snapshotted before
// lane ends; records only ever append, so every captured checkpoint covers
// a prefix of the captured range and the dump always verifies — appends
// landing in between show up as not-yet-checkpointed tail records.
//
// The caller holds compactMu across capture AND the store.Snapshot calls
// that pin the captured range (a compaction would otherwise release
// records between the two); once the snapshots exist the lock is no
// longer needed — replay is lock-free.
func (l *Ledger) capture(opts DumpOptions) dumpCapture {
	c := dumpCapture{
		starts: make([]uint64, len(l.lanes)),
		ends:   make([]uint64, len(l.lanes)),
	}
	l.cpMu.Lock()
	anchored := opts.Truncated && l.anchor != nil
	if !anchored && l.anchor != nil && !l.store.Persistent() {
		// The store has dropped sealed records: a from-genesis dump is no
		// longer possible, so every dump is anchored.
		anchored = true
	}
	if anchored {
		a := l.anchor.clone()
		c.anchor = &a
		for i := range l.checkpoints {
			if l.checkpoints[i].Checkpoint.Sequence > a.Checkpoint.Sequence {
				c.cps = append(c.cps, l.checkpoints[i].clone())
			}
		}
		for i := range c.starts {
			c.starts[i] = a.Checkpoint.Heads[i].Count
		}
	} else {
		for i := range l.checkpoints {
			c.cps = append(c.cps, l.checkpoints[i].clone())
		}
	}
	l.cpMu.Unlock()
	for i := range l.lanes {
		ln := &l.lanes[i]
		ln.mu.Lock()
		c.ends[i] = ln.next
		ln.mu.Unlock()
	}
	return c
}

// Dump serialises the ledger for offline verification: the dumped records
// in deterministic merge order (ascending shard, then lane-local
// sequence), the checkpoints covering them, and the attested identity
// (public key and measurement) verification runs against. With a spill
// directory the dump is the full from-genesis ledger (spilled segments are
// read back); a ledger that has dropped what it sealed produces a
// truncated dump anchored at the compaction checkpoint. Dump materialises
// every record — use WriteDump to stream a large ledger in O(segment) memory.
func (l *Ledger) Dump() (*Dump, error) {
	return l.dump(DumpOptions{})
}

// DumpTruncated serialises the bounded live view: the tail above the
// compaction anchor, with the anchor vouching for everything below it.
func (l *Ledger) DumpTruncated() (*Dump, error) {
	return l.dump(DumpOptions{Truncated: true})
}

// snapshotDump captures the dump header and pins the record range, all
// under compactMu — the only phase that needs it. Replaying the returned
// snapshots is lock-free, so a slow dump consumer can never stall
// compaction (and with it, the retention bound).
func (l *Ledger) snapshotDump(opts DumpOptions) (dumpCapture, []func(func(*Record) error) error, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	// Drain the spill pipeline so the dump only ever reflects seals that
	// are durable — a verifier handed the dump and the spill directory
	// must find the same horizon in both. compactMu is already held, so
	// no new seal can start mid-drain.
	if err := l.store.Drain(); err != nil {
		return dumpCapture{}, nil, fmt.Errorf("accounting: drain spill writer: %w", err)
	}
	c := l.capture(opts)
	snaps := make([]func(func(*Record) error) error, len(l.lanes))
	for i := range l.lanes {
		s, err := l.store.Snapshot(uint32(i), c.starts[i], c.ends[i])
		if err != nil {
			return dumpCapture{}, nil, err
		}
		snaps[i] = s
	}
	return c, snaps, nil
}

// dumpHeader is the record-less Dump of a capture: what Dump() fills with
// records and WriteDump serialises as the container's header. Records is
// empty but non-nil so the header always spells out "records":[].
func (l *Ledger) dumpHeader(c dumpCapture) (*Dump, error) {
	pub, err := MarshalPublicKey(l.enclave.PublicKey())
	if err != nil {
		return nil, err
	}
	return &Dump{
		Format:      DumpFormatV3,
		Shards:      len(l.lanes),
		Measurement: l.enclave.Measurement(),
		PublicKey:   pub,
		Anchor:      c.anchor,
		Checkpoints: c.cps,
		Pruned:      capturedPruned(c.anchor, c.cps),
		Records:     []Record{},
	}, nil
}

func (l *Ledger) dump(opts DumpOptions) (*Dump, error) {
	c, snaps, err := l.snapshotDump(opts)
	if err != nil {
		return nil, err
	}
	d, err := l.dumpHeader(c)
	if err != nil {
		return nil, err
	}
	for i := range snaps {
		err := snaps[i](func(r *Record) error {
			rec := *r
			if rec.Signature != nil {
				// Detach eager signatures from store-internal storage.
				rec.Signature = append([]byte(nil), rec.Signature...)
			}
			d.Records = append(d.Records, rec)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// WriteDump streams the dump container to w in O(segment + resident)
// memory: the header, anchor and checkpoints first, then records shard by
// shard — the resident suffix from a point-in-time copy, sealed segments
// straight from the spill files one frame at a time. The snapshot phase
// is the only part that takes ledger locks: a consumer draining the
// stream slowly (a curl of GET /ledger over a bad link) never blocks
// appends or compaction.
func (l *Ledger) WriteDump(w io.Writer, opts DumpOptions) error {
	c, snaps, err := l.snapshotDump(opts)
	if err != nil {
		return err
	}
	head, err := l.dumpHeader(c)
	if err != nil {
		return err
	}
	return writeDumpContainer(w, head, snaps)
}

// capturedPruned reports whether the captured checkpoint sequence has
// gaps — pruning removed entries — which the dump header must declare so
// the verifier knows to tolerate exactly those gaps (and no others).
func capturedPruned(anchor *SignedCheckpoint, cps []SignedCheckpoint) bool {
	prev, have := uint64(0), false
	if anchor != nil {
		prev, have = anchor.Checkpoint.Sequence, true
	}
	for i := range cps {
		seq := cps[i].Checkpoint.Sequence
		if have {
			if seq != prev+1 {
				return true
			}
		} else if i == 0 && seq != 0 {
			return true
		}
		prev, have = seq, true
	}
	return false
}
