// Segmented record store: bounded retention for the hash-chained ledger.
//
// PR 3's ledger kept every record in memory forever — fine for evaluation,
// fatal for a gateway serving millions of users. This file bounds it the
// way shielded middleboxes keep long-lived secure state small: the enclave
// retains only the unsigned tail, and signed checkpoints anchor everything
// older.
//
// Records accumulate in fixed-size in-memory segments per shard. Once a
// checkpoint covers a segment, the segment is *sealed*: its records are
// either dropped outright (memory store) or spilled to an append-only
// per-shard segment file (file store) before leaving memory. The shard's
// chain head and next sequence number carry forward, so the live chain
// never breaks — a record appended after a seal still chains to the hash
// of a record that is no longer resident.
//
// Spill layout (file store, one directory per ledger):
//
//	MANIFEST.json    store identity: format, shards, measurement, PKIX key
//	shard-NNNN.seg   append-only; one frame per seal, each frame a run of
//	                 records [base, base+count) with the running chain head
//	                 and shard totals after the frame, length-prefixed
//	                 binary with a CRC-32C (codec.go owns the layout)
//	checkpoints.jsonl signed checkpoints, appended as they are signed; with
//	                 pruning enabled the chain may skip sequences (the
//	                 manifest's prunedCheckpoints flag says so)
//
// Spill I/O is asynchronous (PR 7): Seal builds and encodes the frame,
// publishes it on the shard's pending queue, and hands it to a per-shard
// writer goroutine through a bounded channel — backpressure blocks the
// compaction path, never Append. A pending frame holds the sealed range as
// slices of the resident segments it came from, not a copy: records are
// immutable once appended, so the slices stay what they were when the
// segment grows, takes more appends or leaves the resident list. Its wire
// encoding lives in a buffer drawn from a sync.Pool at the seal and handed
// back by the writer once the group commit has landed (or been given up),
// at which point the queue slot is cleared too: a drained store holds no
// reference to anything it spilled. The writer group-commits: it drains
// whatever frames are queued (up to spillGroupCommitMax) and lands the
// batch with one write. Durability is deferred to sync points — every
// spillSyncBytes of frame data, and always on Drain — where the
// checkpoint log fsyncs FIRST (so no durable frame can outrun the
// checkpoint that anchors it) and then the shard files. Pending
// (sealed-but-not-yet-durable) frames stay readable through Get/Snapshot;
// Drain blocks until the pipeline is empty, which is how Ledger.Close,
// WriteDump and Anchor guarantee dumps and verifier runs only ever observe
// fully spilled seals.
//
// Seals write frames up to exactly the sealing checkpoint's per-shard
// covered counts, so at rest the spilled prefix of every shard ends on a
// checkpoint boundary. Crash recovery (openFileStore on a non-empty
// directory) replays the frames structurally — sequence continuity,
// prev-hash linkage, head/totals consistency — and anchors the rebuilt
// state at the last persisted checkpoint whose coverage the spill actually
// contains, truncating any unanchored trailing frames or checkpoints a
// crash (possibly mid-group-commit) left behind. Byte-level integrity
// (recomputing every record hash against the checkpoint signature chain)
// is the verifier's job: VerifySpillDir / `acctee-verify -spill`.
package accounting

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acctee/internal/fault"
	"acctee/internal/sgx"
)

// RecordStore is the retention layer behind a Ledger: it owns the records
// themselves, while the ledger's lanes own the chain state (head hash, next
// sequence, running totals) that carries forward when records leave memory.
//
// Records of one shard arrive in strict sequence order (the lane lock
// serialises appends); implementations are safe for concurrent use across
// shards and for concurrent readers. Seals are serialised by the ledger's
// checkpoint lock.
type RecordStore interface {
	// Append stores a freshly chained record on its shard's open segment.
	Append(rec Record) error
	// Get returns the record at (shard, seq) if it is still reachable —
	// resident in memory, pending in the spill pipeline, or spilled to
	// disk for a file store.
	Get(shard uint32, seq uint64) (Record, bool)
	// Resident returns how many records are currently held in memory.
	Resident() int
	// Spilled returns how many records of the shard have been sealed out
	// of the resident tail into the spill pipeline (always 0 for a memory
	// store). Drain first if the count must also be durable.
	Spilled(shard uint32) uint64
	// Seal releases every record the checkpoint covers: the file store
	// first hands the not-yet-sealed covered prefix of each shard to its
	// async spill writer (the checkpoint becoming the new recovery anchor
	// once the frame lands), then both stores drop fully covered segments
	// from memory. It returns how many records left the resident tail.
	Seal(sc *SignedCheckpoint) (released int, err error)
	// PersistCheckpoint makes a signed checkpoint durable (no-op for the
	// memory store). The ledger calls it for every checkpoint it signs, so
	// recovery never has to bridge a gap in the checkpoint hash chain.
	PersistCheckpoint(sc *SignedCheckpoint) error
	// Snapshot pins the shard's reachable records with sequence in
	// [from, to) and returns a replay closure that streams them in order
	// WITHOUT holding store locks: a concurrent Seal may release the
	// records after the snapshot, and the closure must still replay the
	// pinned range (spilled frames are immutable in the append-only file;
	// pending frames and the resident suffix are copied at snapshot time).
	// The *Record handed to fn is valid for that call only — spilled
	// records are decoded into storage the next frame overwrites, and a
	// resident record's Signature is the store's own — so fn copies what
	// it keeps, signature bytes included.
	// Snapshot fails if [from, to) reaches below the earliest reachable
	// sequence.
	Snapshot(shard uint32, from, to uint64) (func(fn func(*Record) error) error, error)
	// Drain blocks until every seal handed to the spill pipeline has gone
	// through its group commit and forces the durability sync point (no-op
	// for the memory store). A degraded store drains trivially: its
	// pipeline is permanently idle.
	Drain() error
	// Persistent reports whether sealed records remain reachable (file
	// store) or are gone for good (memory store, degraded file store).
	Persistent() bool
	// Degraded reports whether the store gave up on durability after
	// exhausting write retries (the cause comes along), and keeps serving
	// from memory: appends, checkpoints and the hash chain stay live, but
	// newly sealed records are dropped instead of spilled. Always false
	// for the memory store.
	Degraded() (bool, error)
	// Close drains the spill pipeline and releases any spill files. The
	// store stays readable for resident records.
	Close() error
}

// segment is one fixed-size run of resident records.
type segment struct {
	base uint64 // sequence number of records[0]
	recs []Record
}

// pendingFrame is a sealed frame travelling through the async spill
// pipeline: built and encoded under the shard lock at seal time, written
// and committed by the shard's writer goroutine. runs keeps the sealed
// range readable until the frame index takes over: the resident segments'
// own slices, in order — records are immutable once appended, so no copy.
type pendingFrame struct {
	base, count uint64
	runs        [][]Record
	// enc is the wire encoding (appendBinFrame) in a buffer from encBufs;
	// only the shard's writer touches it after the seal, and commitBatch
	// hands it back.
	enc *[]byte
}

// encBufs recycles frame encode buffers between seals. A pool, not a
// per-shard free list: an idle ledger must not pin a frame-sized buffer
// per shard, and the collector empties a pool nobody is drawing from.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// shardSegs is one shard's resident segment list plus its spill state.
type shardSegs struct {
	mu   sync.Mutex
	segs []*segment
	// next is the sequence the next appended record must carry.
	next uint64
	// dropped is the first still-resident sequence (records below it left
	// memory); segs[0].base == dropped whenever segs is non-empty.
	dropped uint64
	// spilled is the number of durably spilled records (file store only);
	// sealed is the number handed to the spill pipeline. Records in
	// [spilled, sealed) live in pending frames awaiting their group
	// commit; spilled == sealed whenever the pipeline is drained.
	spilled uint64
	sealed  uint64
	// pending holds the in-flight frames for [spilled, sealed), oldest
	// first (seals are serialised, writers commit in order).
	pending []*pendingFrame
	// spillTotals / spillHead mirror the running aggregate and chain head
	// of the sealed prefix (stamped into frame headers; the next frame
	// chains from them).
	spillTotals UsageLog
	spillHead   [32]byte
	// frames indexes the shard's spill file for O(frame) Get/Stream.
	frames []frameIndex
	// Cache-line pad: shards live in one contiguous slice, and each append
	// takes its shard's mutex while holding the ledger lane lock — without
	// the pad, neighbouring shards' lock words share a line and concurrent
	// appends to *different* shards still ping-pong it.
	_ [64]byte
}

// frameIndex locates one spilled frame inside a shard's segment file.
type frameIndex struct {
	base  uint64
	count uint64
	off   int64 // byte offset of the frame
	size  int64 // full frame length on disk (prefix + payload + CRC)
}

// firstSegRecords is the starting capacity of a lane's first segment.
const firstSegRecords = 8

// segStore is the shared segmented core of both stores.
type segStore struct {
	segRecords int
	shards     []shardSegs
	resident   atomic.Int64
}

func newSegStore(shards, segRecords int) *segStore {
	if segRecords < 1 {
		segRecords = 1
	}
	return &segStore{segRecords: segRecords, shards: make([]shardSegs, shards)}
}

func (s *segStore) Append(rec Record) error {
	sh := &s.shards[rec.Shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec.Log.Sequence != sh.next {
		return fmt.Errorf("accounting: store append out of order: shard %d got %d, want %d",
			rec.Shard, rec.Log.Sequence, sh.next)
	}
	n := len(sh.segs)
	if n == 0 || len(sh.segs[n-1].recs) >= s.segRecords {
		// A lane's first segment starts small and grows by append up to
		// segRecords: a whole segment is ~200 KB, and a per-deployment ledger
		// holds a handful of records. Later segments are allocated whole, so
		// a steady appender pays the doubling once. Records are never mutated
		// after append, so a reader holding the pre-growth slice stays valid.
		c := s.segRecords
		if sh.next == 0 {
			c = min(c, firstSegRecords)
		}
		sh.segs = append(sh.segs, &segment{
			base: sh.next,
			recs: make([]Record, 0, c),
		})
		n++
	}
	seg := sh.segs[n-1]
	seg.recs = append(seg.recs, rec)
	sh.next++
	s.resident.Add(1)
	return nil
}

func (s *segStore) Get(shard uint32, seq uint64) (Record, bool) {
	if int(shard) >= len(s.shards) {
		return Record{}, false
	}
	sh := &s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec, ok := sh.getResident(seq); ok {
		return rec, true
	}
	return Record{}, false
}

// getResident looks seq up in the resident segments (caller holds sh.mu).
func (sh *shardSegs) getResident(seq uint64) (Record, bool) {
	if seq < sh.dropped || seq >= sh.next {
		return Record{}, false
	}
	i := sort.Search(len(sh.segs), func(i int) bool {
		seg := sh.segs[i]
		return seq < seg.base+uint64(len(seg.recs))
	})
	if i >= len(sh.segs) {
		return Record{}, false
	}
	seg := sh.segs[i]
	if seq < seg.base {
		return Record{}, false
	}
	return seg.recs[seq-seg.base], true
}

// getPending looks seq up in the in-flight spill frames (caller holds
// sh.mu; pending entries are immutable once published).
func (sh *shardSegs) getPending(seq uint64) (Record, bool) {
	for _, pf := range sh.pending {
		if seq < pf.base || seq >= pf.base+pf.count {
			continue
		}
		i := seq - pf.base
		for _, run := range pf.runs {
			if i < uint64(len(run)) {
				return run[i], true
			}
			i -= uint64(len(run))
		}
	}
	return Record{}, false
}

func (s *segStore) Resident() int { return int(s.resident.Load()) }

// dropCovered drops every resident segment whose records all lie below
// limit (caller holds sh.mu). Returns how many records left memory.
func (s *segStore) dropCovered(sh *shardSegs, limit uint64) int {
	released := 0
	for len(sh.segs) > 0 {
		seg := sh.segs[0]
		end := seg.base + uint64(len(seg.recs))
		if end > limit {
			// Partially covered segments stay resident whole: sealing is
			// segment-granular in memory (the uncovered suffix must remain
			// reachable). A fully covered open segment is dropped — the
			// next append simply starts a fresh one.
			break
		}
		released += len(seg.recs)
		sh.dropped = end
		sh.segs = sh.segs[1:]
	}
	if len(sh.segs) == 0 {
		sh.dropped = sh.next
	} else {
		sh.dropped = sh.segs[0].base
	}
	s.resident.Add(int64(-released))
	return released
}

// collectResident copies the resident records in [from, to) out of the
// segments (caller holds sh.mu).
func (sh *shardSegs) collectResident(from, to uint64) ([]Record, error) {
	if to > sh.next {
		to = sh.next
	}
	if from >= to {
		return nil, nil
	}
	if from < sh.dropped {
		return nil, fmt.Errorf("accounting: store snapshot from %d below earliest resident %d", from, sh.dropped)
	}
	var out []Record
	for _, seg := range sh.segs {
		end := seg.base + uint64(len(seg.recs))
		if end <= from || seg.base >= to {
			continue
		}
		lo, hi := from, to
		if lo < seg.base {
			lo = seg.base
		}
		if hi > end {
			hi = end
		}
		out = append(out, seg.recs[lo-seg.base:hi-seg.base]...)
	}
	return out, nil
}

// replaySlice wraps a copied record slice as a snapshot closure.
func replaySlice(recs []Record) func(fn func(*Record) error) error {
	return func(fn func(*Record) error) error {
		for i := range recs {
			if err := fn(&recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// memory store

// memStore keeps records in segments and drops sealed segments outright —
// the bounded-retention mode for gateways that only ever need the signed
// checkpoint chain plus the live tail.
type memStore struct {
	*segStore
}

// NewMemoryStore creates a segmented in-memory record store: sealed
// segments are dropped, their effect surviving only in checkpoint
// signatures and the lanes' carried-forward heads.
func NewMemoryStore(shards, segRecords int) RecordStore {
	return &memStore{segStore: newSegStore(shards, segRecords)}
}

func (m *memStore) Spilled(uint32) uint64                     { return 0 }
func (m *memStore) PersistCheckpoint(*SignedCheckpoint) error { return nil }
func (m *memStore) Drain() error                              { return nil }
func (m *memStore) Persistent() bool                          { return false }
func (m *memStore) Degraded() (bool, error)                   { return false, nil }
func (m *memStore) Close() error                              { return nil }

func (m *memStore) Seal(sc *SignedCheckpoint) (int, error) {
	released := 0
	for i := range sc.Checkpoint.Heads {
		h := &sc.Checkpoint.Heads[i]
		if int(h.Shard) >= len(m.shards) {
			return released, fmt.Errorf("accounting: seal names shard %d of %d", h.Shard, len(m.shards))
		}
		sh := &m.shards[h.Shard]
		sh.mu.Lock()
		released += m.dropCovered(sh, h.Count)
		sh.mu.Unlock()
	}
	return released, nil
}

func (m *memStore) Snapshot(shard uint32, from, to uint64) (func(fn func(*Record) error) error, error) {
	if int(shard) >= len(m.shards) {
		return nil, fmt.Errorf("accounting: snapshot names shard %d of %d", shard, len(m.shards))
	}
	sh := &m.shards[shard]
	sh.mu.Lock()
	recs, err := sh.collectResident(from, to)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return replaySlice(recs), nil
}

// ---------------------------------------------------------------------------
// file store

// spillManifest is the MANIFEST.json content binding a spill directory to
// one ledger identity.
type spillManifest struct {
	Format      string          `json:"format"`
	Shards      int             `json:"shards"`
	SegRecords  int             `json:"segmentRecords"`
	Measurement sgx.Measurement `json:"measurement"`
	PublicKey   []byte          `json:"publicKey"` // PKIX DER
	// Pruned declares that the persisted checkpoint chain may skip
	// sequences (checkpoint-chain pruning enabled). Once true it stays
	// true — a pruned chain can never promise completeness again.
	Pruned bool `json:"prunedCheckpoints,omitempty"`
}

// spillFrame is one frame of a shard's segment file: a contiguous run of
// records plus the shard's chain head and running totals after the run
// (codec.go defines its encoding).
type spillFrame struct {
	Shard   uint32
	Base    uint64
	Head    [32]byte
	Totals  UsageLog
	Records []Record
}

const (
	manifestName    = "MANIFEST.json"
	checkpointsName = "checkpoints.jsonl"
)

// spillQueueDepth bounds each shard's writer channel: seals beyond it
// block the compaction path until the writer catches up.
const spillQueueDepth = 64

// spillGroupCommitMax caps how many queued frames one write may cover.
const spillGroupCommitMax = 64

// spillSyncBytes is the deferred-durability backstop: batches land with
// plain writes plus a non-blocking writeback hint (hintWriteback), and a
// hard fsync happens only at Drain barriers (Close, WriteDump, Anchor,
// checkpoint pruning all drain) — or once this many bytes accumulate
// with no barrier in sight. A crash between sync points loses at most
// the unsynced tail; recovery truncates back to the last anchored
// checkpoint either way, so the window costs durability, never
// consistency.
const spillSyncBytes = 256 << 20

// spillHintBytes is how much new frame data a shard file accumulates
// before the writer nudges the kernel to start writing it back
// (hintWriteback). Large enough to amortise the call, small enough that
// a Drain barrier rarely finds more than a few megabytes still dirty.
const spillHintBytes = 4 << 20

// Spill-writer retry schedule: a failing group commit is retried with
// jittered exponential backoff before the store concludes the disk is gone
// for good and degrades to bounded-in-memory retention. ~4 retries at
// 1/2/4/8 ms (±50% jitter) ride out transient errors in well under the
// checkpoint cadence, while a truly dead disk degrades in ~20 ms instead
// of wedging every later barrier forever.
const (
	spillRetryMax  = 4
	spillRetryBase = time.Millisecond
	spillRetryCap  = 50 * time.Millisecond
)

// Fault-injection point names (see internal/fault): the head of a shard's
// group commit, the durability sync point, and the checkpoint-log append.
const (
	FaultPointWriteBatch = "spill.write-batch"
	FaultPointSync       = "spill.sync"
	FaultPointCheckpoint = "spill.persist-checkpoint"
)

func shardFileName(shard int) string { return fmt.Sprintf("shard-%04d.seg", shard) }

// fileStore spills sealed records to append-only per-shard segment files
// through per-shard async group-commit writers.
type fileStore struct {
	*segStore
	dir      string
	manifest spillManifest

	mu      sync.Mutex // guards files + checkpoint file appends
	files   []*os.File
	cpF     *os.File
	cpLines int // lines in checkpoints.jsonl (for amortised prune rewrites)

	// Deferred group durability (all under fs.mu): frames and checkpoint
	// lines are written immediately but fsynced together at sync points —
	// every spillSyncBytes of frame data, on Drain, and once before the
	// first frame ever lands (so a spill directory can never hold frames
	// without any durable checkpoint, the one state recovery refuses).
	// The checkpoint log always syncs before the data files, preserving
	// the no-frame-outruns-its-anchor recovery invariant at every sync
	// point.
	cpDirty   bool
	cpSynced  bool // checkpoint log fsynced at least once since open
	dataDirty []bool
	unsynced  int
	// unhinted/hintOff amortise the writeback hints: each shard file is
	// nudged towards disk once spillHintBytes of new frames accumulate,
	// not per batch (a hint can briefly block when the device queue is
	// congested, so issuing fewer, larger ones keeps the writer fast).
	unhinted []int64
	hintOff  []int64

	// cpFails counts consecutive PersistCheckpoint write failures (under
	// fs.mu); crossing spillRetryMax degrades the store instead of letting
	// a dead checkpoint log stall compaction forever.
	cpFails int

	// faults, when non-nil, interposes on every spill write/sync/truncate
	// (test harness; nil in production, one branch per call).
	faults *fault.Injector

	// Degradation ladder: after a group commit (or durability barrier)
	// exhausts its retries, the store flips degraded instead of wedging —
	// spilling stops, already-durable frames stay readable, pending frames
	// stay resident, and Seal falls back to memStore semantics (drop
	// covered segments) so retention stays bounded and the chain stays
	// live. degraded is read lock-free on hot paths; degradedErr (the
	// cause) is guarded by qmu.
	degraded    atomic.Bool
	degradedErr error

	// Writer pipeline state. qmu guards inflight/degradedErr/closed; qcond
	// signals inflight reaching zero (Drain/Close).
	qmu      sync.Mutex
	qcond    *sync.Cond
	inflight int
	closed   bool
	chans    []chan *pendingFrame
	wg       sync.WaitGroup
}

// checkpointPruner is implemented by stores that persist the checkpoint
// chain and can drop pruned entries from it.
type checkpointPruner interface {
	pruneCheckpoints(retained []SignedCheckpoint) error
}

// recoveredState is what openFileStore rebuilt from a non-empty spill
// directory: the per-shard carried-forward chain state and the persisted
// checkpoint chain, anchored at the last checkpoint the spill contains.
type recoveredState struct {
	// Heads carries each shard's next sequence (Count) and chain head.
	Heads []ShardHead
	// Totals is each shard's running aggregate over the spilled prefix.
	Totals []UsageLog
	// Checkpoints is the persisted chain up to and including the anchor.
	Checkpoints []SignedCheckpoint
	// DroppedCheckpoints counts persisted checkpoints beyond the spill
	// horizon that recovery had to discard (their covered tail records
	// were resident at crash time and are gone).
	DroppedCheckpoints int
}

// openFileStore creates or reopens a spill directory. On a fresh (or
// empty) directory it writes the manifest and returns a nil recovery
// state; on a populated one it replays the spill and returns the rebuilt
// chain state. pruned declares that the ledger above will prune the
// checkpoint chain. faults, when non-nil, interposes the fault-injection
// harness on the store's write/sync/truncate calls (tests only).
func openFileStore(dir string, shards, segRecords int, meas sgx.Measurement, pubDER []byte, pruned bool, faults *fault.Injector) (*fileStore, *recoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("accounting: spill dir: %w", err)
	}
	fs := &fileStore{
		segStore: newSegStore(shards, segRecords),
		faults:   faults,
		dir:      dir,
		manifest: spillManifest{
			Format: SpillFormatV2, Shards: shards, SegRecords: segRecords,
			Measurement: meas, PublicKey: pubDER, Pruned: pruned,
		},
		files: make([]*os.File, shards),
	}
	fs.dataDirty = make([]bool, shards)
	fs.unhinted = make([]int64, shards)
	fs.hintOff = make([]int64, shards)
	fs.qcond = sync.NewCond(&fs.qmu)
	var rec *recoveredState
	m, err := readSpillManifest(dir)
	switch {
	case err == nil:
		if m.Shards != shards {
			return nil, nil, fmt.Errorf("accounting: spill dir has %d shards, ledger wants %d", m.Shards, shards)
		}
		if m.Measurement != meas || !bytes.Equal(m.PublicKey, pubDER) {
			return nil, nil, fmt.Errorf("accounting: spill dir belongs to a different enclave identity")
		}
		if pruned && !m.Pruned {
			// Declare pruning before the first entry can go missing; the
			// flag is sticky across reopenings.
			m.Pruned = true
			if err := writeSpillManifest(dir, m); err != nil {
				return nil, nil, err
			}
		}
		fs.manifest = *m
		if rec, err = fs.recover(); err != nil {
			return nil, nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		if err := writeSpillManifest(dir, &fs.manifest); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, err
	}
	for i := range fs.files {
		f, err := os.OpenFile(filepath.Join(dir, shardFileName(i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fs.Close()
			return nil, nil, fmt.Errorf("accounting: open spill file: %w", err)
		}
		fs.files[i] = f
	}
	f, err := os.OpenFile(filepath.Join(dir, checkpointsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fs.Close()
		return nil, nil, fmt.Errorf("accounting: open checkpoint log: %w", err)
	}
	fs.cpF = f
	fs.chans = make([]chan *pendingFrame, shards)
	for i := range fs.chans {
		fs.chans[i] = make(chan *pendingFrame, spillQueueDepth)
		fs.wg.Add(1)
		go fs.writeLoop(i, fs.chans[i])
	}
	return fs, rec, nil
}

// readSpillManifest loads MANIFEST.json and checks its format stamp: a
// directory in any layout but SpillFormatV2 is refused here, before the
// caller opens (let alone truncates) another file in it.
func readSpillManifest(dir string) (*spillManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("accounting: spill manifest: %w", err)
	}
	var m spillManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("accounting: spill manifest: %w", err)
	}
	if m.Format != SpillFormatV2 {
		return nil, fmt.Errorf("accounting: spill dir is in format %q; only %q is supported", m.Format, SpillFormatV2)
	}
	return &m, nil
}

// writeSpillManifest atomically (re)places dir's MANIFEST.json.
func writeSpillManifest(dir string, m *spillManifest) error {
	j, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	if err := replaceFile(filepath.Join(dir, manifestName), j, nil); err != nil {
		return fmt.Errorf("accounting: write spill manifest: %w", err)
	}
	return nil
}

// replaceFile atomically replaces path with data: a temp file beside it
// is written and fsynced, renamed over path, and the directory fsynced so
// the rename itself is durable — a crash at any point leaves either the
// old file or the new one, never a torn mix. The write and sync go
// through faults (nil-safe), and a crashed injector stops short of the
// rename: a dead process renames nothing.
func replaceFile(path string, data []byte, faults *fault.Injector) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := faults.Write(f, data); err != nil {
		f.Close()
		return err
	}
	if err := faults.Sync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if faults.Crashed() {
		return fault.ErrCrashed
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// shardScan is what a structural replay of one shard's segment file
// yields: the frame index, the chain state after the last whole frame,
// and the byte offset just past it (where a torn tail is cut).
type shardScan struct {
	frames  []frameIndex
	next    uint64
	head    [32]byte
	totals  UsageLog
	goodEnd int64
}

// scanShardFile structurally replays one shard's segment file: frames must
// be contiguous runs with internally consistent sequences, prev-hash
// linkage and head/totals stamps.
func scanShardFile(path string, shard uint32) (s shardScan, err error) {
	s.goodEnd, err = walkFrames(path, func(fr *spillFrame, off, size int64) error {
		if fr.Shard != shard || fr.Base != s.next || len(fr.Records) == 0 {
			return fmt.Errorf(
				"accounting: spill shard %d frame at offset %d out of order (base %d, want %d)",
				shard, off, fr.Base, s.next)
		}
		for i := range fr.Records {
			r := &fr.Records[i]
			if r.Shard != shard || r.Log.Sequence != s.next {
				return fmt.Errorf(
					"accounting: spill shard %d record %d out of sequence (want %d)", shard, r.Log.Sequence, s.next)
			}
			if r.PrevHash != s.head {
				return fmt.Errorf(
					"accounting: spill shard %d record %d breaks the hash chain", shard, s.next)
			}
			s.head = r.Hash
			aggregate(&s.totals, &r.Log)
			s.next++
		}
		if fr.Head != s.head || fr.Totals != s.totals {
			return fmt.Errorf(
				"accounting: spill shard %d frame at offset %d head/totals stamp mismatch", shard, off)
		}
		s.frames = append(s.frames, frameIndex{base: fr.Base, count: uint64(len(fr.Records)), off: off, size: size})
		return nil
	})
	return s, err
}

// recover rebuilds per-shard chain state from the spill directory,
// truncating whatever a crash left unanchored (frames past the last
// persisted checkpoint whose coverage the spill fully contains, and
// checkpoints past the spill horizon).
func (fs *fileStore) recover() (*recoveredState, error) {
	// The per-shard chains are independent, so the files are scanned
	// concurrently, GOMAXPROCS at a time (each scan holds one frame).
	scans := make([]shardScan, len(fs.shards))
	errs := make([]error, len(fs.shards))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range fs.shards {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			scans[i], errs[i] = scanShardFile(filepath.Join(fs.dir, shardFileName(i)), uint32(i))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err // the lowest failing shard's, whichever scan finished first
		}
	}
	cps, err := readSpillCheckpoints(fs.dir, len(fs.shards), fs.manifest.Pruned)
	if err != nil {
		return nil, err
	}
	// The anchor is the last persisted checkpoint the spill fully
	// contains AND whose per-shard counts land on frame boundaries —
	// periodic checkpoints signed between seals can be contained yet fall
	// mid-frame, and the spill can only be cut between frames. Later
	// checkpoints covered records that were resident at crash time; they
	// are discarded along with any frames a mid-seal crash wrote past the
	// anchor (at most the last group commit can be torn).
	ends := make([]map[uint64]bool, len(fs.shards))
	for i := range scans {
		ends[i] = map[uint64]bool{0: true}
		for _, fr := range scans[i].frames {
			ends[i][fr.base+fr.count] = true
		}
	}
	anchor := -1
	for i := range cps {
		anchored := true
		for _, h := range cps[i].Checkpoint.Heads {
			if h.Count > scans[h.Shard].next || !ends[h.Shard][h.Count] {
				anchored = false
				break
			}
		}
		if anchored {
			anchor = i
		}
	}
	// A spill with records but no anchoring checkpoint means one of two
	// things. If the log reaches back to checkpoint 0 and its newest entry
	// covers every frame on disk, no seal ever completed: the frames are
	// the residue of the first seal, interrupted before all of its frames
	// landed, and nothing durable is lost by cutting back to genesis (the
	// unanchored checkpoints are reported through DroppedCheckpoints).
	// Otherwise the checkpoint log was lost or corrupted out from under
	// the frames. Refuse: recovering "from genesis" there would truncate
	// every segment file to zero, destroying intact signature-covered
	// records.
	if anchor < 0 {
		firstSeal := len(cps) > 0 && cps[0].Checkpoint.Sequence == 0
		for i := range scans {
			if firstSeal && scans[i].next <= cps[len(cps)-1].Checkpoint.Heads[i].Count {
				continue
			}
			if scans[i].next > 0 {
				return nil, fmt.Errorf(
					"accounting: spill dir holds %d records of shard %d but no persisted checkpoint anchors them — refusing to recover (checkpoint log lost or corrupt?)",
					scans[i].next, i)
			}
		}
	}
	rec := &recoveredState{
		Heads:              make([]ShardHead, len(fs.shards)),
		Totals:             make([]UsageLog, len(fs.shards)),
		DroppedCheckpoints: len(cps) - anchor - 1,
	}
	if anchor >= 0 {
		rec.Checkpoints = cps[:anchor+1]
	}
	for i := range fs.shards {
		s := &scans[i]
		path := filepath.Join(fs.dir, shardFileName(i))
		var limit uint64 // anchored spill horizon for this shard
		if anchor >= 0 {
			limit = cps[anchor].Checkpoint.Heads[i].Count
		}
		cut, unanchored := s.goodEnd, s.next > limit
		if unanchored {
			// Unanchored frames go: cut back to the anchor boundary.
			// Frames end exactly on seal boundaries, so the cut always
			// lands between frames.
			cut = 0
			var end uint64
			for _, fr := range s.frames {
				if fr.base+fr.count > limit {
					break
				}
				cut, end = fr.off+fr.size, fr.base+fr.count
			}
			if end != limit {
				return nil, fmt.Errorf("accounting: spill shard %d cannot be cut at anchor boundary %d (frames end at %d)", i, limit, end)
			}
		}
		if err := os.Truncate(path, cut); err != nil {
			return nil, fmt.Errorf("accounting: truncate spill shard %d: %w", i, err)
		}
		if unanchored {
			// Recompute the carried-forward state over the kept prefix
			// (rare path: only after a crash mid-seal).
			if *s, err = scanShardFile(path, uint32(i)); err != nil {
				return nil, err
			}
		}
		sh := &fs.shards[i]
		sh.next, sh.dropped = s.next, s.next
		sh.spilled, sh.sealed = s.next, s.next
		sh.spillHead, sh.spillTotals = s.head, s.totals
		sh.frames = s.frames
		rec.Heads[i] = ShardHead{Shard: uint32(i), Count: s.next, Head: s.head}
		rec.Totals[i] = s.totals
	}
	if rec.DroppedCheckpoints > 0 || anchor < len(cps)-1 {
		if err := fs.rewriteCheckpoints(rec.Checkpoints); err != nil {
			return nil, err
		}
	}
	fs.cpLines = len(rec.Checkpoints)
	// Cross-check the rebuilt state against the anchor's signature-covered
	// heads and totals: the carried-forward chain state IS what the last
	// signed checkpoint vouches for.
	if anchor >= 0 {
		cp := &cps[anchor].Checkpoint
		var merged UsageLog
		for i := range rec.Heads {
			if rec.Heads[i] != cp.Heads[i] {
				return nil, fmt.Errorf("accounting: recovered head of shard %d does not match the anchoring checkpoint", i)
			}
			t := rec.Totals[i]
			merge(&merged, &t)
		}
		if merged != cp.Totals {
			return nil, fmt.Errorf("accounting: recovered totals do not match the anchoring checkpoint")
		}
	}
	return rec, nil
}

// readSpillCheckpoints reads a spill directory's persisted checkpoint
// chain (torn tail lines are cut, as with frames). With pruned set the
// chain may skip sequences — prev-hash linkage is then enforced only
// between adjacent survivors; sequences must still strictly increase.
func readSpillCheckpoints(dir string, shards int, pruned bool) ([]SignedCheckpoint, error) {
	f, err := os.Open(filepath.Join(dir, checkpointsName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cps []SignedCheckpoint
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // grows from 4 KiB as lines demand; a line is a few hundred bytes per shard
	for sc.Scan() {
		var c SignedCheckpoint
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			if sc.Scan() {
				// Corruption mid-log (a torn tail can only be the final
				// line): refuse rather than silently forgetting the
				// checkpoints behind it.
				return nil, fmt.Errorf("accounting: corrupt checkpoint log entry before end of file")
			}
			break // torn tail
		}
		if len(c.Checkpoint.Heads) != shards {
			return nil, fmt.Errorf("accounting: persisted checkpoint %d covers %d shards, store has %d",
				c.Checkpoint.Sequence, len(c.Checkpoint.Heads), shards)
		}
		for j := range c.Checkpoint.Heads {
			if c.Checkpoint.Heads[j].Shard != uint32(j) {
				return nil, fmt.Errorf("accounting: persisted checkpoint %d heads out of shard order", c.Checkpoint.Sequence)
			}
		}
		if n := len(cps); n > 0 {
			prev := &cps[n-1].Checkpoint
			switch {
			case c.Checkpoint.Sequence <= prev.Sequence:
				return nil, fmt.Errorf("accounting: persisted checkpoint chain runs backwards at %d", c.Checkpoint.Sequence)
			case c.Checkpoint.Sequence == prev.Sequence+1:
				if c.Checkpoint.PrevHash != prev.Hash() {
					return nil, fmt.Errorf("accounting: persisted checkpoint chain breaks at %d", c.Checkpoint.Sequence)
				}
			default:
				if !pruned {
					return nil, fmt.Errorf("accounting: persisted checkpoint chain breaks at %d", c.Checkpoint.Sequence)
				}
			}
		}
		cps = append(cps, c)
	}
	return cps, sc.Err()
}

// rewriteCheckpoints atomically replaces the checkpoint log (recovery
// discarding entries beyond the spill horizon, or pruning dropping
// superseded anchors). When the append handle is open the caller must
// hold fs.mu; the handle is reopened on the new inode after the rename.
func (fs *fileStore) rewriteCheckpoints(cps []SignedCheckpoint) error {
	var log bytes.Buffer
	for i := range cps {
		j, err := json.Marshal(&cps[i])
		if err != nil {
			return err
		}
		log.Write(j)
		log.WriteByte('\n')
	}
	path := filepath.Join(fs.dir, checkpointsName)
	if err := replaceFile(path, log.Bytes(), fs.faults); err != nil {
		return err
	}
	if fs.cpF != nil {
		// The old append FD points at the renamed-over inode; reopen so
		// later appends land in the rewritten log.
		_ = fs.cpF.Close()
		nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fs.cpF = nil
			return fmt.Errorf("accounting: reopen checkpoint log: %w", err)
		}
		fs.cpF = nf
	}
	fs.cpLines = len(cps)
	// The rewritten log was fsynced before the rename took effect.
	fs.cpDirty, fs.cpSynced = false, true
	return nil
}

// pruneCheckpoints rewrites the persisted checkpoint log down to the
// retained set. Rewrites are amortised: the log is left alone until it
// holds roughly twice as many lines as survivors, so a prune after every
// checkpoint costs O(1) amortised I/O.
func (fs *fileStore) pruneCheckpoints(retained []SignedCheckpoint) error {
	if fs.degraded.Load() {
		return nil // nothing persists any more; nothing to prune
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cpF == nil {
		return fmt.Errorf("accounting: spill store closed")
	}
	if fs.cpLines <= 2*len(retained)+16 {
		return nil
	}
	return fs.rewriteCheckpoints(retained)
}

// Get serves resident records from memory, in-flight seals from their
// pending frames, and durable ones from their spill frame (O(frame) via
// the per-shard frame index) — receipts stay resolvable after their
// records leave memory.
func (fs *fileStore) Get(shard uint32, seq uint64) (Record, bool) {
	if int(shard) >= len(fs.shards) {
		return Record{}, false
	}
	sh := &fs.shards[shard]
	sh.mu.Lock()
	if rec, ok := sh.getResident(seq); ok {
		sh.mu.Unlock()
		return rec, true
	}
	if seq >= sh.sealed {
		sh.mu.Unlock()
		return Record{}, false
	}
	if seq >= sh.spilled {
		rec, ok := sh.getPending(seq)
		sh.mu.Unlock()
		return rec, ok
	}
	i := sort.Search(len(sh.frames), func(i int) bool {
		fi := &sh.frames[i]
		return seq < fi.base+fi.count
	})
	if i >= len(sh.frames) || seq < sh.frames[i].base {
		sh.mu.Unlock()
		return Record{}, false
	}
	fi := sh.frames[i]
	sh.mu.Unlock()
	f, err := os.Open(filepath.Join(fs.dir, shardFileName(int(shard))))
	if err != nil {
		return Record{}, false
	}
	defer f.Close()
	frame, err := readFrameAt(f, fi)
	if err != nil {
		return Record{}, false
	}
	return frame.Records[seq-fi.base], true
}

func (fs *fileStore) Spilled(shard uint32) uint64 {
	if int(shard) >= len(fs.shards) {
		return 0
	}
	sh := &fs.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sealed
}

// Persistent flips to false once the store degrades: sealed records are
// dropped from then on, and the dump path must anchor captures exactly as
// it does for the memory store.
func (fs *fileStore) Persistent() bool { return !fs.degraded.Load() }

func (fs *fileStore) PersistCheckpoint(sc *SignedCheckpoint) error {
	if fs.degraded.Load() {
		// The checkpoint stays live in the ledger's memory (and keeps
		// vouching for the chain); only its persistence is gone.
		return nil
	}
	j, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	fs.faults.Hit(FaultPointCheckpoint)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cpF == nil {
		if fs.degraded.Load() {
			return nil
		}
		return fmt.Errorf("accounting: spill store closed")
	}
	off, err := fs.cpF.Seek(0, 2)
	if err != nil {
		return err
	}
	if n, err := fs.faults.Write(fs.cpF, append(j, '\n')); err != nil {
		if n > 0 {
			// A torn checkpoint line is only recoverable as the FINAL line;
			// a later successful append would bury it mid-log, which
			// recovery refuses. Cut it back; if even that fails, retire the
			// log and degrade — no checkpoint may ever be appended after
			// known junk.
			if terr := fs.faults.Truncate(fs.cpF, off); terr != nil {
				_ = fs.cpF.Close()
				fs.cpF = nil
				fs.degrade(err)
				return err
			}
		}
		// A dying checkpoint log must not stall compaction forever: after
		// spillRetryMax consecutive failures, degrade (the error still
		// surfaces to the caller this once; later checkpoints no-op).
		if fs.cpFails++; fs.cpFails > spillRetryMax {
			fs.degrade(err)
		}
		return err
	}
	fs.cpFails = 0
	fs.cpLines++
	fs.cpDirty = true
	return nil
}

// reserve claims a writer-pipeline slot (one per frame). It fails once
// the store is closed, so a seal can never advance state the pipeline
// will not process.
func (fs *fileStore) reserve() error {
	fs.qmu.Lock()
	defer fs.qmu.Unlock()
	if fs.closed {
		return fmt.Errorf("accounting: spill store closed")
	}
	fs.inflight++
	return nil
}

// degrade flips the store into bounded-in-memory retention (recording the
// cause once). Idempotent; safe from any goroutine.
func (fs *fileStore) degrade(cause error) {
	fs.qmu.Lock()
	if fs.degradedErr == nil {
		fs.degradedErr = cause
	}
	fs.qmu.Unlock()
	fs.degraded.Store(true)
}

func (fs *fileStore) Degraded() (bool, error) {
	if !fs.degraded.Load() {
		return false, nil
	}
	fs.qmu.Lock()
	defer fs.qmu.Unlock()
	return true, fs.degradedErr
}

// retryWait sleeps out attempt's slot of the jittered exponential backoff
// schedule, returning false (give up early) once the store is closing —
// Close must never wait out a dead disk's full retry budget.
func (fs *fileStore) retryWait(attempt int) bool {
	d := spillRetryBase << attempt
	if d > spillRetryCap {
		d = spillRetryCap
	}
	// ±50% jitter so retries from different shards don't convoy onto a
	// recovering device in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	time.Sleep(d)
	fs.qmu.Lock()
	defer fs.qmu.Unlock()
	return !fs.closed
}

// Seal builds each shard's not-yet-sealed covered prefix into one frame,
// publishes it on the shard's pending queue, drops the covered segments
// from the resident tail, and hands the frame to the shard's async writer.
// Frames therefore always end exactly on the sealing checkpoint's boundary
// — the property crash recovery and truncated-dump anchoring rely on. The
// channel send blocks when the writer is more than spillQueueDepth seals
// behind: backpressure lands on the compaction path, never on Append.
func (fs *fileStore) Seal(sc *SignedCheckpoint) (int, error) {
	if fs.degraded.Load() {
		// Bounded-in-memory retention: the disk is gone, so covered
		// segments are dropped outright (memStore semantics) instead of
		// spilled — the chain heads and checkpoints stay live, retention
		// stays bounded, and the durable prefix stays exactly where the
		// failure left it. sealed/spillHead are not advanced: they describe
		// the spill pipeline, which is permanently idle now.
		released := 0
		for i := range sc.Checkpoint.Heads {
			h := &sc.Checkpoint.Heads[i]
			if int(h.Shard) >= len(fs.shards) {
				return released, fmt.Errorf("accounting: seal names shard %d of %d", h.Shard, len(fs.shards))
			}
			sh := &fs.shards[h.Shard]
			sh.mu.Lock()
			released += fs.dropCovered(sh, h.Count)
			sh.mu.Unlock()
		}
		return released, nil
	}
	released := 0
	for i := range sc.Checkpoint.Heads {
		h := &sc.Checkpoint.Heads[i]
		if int(h.Shard) >= len(fs.shards) {
			return released, fmt.Errorf("accounting: seal names shard %d of %d", h.Shard, len(fs.shards))
		}
		sh := &fs.shards[h.Shard]
		sh.mu.Lock()
		var pf *pendingFrame
		if h.Count > sh.sealed {
			// Build the frame — and its running head/totals stamps — in
			// locals; shard state commits only once a writer slot is
			// reserved, so a failed seal leaves the stamps consistent and the
			// next Seal retries the same range instead of double-counting it.
			frame := spillFrame{Shard: h.Shard, Base: sh.sealed,
				Head: sh.spillHead, Totals: sh.spillTotals}
			// The seal range is contiguous, so one binary search finds the
			// first segment and the frame takes the rest a slice at a time,
			// uncopied (this path runs on the compaction caller — often the
			// appender that tripped the retention trigger).
			si := sort.Search(len(sh.segs), func(i int) bool {
				seg := sh.segs[i]
				return sh.sealed < seg.base+uint64(len(seg.recs))
			})
			var runs [][]Record
			for seq := sh.sealed; seq < h.Count; si++ {
				if si >= len(sh.segs) || seq < sh.segs[si].base {
					sh.mu.Unlock()
					return released, fmt.Errorf("accounting: seal lost shard %d record %d before spilling", h.Shard, seq)
				}
				seg := sh.segs[si]
				run := seg.recs[seq-seg.base : min(uint64(len(seg.recs)), h.Count-seg.base)]
				for j := range run {
					aggregate(&frame.Totals, &run[j].Log)
				}
				frame.Head = run[len(run)-1].Hash
				runs = append(runs, run)
				seq += uint64(len(run))
			}
			if err := fs.reserve(); err != nil {
				sh.mu.Unlock()
				return released, err
			}
			pf = &pendingFrame{base: sh.sealed, count: h.Count - sh.sealed, runs: runs, enc: encBufs.Get().(*[]byte)}
			*pf.enc = appendBinFrame((*pf.enc)[:0], &frame, runs...)
			sh.pending = append(sh.pending, pf)
			sh.sealed = h.Count
			sh.spillHead, sh.spillTotals = frame.Head, frame.Totals
		}
		released += fs.dropCovered(sh, h.Count)
		sh.mu.Unlock()
		if pf != nil {
			// Blocking send outside sh.mu: the writer needs sh.mu to
			// commit finished batches. Seals are serialised by the
			// ledger's checkpoint lock, so send order matches the pending
			// queue order the writer commits against.
			fs.chans[h.Shard] <- pf
		}
	}
	return released, nil
}

// writeLoop is one shard's spill writer: it group-commits whatever seals
// are queued, amortising the fsync across them.
func (fs *fileStore) writeLoop(shard int, ch chan *pendingFrame) {
	defer fs.wg.Done()
	for pf := range ch {
		batch := []*pendingFrame{pf}
	gather:
		for len(batch) < spillGroupCommitMax {
			select {
			case next, ok := <-ch:
				if !ok {
					break gather
				}
				batch = append(batch, next)
			default:
				break gather
			}
		}
		fs.commitBatch(shard, batch)
	}
}

// commitBatch lands one group commit and publishes the result. A write
// error is retried with jittered exponential backoff (transient faults —
// a full device queue, a momentary EIO — heal without anyone noticing);
// exhausting the retry budget degrades the store to bounded-in-memory
// retention instead of wedging: the loop keeps draining so blocked senders
// always make progress, the failed batch's frames stay readable on the
// pending queue, and the durable prefix stays exactly where the failure
// left it.
func (fs *fileStore) commitBatch(shard int, batch []*pendingFrame) {
	var err error
	var idx []frameIndex
	if !fs.degraded.Load() {
		for attempt := 0; ; attempt++ {
			idx, err = fs.writeBatch(shard, batch)
			if err == nil || attempt >= spillRetryMax {
				break
			}
			if !fs.retryWait(attempt) {
				break // closing: don't wait out a dead disk's retry budget
			}
		}
		if err == nil {
			sh := &fs.shards[shard]
			sh.mu.Lock()
			sh.frames = append(sh.frames, idx...)
			last := batch[len(batch)-1]
			sh.spilled = last.base + last.count
			// Shift down and clear the vacated slots: the queue keeps its
			// backing array, and a committed frame left in it would pin the
			// segments it spilled.
			n := copy(sh.pending, sh.pending[len(batch):])
			clear(sh.pending[n:])
			sh.pending = sh.pending[:n]
			sh.mu.Unlock()
		} else {
			fs.degrade(err)
		}
	}
	// Written or abandoned, the encodings have no reader left.
	for _, pf := range batch {
		encBufs.Put(pf.enc)
		pf.enc = nil
	}
	fs.qmu.Lock()
	fs.inflight -= len(batch)
	fs.qcond.Broadcast()
	fs.qmu.Unlock()
}

// writeBatch lands one batch of frames with a single concatenated write.
// Durability is deferred: the files are fsynced together at sync points
// (syncLocked), checkpoint log first, so no durable frame ever outruns
// the checkpoint that anchors it. The one exception is the very first
// batch after open, which syncs the checkpoint log up front — a crash
// may then truncate frames back to an anchor, but can never leave frames
// with no durable checkpoint at all (the state recovery refuses).
func (fs *fileStore) writeBatch(shard int, batch []*pendingFrame) ([]frameIndex, error) {
	fs.faults.Hit(FaultPointWriteBatch)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := fs.files[shard]
	if f == nil {
		return nil, fmt.Errorf("accounting: spill store closed")
	}
	if !fs.cpSynced && fs.cpF != nil {
		if err := fs.faults.Sync(fs.cpF); err != nil {
			return nil, fmt.Errorf("accounting: sync checkpoint log: %w", err)
		}
		fs.cpDirty, fs.cpSynced = false, true
	}
	off, err := f.Seek(0, 2)
	if err != nil {
		return nil, err
	}
	// One write per batch: a lone frame goes out as encoded, several are
	// concatenated in a pooled buffer first.
	buf := *batch[0].enc
	if len(batch) > 1 {
		cat := encBufs.Get().(*[]byte)
		defer encBufs.Put(cat)
		buf = (*cat)[:0]
		for _, pf := range batch {
			buf = append(buf, *pf.enc...)
		}
		*cat = buf
	}
	idx := make([]frameIndex, len(batch))
	end := off
	for i, pf := range batch {
		idx[i] = frameIndex{base: pf.base, count: pf.count, off: end, size: int64(len(*pf.enc))}
		end += idx[i].size
	}
	if n, werr := fs.faults.Write(f, buf); werr != nil {
		if n > 0 {
			// A partial write leaves a torn frame that the next successful
			// append would bury mid-file (which recovery rejects as
			// corruption, not a torn tail). Cut the file back to the batch
			// start; if even that fails, retire the handle so no later
			// batch writes past known junk.
			if terr := fs.faults.Truncate(f, off); terr != nil {
				_ = f.Close()
				fs.files[shard] = nil
			}
		}
		return nil, fmt.Errorf("accounting: spill shard %d: %w", shard, werr)
	}
	fs.dataDirty[shard] = true
	fs.unsynced += len(buf)
	// Start writeback of the accumulated range without waiting: the
	// kernel flushes behind the appends and the next hard sync point
	// (Drain) has little left to block on.
	if fs.unhinted[shard] += int64(len(buf)); fs.unhinted[shard] >= spillHintBytes {
		hintWriteback(f, fs.hintOff[shard], end-fs.hintOff[shard])
		fs.hintOff[shard] = end
		fs.unhinted[shard] = 0
	}
	if fs.unsynced >= spillSyncBytes {
		if err := fs.syncLocked(); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// syncLocked is a deferred-durability sync point: checkpoint log first
// (recovery anchors on it), then every shard file with unsynced frames.
// Caller holds fs.mu.
func (fs *fileStore) syncLocked() error {
	fs.faults.Hit(FaultPointSync)
	if fs.cpDirty && fs.cpF != nil {
		if err := fs.faults.Sync(fs.cpF); err != nil {
			return fmt.Errorf("accounting: sync checkpoint log: %w", err)
		}
		fs.cpDirty, fs.cpSynced = false, true
	}
	for shard, dirty := range fs.dataDirty {
		if !dirty {
			continue
		}
		if f := fs.files[shard]; f != nil {
			if err := fs.faults.Sync(f); err != nil {
				return fmt.Errorf("accounting: sync spill shard %d: %w", shard, err)
			}
		}
		fs.dataDirty[shard] = false
	}
	fs.unsynced = 0
	return nil
}

// Drain blocks until every reserved frame has gone through its group
// commit, forces the deferred sync point, and reports the pipeline's
// health — after Drain returns nil on a healthy store, every seal handed
// to the pipeline before the call is durable on disk. A degraded store
// drains trivially (nil): its pipeline is permanently idle, and callers
// must consult Degraded()/Persistent() for durability claims — the dump
// path already anchors captures from non-persistent stores.
func (fs *fileStore) Drain() error {
	fs.qmu.Lock()
	for fs.inflight > 0 {
		fs.qcond.Wait()
	}
	fs.qmu.Unlock()
	if fs.degraded.Load() {
		return nil
	}
	var err error
	for attempt := 0; ; attempt++ {
		fs.mu.Lock()
		err = fs.syncLocked()
		fs.mu.Unlock()
		if err == nil || attempt >= spillRetryMax {
			break
		}
		if !fs.retryWait(attempt) {
			break
		}
	}
	if err != nil {
		// A barrier that cannot reach the disk even after the retry budget
		// degrades the store just like a failed write: the durable prefix
		// stays where the last successful sync left it.
		fs.degrade(err)
	}
	return err
}

// Snapshot pins [from, to): spilled frame locations (immutable in the
// append-only file) plus copies of the pending frames' records and the
// resident suffix. The returned closure replays spilled frames straight
// off disk, one frame in memory at a time, with no store locks held — a
// slow consumer never blocks appends or compactions.
func (fs *fileStore) Snapshot(shard uint32, from, to uint64) (func(fn func(*Record) error) error, error) {
	if int(shard) >= len(fs.shards) {
		return nil, fmt.Errorf("accounting: snapshot names shard %d of %d", shard, len(fs.shards))
	}
	sh := &fs.shards[shard]
	sh.mu.Lock()
	spilled := sh.spilled
	frames := append([]frameIndex(nil), sh.frames...)
	// Pending frames cover [spilled, sealed); copy the overlap with the
	// request so the snapshot survives the frames landing (and leaving
	// the pending queue) mid-replay.
	var pend []Record
	for _, pf := range sh.pending {
		seq := pf.base
		for _, run := range pf.runs {
			lo, hi := max(from, seq), min(to, seq+uint64(len(run)))
			if lo < hi {
				pend = append(pend, run[lo-seq:hi-seq]...)
			}
			seq += uint64(len(run))
		}
	}
	lo := from
	if lo < sh.sealed {
		lo = sh.sealed
	}
	resident, err := sh.collectResident(lo, to)
	sh.mu.Unlock()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(fs.dir, shardFileName(int(shard)))
	return func(fn func(*Record) error) error {
		if from < spilled {
			f, err := os.Open(path)
			if err != nil {
				return fmt.Errorf("accounting: open spill shard %d: %w", shard, err)
			}
			defer f.Close()
			var d frameReader // one frame in memory, refilled per frame
			for _, fi := range frames {
				if fi.base+fi.count <= from {
					continue
				}
				if fi.base >= to {
					return nil
				}
				frame, err := d.at(f, fi)
				if err != nil {
					return err
				}
				for i := range frame.Records {
					seq := fi.base + uint64(i)
					if seq < from {
						continue
					}
					if seq >= to {
						return nil
					}
					if err := fn(&frame.Records[i]); err != nil {
						return err
					}
				}
			}
		}
		if err := replaySlice(pend)(fn); err != nil {
			return err
		}
		return replaySlice(resident)(fn)
	}, nil
}

// Close shuts the writer pipeline down (draining every in-flight seal),
// then releases the spill files. Safe to call more than once.
func (fs *fileStore) Close() error {
	fs.qmu.Lock()
	already := fs.closed
	fs.closed = true
	for fs.inflight > 0 {
		fs.qcond.Wait()
	}
	degradedErr := fs.degradedErr
	fs.qmu.Unlock()
	if !already {
		// closed is set and inflight hit zero: no seal holds a reserved
		// slot, so no sender can be blocked on (or about to enter) a
		// channel send — closing is safe.
		for _, ch := range fs.chans {
			if ch != nil {
				close(ch)
			}
		}
		fs.wg.Wait()
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	if !already && !fs.degraded.Load() {
		// Final sync point: nothing written after a drained, closed
		// pipeline, so closing durable files afterwards is safe.
		first = fs.syncLocked()
	}
	for i, f := range fs.files {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			fs.files[i] = nil
		}
	}
	if fs.cpF != nil {
		if err := fs.cpF.Close(); err != nil && first == nil {
			first = err
		}
		fs.cpF = nil
	}
	if first == nil {
		// A degraded store closes cleanly but still reports why it gave up
		// on durability, for callers that check.
		first = degradedErr
	}
	return first
}
