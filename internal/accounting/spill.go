// The spill directory: where sealed records go when the store has one.
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
// Spill I/O is asynchronous (PR 7): Seal encodes a frame, publishes it on
// the shard's pending queue — where Get and Snapshot go on reading it —
// and hands it to a per-shard writer goroutine through a bounded channel:
// backpressure blocks the compaction path, never Append. The writer
// group-commits whatever is queued (up to spillGroupCommitMax) with one
// write. Durability is deferred to sync points — every spillSyncBytes of
// frame data, and always on Drain — where the checkpoint log fsyncs FIRST
// (so no durable frame can outrun the checkpoint that anchors it) and then
// the shard files. Drain blocks until the pipeline is empty, which is how
// Ledger.Close, WriteDump and Anchor guarantee dumps and verifier runs only
// ever observe fully spilled seals.
package accounting

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"acctee/internal/fault"
	"acctee/internal/sgx"
)

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

func (sp *spill) shardPath(shard int) string { return filepath.Join(sp.dir, shardFileName(shard)) }

// spill is a store's directory: the append handles, the deferred-durability
// bookkeeping, the per-shard async group-commit writers and the
// degradation latch.
type spill struct {
	dir      string
	manifest spillManifest

	mu      sync.Mutex // guards files + checkpoint file appends
	files   []*os.File
	cpF     *os.File
	cpLines int // lines in checkpoints.jsonl (for amortised prune rewrites)

	// Deferred group durability (all under mu): what the sync points have
	// yet to fsync. The checkpoint log is also synced once before the first
	// frame ever lands, so a spill directory can never hold frames without
	// any durable checkpoint — the one state recovery refuses.
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
	// mu); crossing spillRetryMax degrades the store instead of letting
	// a dead checkpoint log stall compaction forever.
	cpFails int

	// faults, when non-nil, interposes on every spill write/sync/truncate
	// (test harness; nil in production, one branch per call).
	faults *fault.Injector

	// Degradation ladder: after a group commit (or durability barrier)
	// exhausts its retries, the store flips degraded instead of wedging —
	// spilling stops, already-durable frames stay readable, pending frames
	// stay resident, and Seal only drops covered segments from then on, so
	// retention stays bounded and the chain stays live. degraded is read
	// lock-free on hot paths; degradedErr (the cause) is guarded by qmu.
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

// openSpill gives the store its directory, creating or reopening it. On a
// fresh (or empty) directory it writes the manifest and returns a nil
// recovery state; on a populated one it replays the spill and returns the
// rebuilt chain state. pruned declares that the ledger above will prune the
// checkpoint chain. faults, when non-nil, interposes the fault-injection
// harness on the store's write/sync/truncate calls (tests only).
func (s *RecordStore) openSpill(dir string, meas sgx.Measurement, pubDER []byte, pruned bool, faults *fault.Injector) (*recoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("accounting: spill dir: %w", err)
	}
	shards := len(s.shards)
	s.spill = &spill{
		faults: faults,
		dir:    dir,
		manifest: spillManifest{
			Format: SpillFormatV2, Shards: shards, SegRecords: s.segRecords,
			Measurement: meas, PublicKey: pubDER, Pruned: pruned,
		},
		files:     make([]*os.File, shards),
		dataDirty: make([]bool, shards),
		unhinted:  make([]int64, shards),
		hintOff:   make([]int64, shards),
	}
	s.qcond = sync.NewCond(&s.qmu)
	var rec *recoveredState
	m, err := readSpillManifest(dir)
	switch {
	case err == nil:
		if m.Shards != shards {
			return nil, fmt.Errorf("accounting: spill dir has %d shards, ledger wants %d", m.Shards, shards)
		}
		if m.Measurement != meas || !bytes.Equal(m.PublicKey, pubDER) {
			return nil, fmt.Errorf("accounting: spill dir belongs to a different enclave identity")
		}
		s.manifest = *m
		if rec, err = s.recover(pruned); err != nil {
			return nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		if err := writeSpillManifest(dir, &s.manifest); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	for i := range s.files {
		f, err := os.OpenFile(s.shardPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("accounting: open spill file: %w", err)
		}
		s.files[i] = f
	}
	f, err := os.OpenFile(filepath.Join(dir, checkpointsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("accounting: open checkpoint log: %w", err)
	}
	s.cpF = f
	s.chans = make([]chan *pendingFrame, shards)
	for i := range s.chans {
		s.chans[i] = make(chan *pendingFrame, spillQueueDepth)
		s.wg.Add(1)
		go s.writeLoop(i, s.chans[i])
	}
	return rec, nil
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

// rewriteCheckpoints atomically replaces the checkpoint log (recovery
// discarding entries beyond the spill horizon, or pruning dropping
// superseded anchors). When the append handle is open the caller must
// hold mu; the handle is reopened on the new inode after the rename.
func (sp *spill) rewriteCheckpoints(cps []SignedCheckpoint) error {
	var log bytes.Buffer
	for i := range cps {
		j, err := json.Marshal(&cps[i])
		if err != nil {
			return err
		}
		log.Write(j)
		log.WriteByte('\n')
	}
	path := filepath.Join(sp.dir, checkpointsName)
	if err := replaceFile(path, log.Bytes(), sp.faults); err != nil {
		return err
	}
	if sp.cpF != nil {
		// The old append FD points at the renamed-over inode; reopen so
		// later appends land in the rewritten log.
		_ = sp.cpF.Close()
		nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			sp.cpF = nil
			return fmt.Errorf("accounting: reopen checkpoint log: %w", err)
		}
		sp.cpF = nf
	}
	sp.cpLines = len(cps)
	// The rewritten log was fsynced before the rename took effect.
	sp.cpDirty, sp.cpSynced = false, true
	return nil
}

// pruneCheckpoints rewrites the persisted checkpoint log down to the
// retained set. Rewrites are amortised: the log is left alone until it
// holds roughly twice as many lines as survivors, so a prune after every
// checkpoint costs O(1) amortised I/O.
func (s *RecordStore) pruneCheckpoints(retained []SignedCheckpoint) error {
	if !s.Persistent() {
		return nil // nothing persists; nothing to prune
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cpF == nil {
		return fmt.Errorf("accounting: spill store closed")
	}
	if s.cpLines <= 2*len(retained)+16 {
		return nil
	}
	return s.rewriteCheckpoints(retained)
}

// PersistCheckpoint makes a signed checkpoint durable. The ledger calls it
// for every checkpoint it signs, so recovery never has to bridge a gap in
// the checkpoint hash chain; without a live directory the checkpoint just
// stays in the ledger's memory and keeps vouching for the chain.
func (s *RecordStore) PersistCheckpoint(sc *SignedCheckpoint) error {
	if !s.Persistent() {
		return nil
	}
	j, err := json.Marshal(sc)
	if err != nil {
		return err
	}
	s.faults.Hit(FaultPointCheckpoint)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cpF == nil {
		if !s.Persistent() {
			return nil
		}
		return fmt.Errorf("accounting: spill store closed")
	}
	off, err := s.cpF.Seek(0, 2)
	if err != nil {
		return err
	}
	if n, err := s.faults.Write(s.cpF, append(j, '\n')); err != nil {
		if n > 0 {
			// A torn checkpoint line is only recoverable as the FINAL line;
			// a later successful append would bury it mid-log, which
			// recovery refuses. Cut it back; if even that fails, retire the
			// log and degrade — no checkpoint may ever be appended after
			// known junk.
			if terr := s.faults.Truncate(s.cpF, off); terr != nil {
				_ = s.cpF.Close()
				s.cpF = nil
				s.degrade(err)
				return err
			}
		}
		// A dying checkpoint log must not stall compaction forever: after
		// spillRetryMax consecutive failures, degrade (the error still
		// surfaces to the caller this once; later checkpoints no-op).
		if s.cpFails++; s.cpFails > spillRetryMax {
			s.degrade(err)
		}
		return err
	}
	s.cpFails = 0
	s.cpLines++
	s.cpDirty = true
	return nil
}

// reserve claims a writer-pipeline slot (one per frame). It fails once
// the store is closed, so a seal can never advance state the pipeline
// will not process.
func (sp *spill) reserve() error {
	sp.qmu.Lock()
	defer sp.qmu.Unlock()
	if sp.closed {
		return fmt.Errorf("accounting: spill store closed")
	}
	sp.inflight++
	return nil
}

// degrade flips the store into bounded-in-memory retention (recording the
// cause once). Idempotent; safe from any goroutine.
func (sp *spill) degrade(cause error) {
	sp.qmu.Lock()
	if sp.degradedErr == nil {
		sp.degradedErr = cause
	}
	sp.qmu.Unlock()
	sp.degraded.Store(true)
}

// Degraded reports whether the store gave up on its directory after
// exhausting write retries (the cause comes along). It keeps serving from
// memory: appends, checkpoints and the hash chain stay live, but newly
// sealed records are dropped instead of spilled.
func (s *RecordStore) Degraded() (bool, error) {
	if s.spill == nil || !s.degraded.Load() {
		return false, nil
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return true, s.degradedErr
}

// retry runs op until it succeeds or its retry budget is spent, sleeping
// out the jittered exponential backoff schedule in between. It gives up
// early once the store is closing: Close must never wait out a dead
// disk's full retry budget.
func (sp *spill) retry(op func() error) (err error) {
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil || attempt >= spillRetryMax {
			return err
		}
		// ±50% jitter so retries from different shards don't convoy onto a
		// recovering device in lockstep.
		d := min(spillRetryBase<<attempt, spillRetryCap)
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d))))
		sp.qmu.Lock()
		closed := sp.closed
		sp.qmu.Unlock()
		if closed {
			return err
		}
	}
}

// writeLoop is one shard's spill writer: it group-commits whatever seals
// are queued, amortising the fsync across them.
func (s *RecordStore) writeLoop(shard int, ch chan *pendingFrame) {
	defer s.wg.Done()
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
		s.commitBatch(shard, batch)
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
func (s *RecordStore) commitBatch(shard int, batch []*pendingFrame) {
	if s.Persistent() {
		var idx []frameIndex
		err := s.retry(func() (err error) {
			idx, err = s.writeBatch(shard, batch)
			return err
		})
		if err == nil {
			sh := &s.shards[shard]
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
			s.degrade(err)
		}
	}
	// Written or abandoned, the encodings have no reader left.
	for _, pf := range batch {
		encBufs.Put(pf.enc)
		pf.enc = nil
	}
	s.qmu.Lock()
	s.inflight -= len(batch)
	s.qcond.Broadcast()
	s.qmu.Unlock()
}

// writeBatch lands one batch of frames with a single concatenated write,
// durable only at the next sync point (syncLocked). The very first batch
// after open syncs the checkpoint log up front — a crash may then truncate
// frames back to an anchor, but can never leave frames with no durable
// checkpoint at all.
func (sp *spill) writeBatch(shard int, batch []*pendingFrame) ([]frameIndex, error) {
	sp.faults.Hit(FaultPointWriteBatch)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	f := sp.files[shard]
	if f == nil {
		return nil, fmt.Errorf("accounting: spill store closed")
	}
	if !sp.cpSynced && sp.cpF != nil {
		if err := sp.faults.Sync(sp.cpF); err != nil {
			return nil, fmt.Errorf("accounting: sync checkpoint log: %w", err)
		}
		sp.cpDirty, sp.cpSynced = false, true
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
	if n, werr := sp.faults.Write(f, buf); werr != nil {
		if n > 0 {
			// A partial write leaves a torn frame that the next successful
			// append would bury mid-file (which recovery rejects as
			// corruption, not a torn tail). Cut the file back to the batch
			// start; if even that fails, retire the handle so no later
			// batch writes past known junk.
			if terr := sp.faults.Truncate(f, off); terr != nil {
				_ = f.Close()
				sp.files[shard] = nil
			}
		}
		return nil, fmt.Errorf("accounting: spill shard %d: %w", shard, werr)
	}
	sp.dataDirty[shard] = true
	sp.unsynced += len(buf)
	// Start writeback of the accumulated range without waiting: the
	// kernel flushes behind the appends and the next hard sync point
	// (Drain) has little left to block on.
	if sp.unhinted[shard] += int64(len(buf)); sp.unhinted[shard] >= spillHintBytes {
		hintWriteback(f, sp.hintOff[shard], end-sp.hintOff[shard])
		sp.hintOff[shard] = end
		sp.unhinted[shard] = 0
	}
	if sp.unsynced >= spillSyncBytes {
		if err := sp.syncLocked(); err != nil {
			return nil, err
		}
	}
	return idx, nil
}

// syncLocked is a deferred-durability sync point: checkpoint log first
// (recovery anchors on it), then every shard file with unsynced frames.
// Caller holds mu.
func (sp *spill) syncLocked() error {
	sp.faults.Hit(FaultPointSync)
	if sp.cpDirty && sp.cpF != nil {
		if err := sp.faults.Sync(sp.cpF); err != nil {
			return fmt.Errorf("accounting: sync checkpoint log: %w", err)
		}
		sp.cpDirty, sp.cpSynced = false, true
	}
	for shard, dirty := range sp.dataDirty {
		if !dirty {
			continue
		}
		if f := sp.files[shard]; f != nil {
			if err := sp.faults.Sync(f); err != nil {
				return fmt.Errorf("accounting: sync spill shard %d: %w", shard, err)
			}
		}
		sp.dataDirty[shard] = false
	}
	sp.unsynced = 0
	return nil
}

// Drain blocks until every reserved frame has gone through its group
// commit, forces the deferred sync point, and reports the pipeline's
// health — after Drain returns nil on a healthy store, every seal handed
// to the pipeline before the call is durable on disk. Any other store
// drains trivially (nil): its pipeline is absent or permanently idle, and
// callers must consult Degraded()/Persistent() for durability claims —
// the dump path already anchors captures from non-persistent stores.
func (s *RecordStore) Drain() error {
	if s.spill == nil {
		return nil
	}
	s.qmu.Lock()
	for s.inflight > 0 {
		s.qcond.Wait()
	}
	s.qmu.Unlock()
	if !s.Persistent() {
		return nil
	}
	err := s.retry(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.syncLocked()
	})
	if err != nil {
		// A barrier that cannot reach the disk even after the retry budget
		// degrades the store just like a failed write: the durable prefix
		// stays where the last successful sync left it.
		s.degrade(err)
	}
	return err
}

// Close shuts the writer pipeline down (draining every in-flight seal),
// then releases the spill files; the store stays readable for resident
// records. Safe to call more than once.
func (s *RecordStore) Close() error {
	if s.spill == nil {
		return nil
	}
	s.qmu.Lock()
	already := s.closed
	s.closed = true
	for s.inflight > 0 {
		s.qcond.Wait()
	}
	degradedErr := s.degradedErr
	s.qmu.Unlock()
	if !already {
		// closed is set and inflight hit zero: no seal holds a reserved
		// slot, so no sender can be blocked on (or about to enter) a
		// channel send — closing is safe.
		for _, ch := range s.chans {
			close(ch)
		}
		s.wg.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if !already && s.Persistent() {
		// Final sync point: nothing written after a drained, closed
		// pipeline, so closing durable files afterwards is safe.
		first = s.syncLocked()
	}
	for i, f := range s.files {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			s.files[i] = nil
		}
	}
	if s.cpF != nil {
		if err := s.cpF.Close(); err != nil && first == nil {
			first = err
		}
		s.cpF = nil
	}
	if first == nil {
		// A degraded store closes cleanly but still reports why it gave up
		// on durability, for callers that check.
		first = degradedErr
	}
	return first
}
