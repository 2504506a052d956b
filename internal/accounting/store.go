// Record store: bounded retention for the hash-chained ledger.
//
// A gateway serving millions of users cannot keep every record in memory.
// The store bounds what it keeps the way shielded middleboxes keep
// long-lived secure state small: the enclave retains only the unsigned
// tail, and signed checkpoints anchor everything older.
//
// Records accumulate in fixed-size in-memory segments per shard. Once a
// checkpoint covers a segment, the segment is *sealed*: its records leave
// memory — spilled first to an append-only per-shard segment file when the
// store has a directory (Retention.SpillDir), dropped outright when it has
// none or has lost it. "There never was a disk" and "the disk is gone" are
// one state, and one predicate, Persistent, tells it from the other
// wherever the two differ: Seal, PersistCheckpoint, pruneCheckpoints,
// Drain, Close and the dump path. The shard's chain head and next sequence
// number carry forward either way, so the live chain never breaks — a
// record appended after a seal still chains to the hash of a record that is
// no longer resident.
//
// This file owns the type, the resident segments and the three operations
// that span memory and disk (Seal, Get, Snapshot). spill.go owns the
// directory: manifest, writer pipeline, sync points, retry and degrade,
// the checkpoint log. recover.go owns reopening one.
package accounting

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// RecordStore is the retention layer behind a Ledger: it owns the records
// themselves, while the ledger's lanes own the chain state (head hash, next
// sequence, running totals) that carries forward when records leave memory.
//
// Records of one shard arrive in strict sequence order (the lane lock
// serialises appends); the store is safe for concurrent use across shards
// and for concurrent readers. Seals are serialised by the ledger's
// checkpoint lock.
type RecordStore struct {
	segRecords int
	shards     []shardSegs
	resident   atomic.Int64
	// spill is the directory half, nil without Retention.SpillDir: one
	// pointer, so a per-deployment ledger's store carries none of it.
	*spill
}

func newStore(shards, segRecords int) *RecordStore {
	return &RecordStore{segRecords: max(segRecords, 1), shards: make([]shardSegs, shards)}
}

// Persistent reports whether sealed records go to disk and stay reachable
// — the store has a directory and has not degraded — or are dropped for
// good; the dump path anchors captures from a store that is not.
func (s *RecordStore) Persistent() bool { return s.spill != nil && !s.degraded.Load() }

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
	// spilled is the number of durably spilled records; sealed is the
	// number handed to the spill pipeline (both stay 0 without a
	// directory). Records in [spilled, sealed) live in pending frames
	// awaiting their group commit; spilled == sealed whenever the pipeline
	// is drained.
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

// frameIndex locates one spilled frame inside a shard's segment file.
type frameIndex struct {
	base  uint64
	count uint64
	off   int64 // byte offset of the frame
	size  int64 // full frame length on disk (prefix + payload + CRC)
}

// firstSegRecords is the starting capacity of a lane's first segment.
const firstSegRecords = 8

// Append stores a freshly chained record on its shard's open segment.
func (s *RecordStore) Append(rec Record) error {
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

// Resident returns how many records are currently held in memory.
func (s *RecordStore) Resident() int { return int(s.resident.Load()) }

// dropCovered drops every resident segment whose records all lie below
// limit (caller holds sh.mu). Returns how many records left memory.
func (s *RecordStore) dropCovered(sh *shardSegs, limit uint64) int {
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

// appendRange appends to out the records of run, whose first carries
// sequence base, that fall in [from, to).
func appendRange(out, run []Record, base, from, to uint64) []Record {
	if lo, hi := max(from, base), min(to, base+uint64(len(run))); lo < hi {
		out = append(out, run[lo-base:hi-base]...)
	}
	return out
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

// Get returns the record at (shard, seq) if it is still reachable: resident
// records from memory, in-flight seals from their pending frames, and
// durable ones from their spill frame (O(frame) via the per-shard frame
// index) — receipts stay resolvable after their records leave memory.
func (s *RecordStore) Get(shard uint32, seq uint64) (Record, bool) {
	if int(shard) >= len(s.shards) {
		return Record{}, false
	}
	sh := &s.shards[shard]
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
	f, err := os.Open(s.shardPath(int(shard)))
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

// Spilled returns how many records of the shard have been sealed out of
// the resident tail into the spill pipeline (always 0 without a
// directory). Drain first if the count must also be durable.
func (s *RecordStore) Spilled(shard uint32) uint64 {
	if int(shard) >= len(s.shards) {
		return 0
	}
	sh := &s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sealed
}

// Seal releases every record the checkpoint covers and returns how many
// left the resident tail. A persistent store first builds each shard's
// not-yet-sealed covered prefix into one frame, publishes it on the shard's
// pending queue and — after dropping the covered segments — hands it to the
// shard's async writer. Frames therefore always end exactly on the sealing
// checkpoint's boundary: the property crash recovery and truncated-dump
// anchoring rely on. The channel send blocks when the writer is more than
// spillQueueDepth seals behind: backpressure lands on the compaction path,
// never on Append. Any other store only drops: the durable prefix (sealed,
// spillHead), if there is one, stays where the failure left it.
func (s *RecordStore) Seal(sc *SignedCheckpoint) (int, error) {
	spilling := s.Persistent()
	released := 0
	for i := range sc.Checkpoint.Heads {
		h := &sc.Checkpoint.Heads[i]
		if int(h.Shard) >= len(s.shards) {
			return released, fmt.Errorf("accounting: seal names shard %d of %d", h.Shard, len(s.shards))
		}
		sh := &s.shards[h.Shard]
		sh.mu.Lock()
		var pf *pendingFrame
		if spilling && h.Count > sh.sealed {
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
			if err := s.reserve(); err != nil {
				sh.mu.Unlock()
				return released, err
			}
			pf = &pendingFrame{base: sh.sealed, count: h.Count - sh.sealed, runs: runs, enc: encBufs.Get().(*[]byte)}
			*pf.enc = appendBinFrame((*pf.enc)[:0], &frame, runs...)
			sh.pending = append(sh.pending, pf)
			sh.sealed = h.Count
			sh.spillHead, sh.spillTotals = frame.Head, frame.Totals
		}
		released += s.dropCovered(sh, h.Count)
		sh.mu.Unlock()
		if pf != nil {
			// Blocking send outside sh.mu: the writer needs sh.mu to
			// commit finished batches. Seals are serialised by the
			// ledger's checkpoint lock, so send order matches the pending
			// queue order the writer commits against.
			s.chans[h.Shard] <- pf
		}
	}
	return released, nil
}

// Snapshot pins the shard's reachable records with sequence in [from, to)
// — spilled frame locations (immutable in the append-only file) plus
// copies of the pending frames' records and the resident suffix — and
// returns a closure that replays them in order with no store locks held,
// spilled frames straight off disk, one in memory at a time: a slow
// consumer never blocks appends or compactions, and a concurrent Seal may
// release the records meanwhile. The *Record handed to fn is valid for
// that call only — spilled records are decoded into storage the next frame
// overwrites, and a resident record's Signature is the store's own — so fn
// copies what it keeps. Snapshot fails if [from, to) reaches below the
// earliest reachable sequence.
func (s *RecordStore) Snapshot(shard uint32, from, to uint64) (func(fn func(*Record) error) error, error) {
	sn, err := s.snapshot(shard, from, to)
	if err != nil {
		return nil, err
	}
	return sn.replay, nil
}

// shardSnapshot is what Snapshot pins: the spill frames and the copied
// tail that hold a shard's records in [from, to).
type shardSnapshot struct {
	shard    uint32
	from, to uint64
	spilled  uint64       // records below it are in frames
	path     string       // the shard's segment file, when spilled > 0
	frames   []frameIndex // the shard's frames at the snapshot
	tail     []Record     // the rest of the range, copied
}

func (s *RecordStore) snapshot(shard uint32, from, to uint64) (*shardSnapshot, error) {
	if int(shard) >= len(s.shards) {
		return nil, fmt.Errorf("accounting: snapshot names shard %d of %d", shard, len(s.shards))
	}
	sh := &s.shards[shard]
	sh.mu.Lock()
	sn := &shardSnapshot{shard: shard, from: from, to: to,
		spilled: sh.spilled, frames: append([]frameIndex(nil), sh.frames...)}
	if sn.spilled > 0 {
		sn.path = s.shardPath(int(shard))
	}
	// Pending frames cover [spilled, sealed) and the resident segments
	// the rest; copy the overlap with the request so the snapshot survives
	// the frames landing (and leaving the pending queue) and the segments
	// being released mid-replay.
	for _, pf := range sh.pending {
		seq := pf.base
		for _, run := range pf.runs {
			sn.tail = appendRange(sn.tail, run, seq, from, to)
			seq += uint64(len(run))
		}
	}
	lo := max(from, sh.sealed)
	if lo < min(to, sh.next) && lo < sh.dropped {
		sh.mu.Unlock()
		return nil, fmt.Errorf("accounting: store snapshot from %d below earliest resident %d", lo, sh.dropped)
	}
	for _, seg := range sh.segs {
		sn.tail = appendRange(sn.tail, seg.recs, seg.base, lo, to)
	}
	sh.mu.Unlock()
	return sn, nil
}

// eachFrame hands fn, in order, every spilled frame holding records of the
// range, with the shard's segment file open; fn reports whether its frame
// reached the end of the range.
func (sn *shardSnapshot) eachFrame(fn func(f *os.File, fi frameIndex) (done bool, err error)) error {
	if sn.from >= sn.spilled {
		return nil
	}
	f, err := os.Open(sn.path)
	if err != nil {
		return fmt.Errorf("accounting: open spill shard %d: %w", sn.shard, err)
	}
	defer f.Close()
	for _, fi := range sn.frames {
		if fi.base+fi.count <= sn.from {
			continue
		}
		if fi.base >= sn.to {
			return nil
		}
		if done, err := fn(f, fi); done || err != nil {
			return err
		}
	}
	return nil
}

// replay hands fn the snapshot's records in order, spilled ones decoded a
// frame at a time into storage the next frame overwrites.
func (sn *shardSnapshot) replay(fn func(*Record) error) error {
	var d frameReader
	err := sn.eachFrame(func(f *os.File, fi frameIndex) (bool, error) {
		frame, err := d.at(f, fi)
		if err != nil {
			return false, err
		}
		for i := range frame.Records {
			seq := fi.base + uint64(i)
			if seq < sn.from {
				continue
			}
			if seq >= sn.to {
				return true, nil
			}
			if err := fn(&frame.Records[i]); err != nil {
				return false, err
			}
		}
		return false, nil
	})
	if err != nil {
		return err
	}
	return replaySlice(sn.tail)(fn)
}

// writeTo streams the snapshot's records into a dump container: spilled
// records copied from their frames as they lie on disk, read and checked a
// frame ahead of the writes, then the tail encoded.
func (sn *shardSnapshot) writeTo(cw *containerWriter) error {
	err := copyAhead(func(emit func([]byte) ([]byte, error)) error {
		var d frameReader
		var buf []byte
		return sn.eachFrame(func(f *os.File, fi frameIndex) (done bool, err error) {
			if buf, done, err = d.gatherFrame(buf, f, fi, sn.from, sn.to); err != nil {
				return false, err
			}
			buf, err = emit(buf)
			return done, err
		})
	}, cw.write)
	if err != nil {
		return err
	}
	for i := range sn.tail {
		if err := cw.record(&sn.tail[i]); err != nil {
			return err
		}
	}
	return nil
}
