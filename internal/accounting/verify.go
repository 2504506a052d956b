// Offline ledger verification (paper §3.3/§3.5: after attestation, "both
// parties" can check the accounting log without trusting the provider).
//
// A Dump is the serialised ledger. Since the bounded-retention refactor it
// may be *anchored*: records below a signed checkpoint are omitted and
// each shard's chain starts at the anchor's per-shard counts, chaining
// from the anchor's carried-forward heads — the anchor's signature stands
// in for the truncated prefix. Verification replays whatever the dump
// contains, checking
//
//   - per-shard hash-chain continuity from the carried-forward head (every
//     record's PrevHash equals the previous record's recomputed hash — a
//     single flipped byte anywhere breaks the chain at that point),
//   - per-shard gap-free sequence numbers starting at the anchor counts
//     (0 for a from-genesis dump),
//   - checkpoint signatures against the attested enclave key and
//     measurement, checkpoint chaining from the anchor, and that every
//     checkpoint head matches the replayed chain state at its covered
//     count,
//   - totals reconstruction: each checkpoint's aggregate equals the
//     anchor's aggregate plus the deterministic re-aggregation of exactly
//     the records between anchor and checkpoint,
//   - eager per-record signatures where present.
//
// The engine is incremental (verifyCore): it consumes one record at a
// time, in input order, and keeps O(shards + checkpoints) state, never the
// records themselves. There are two serialised inputs and one entry point
// for each: VerifyReader drives the engine straight off a dump container,
// and VerifySpillDir replays a ledger's spill directory frame by frame;
// both feed it through the hash-ahead stage below, which hashes records on
// every core ahead of the in-order checks, in memory bounded by the
// batches in flight. VerifyDump feeds it from an in-memory Dump, hashing
// as it goes: the sequential replay the stage is tested against. The byte
// layouts of both inputs belong to codec.go; nothing here parses them.
package accounting

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"acctee/internal/sgx"
)

// MaxDumpShards bounds the shard count a dump may declare, far above any
// real configuration (the ledger defaults to one lane per CPU).
const MaxDumpShards = 1 << 16

// Dump is a ledger dump in memory: the dumped records in deterministic
// merge order (ascending shard, then lane-local sequence), the checkpoints
// covering them, and the identity to verify against. The embedded public
// key is a convenience transport — a suspicious verifier substitutes the
// key it attested itself. Anchor, when present, is the signed checkpoint
// the dump is truncated at: records it covers are omitted and each
// shard's chain carries forward from the anchor's heads.
//
// With Records empty, its JSON is also the header of the serialised form,
// the dump container (codec.go), whose records follow in binary.
type Dump struct {
	Format      string             `json:"format"`
	Shards      int                `json:"shards"`
	Measurement sgx.Measurement    `json:"measurement"`
	PublicKey   []byte             `json:"publicKey"` // PKIX DER
	Anchor      *SignedCheckpoint  `json:"anchor,omitempty"`
	Checkpoints []SignedCheckpoint `json:"checkpoints"`
	// Pruned declares that checkpoint-chain pruning may have removed
	// entries: the verifier then tolerates sequence gaps between
	// checkpoints (adjacent survivors still chain by hash, and every
	// survivor's signature, heads and totals are fully checked). An
	// undeclared gap remains a hard error — dropping a checkpoint from an
	// unpruned dump is tampering.
	Pruned  bool     `json:"prunedCheckpoints,omitempty"`
	Records []Record `json:"records"`
}

// MarshalPublicKey encodes an ECDSA public key as PKIX DER for a dump.
func MarshalPublicKey(pub *ecdsa.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("accounting: marshal public key: %w", err)
	}
	return der, nil
}

// ParsePublicKey decodes a dump's PKIX DER public key.
func ParsePublicKey(der []byte) (*ecdsa.PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("accounting: parse public key: %w", err)
	}
	pub, ok := k.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("accounting: dump key is %T, want *ecdsa.PublicKey", k)
	}
	return pub, nil
}

// JSON renders the dump for a human reader. It is not an input format:
// nothing parses it back.
func (d *Dump) JSON() ([]byte, error) { return json.MarshalIndent(d, "", " ") }

// ReadDump materialises a dump container. It parses and does not verify:
// hand the result to VerifyDump, or verify the container itself with
// VerifyReader.
func ReadDump(r io.Reader) (*Dump, error) {
	var d *Dump
	err := readDumpContainer(r,
		func(h *Dump) error { d = h; return nil },
		func(rec *Record) error { d.Records = append(d.Records, *rec); return nil })
	if err != nil {
		return nil, err
	}
	return d, nil
}

// VerifyResult summarises a successful offline verification.
type VerifyResult struct {
	Shards      int
	Records     int
	Checkpoints int
	// EagerSignatures counts records that carried (verified) per-record
	// signatures.
	EagerSignatures int
	// Totals is the cumulative aggregate since genesis: the anchor's
	// signed totals plus the replay over every record in the dump.
	Totals UsageLog
	// CoveredRecords is how many records (absolute, since genesis) the
	// latest fully verified checkpoint vouches for; records beyond it
	// chain correctly but are not yet signed.
	CoveredRecords uint64
	// Anchored reports a truncated dump; AnchorSequence is the anchoring
	// checkpoint's sequence number and StartRecords how many records it
	// carries forward (omitted from the dump, vouched for by signature).
	Anchored       bool
	AnchorSequence uint64
	StartRecords   uint64
	// BeyondHorizon counts checkpoints whose coverage exceeds the verified
	// input. Only spill-directory verification tolerates these (signed
	// after the last seal, covering records that were never spilled);
	// their signatures and chaining are still checked.
	BeyondHorizon int
	// PrunedCheckpointGaps counts sequence gaps in the checkpoint chain
	// that the input declared as pruning (Dump.Pruned / the spill
	// manifest's prunedCheckpoints flag). Always 0 for unpruned inputs —
	// there a gap fails verification outright.
	PrunedCheckpointGaps int
}

// VerifyOptions tune offline verification.
type VerifyOptions struct {
	// Key overrides the dump-embedded public key (the attested key a
	// verifier obtained out of band).
	Key *ecdsa.PublicKey
	// Measurement, when non-zero, must match the dump's measurement (the
	// audited accounting-enclave identity).
	Measurement sgx.Measurement
}

// verifyCore replays a dump incrementally: header and checkpoints first,
// then one record at a time, in O(shards + checkpoints) state.
type verifyCore struct {
	pub         *ecdsa.PublicKey
	meas        sgx.Measurement
	anchor      *SignedCheckpoint
	cps         []SignedCheckpoint
	allowBeyond bool
	allowGaps   bool

	next      []uint64
	head      [][32]byte
	cpPtr     []int
	deltas    []UsageLog // per-checkpoint aggregate of newly covered records
	tail      UsageLog   // records beyond every checkpoint
	prevShard int
	scratch   [recordMarshalSize]byte // record's marshal buffer

	res *VerifyResult
}

// newVerifyCore validates the header, anchor and checkpoint chain and
// prepares the per-shard replay state. allowGaps tolerates sequence gaps
// between checkpoints — set only when the input declares checkpoint-chain
// pruning; adjacent-sequence checkpoints must hash-chain regardless.
func newVerifyCore(pub *ecdsa.PublicKey, meas sgx.Measurement, shards int,
	anchor *SignedCheckpoint, cps []SignedCheckpoint, allowBeyond, allowGaps bool) (*verifyCore, error) {
	if shards <= 0 || shards > MaxDumpShards {
		// The bound keeps a hand-crafted hostile dump from sizing the
		// verifier's lane state arbitrarily (the verifier is explicitly
		// meant for adversarial inputs).
		return nil, fmt.Errorf("accounting: dump declares %d shards (want 1..%d)", shards, MaxDumpShards)
	}
	c := &verifyCore{
		pub: pub, meas: meas, anchor: anchor, cps: cps,
		allowBeyond: allowBeyond, allowGaps: allowGaps,
		next:      make([]uint64, shards),
		head:      make([][32]byte, shards),
		cpPtr:     make([]int, shards),
		deltas:    make([]UsageLog, len(cps)),
		res:       &VerifyResult{Shards: shards, Checkpoints: len(cps)},
		prevShard: -1,
	}
	checkHeads := func(cp *Checkpoint, what string) error {
		if len(cp.Heads) != shards {
			return fmt.Errorf("accounting: %s %d covers %d shards, dump has %d", what, cp.Sequence, len(cp.Heads), shards)
		}
		for j := range cp.Heads {
			if cp.Heads[j].Shard != uint32(j) {
				return fmt.Errorf("accounting: %s %d heads out of shard order at %d", what, cp.Sequence, j)
			}
		}
		return nil
	}
	var prevHash [32]byte
	var prevSeq uint64
	havePrev := false
	prevCounts := make([]uint64, shards)
	if anchor != nil {
		if err := VerifyCheckpointSig(*anchor, pub, meas); err != nil {
			return nil, fmt.Errorf("accounting: anchor checkpoint %d: %w", anchor.Checkpoint.Sequence, err)
		}
		if err := checkHeads(&anchor.Checkpoint, "anchor checkpoint"); err != nil {
			return nil, err
		}
		for j := range anchor.Checkpoint.Heads {
			h := &anchor.Checkpoint.Heads[j]
			c.next[j] = h.Count
			c.head[j] = h.Head
			prevCounts[j] = h.Count
		}
		prevHash = anchor.Checkpoint.Hash()
		prevSeq = anchor.Checkpoint.Sequence
		havePrev = true
		c.res.Anchored = true
		c.res.AnchorSequence = anchor.Checkpoint.Sequence
		c.res.StartRecords = anchor.Checkpoint.Covered()
	}
	for i := range cps {
		sc := &cps[i]
		cp := &sc.Checkpoint
		if err := VerifyCheckpointSig(*sc, pub, meas); err != nil {
			return nil, fmt.Errorf("accounting: checkpoint %d: %w", cp.Sequence, err)
		}
		// Chain linkage. Adjacent sequences must hash-chain no matter
		// what; a sequence gap is tolerated (and counted) only when the
		// input declared pruning — an undeclared missing checkpoint is
		// tampering, not history management.
		switch {
		case !havePrev:
			if cp.Sequence == 0 {
				if cp.PrevHash != prevHash {
					return nil, fmt.Errorf("accounting: checkpoint 0 breaks the checkpoint chain")
				}
			} else if c.allowGaps {
				c.res.PrunedCheckpointGaps++
			} else {
				return nil, fmt.Errorf("accounting: first checkpoint carries sequence %d, want 0", cp.Sequence)
			}
		case cp.Sequence <= prevSeq:
			return nil, fmt.Errorf("accounting: checkpoint chain runs backwards at %d", cp.Sequence)
		case cp.Sequence == prevSeq+1:
			if cp.PrevHash != prevHash {
				return nil, fmt.Errorf("accounting: checkpoint %d breaks the checkpoint chain", cp.Sequence)
			}
		default:
			if !c.allowGaps {
				return nil, fmt.Errorf("accounting: checkpoint %d breaks the checkpoint chain (gap after %d)", cp.Sequence, prevSeq)
			}
			c.res.PrunedCheckpointGaps++
		}
		prevHash = cp.Hash()
		prevSeq = cp.Sequence
		havePrev = true
		if err := checkHeads(cp, "checkpoint"); err != nil {
			return nil, err
		}
		for j := range cp.Heads {
			if cp.Heads[j].Count < prevCounts[j] {
				return nil, fmt.Errorf("accounting: checkpoint %d rewinds shard %d from %d to %d records",
					cp.Sequence, j, prevCounts[j], cp.Heads[j].Count)
			}
			prevCounts[j] = cp.Heads[j].Count
		}
	}
	// Settle boundaries that coincide with the carried-forward start: a
	// checkpoint covering exactly the anchor counts must carry the
	// anchor's heads.
	for s := 0; s < shards; s++ {
		if err := c.advance(s); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// advance settles every checkpoint boundary the shard's replay cursor has
// reached: at count == next the checkpoint's head must equal the replayed
// chain head.
func (c *verifyCore) advance(s int) error {
	for c.cpPtr[s] < len(c.cps) {
		cp := &c.cps[c.cpPtr[s]].Checkpoint
		cnt := cp.Heads[s].Count
		if cnt > c.next[s] {
			break
		}
		if cnt < c.next[s] {
			return fmt.Errorf("accounting: checkpoint %d covers %d records of shard %d behind the replay cursor %d",
				cp.Sequence, cnt, s, c.next[s])
		}
		if cp.Heads[s].Head != c.head[s] {
			return fmt.Errorf("accounting: checkpoint %d head of shard %d does not match the replayed chain",
				cp.Sequence, s)
		}
		c.cpPtr[s]++
	}
	return nil
}

// replay consumes the next record of an in-memory dump: marshalled and
// hashed here, then checked.
func (c *verifyCore) replay(r *Record) error {
	m := r.appendMarshal(c.scratch[:0])
	return c.record(r, m, sha256.Sum256(m))
}

// record consumes the next record in merge order: m is its marshalled
// form, which the hash and an eager signature cover, and h the SHA-256 of
// m.
func (c *verifyCore) record(r *Record, m []byte, h [32]byte) error {
	i := c.res.Records
	c.res.Records++
	if int(r.Shard) >= c.res.Shards {
		return fmt.Errorf("accounting: record %d names shard %d of %d", i, r.Shard, c.res.Shards)
	}
	if int(r.Shard) < c.prevShard {
		return fmt.Errorf("accounting: records not in merge order at index %d (shard %d after %d)",
			i, r.Shard, c.prevShard)
	}
	c.prevShard = int(r.Shard)
	s := int(r.Shard)
	if r.Log.Sequence != c.next[s] {
		return fmt.Errorf("accounting: shard %d sequence gap: record %d, want %d",
			r.Shard, r.Log.Sequence, c.next[s])
	}
	if r.PrevHash != c.head[s] {
		return fmt.Errorf("accounting: shard %d record %d breaks the hash chain (prev hash mismatch)",
			r.Shard, r.Log.Sequence)
	}
	if h != r.Hash {
		return fmt.Errorf("accounting: shard %d record %d content does not match its hash",
			r.Shard, r.Log.Sequence)
	}
	if len(r.Signature) > 0 {
		if !sgx.VerifyBy(c.pub, m, r.Signature) {
			return fmt.Errorf("accounting: shard %d record %d: %w", r.Shard, r.Log.Sequence, ErrBadLogSignature)
		}
		c.res.EagerSignatures++
	}
	// Attribute the record to the first checkpoint that covers it (after
	// advance, cpPtr is the first boundary strictly above the cursor).
	if idx := c.cpPtr[s]; idx < len(c.cps) {
		aggregate(&c.deltas[idx], &r.Log)
	} else {
		aggregate(&c.tail, &r.Log)
	}
	c.head[s] = h
	c.next[s]++
	return c.advance(s)
}

// finish checks that every checkpoint boundary was reached and that
// totals reconstruct, then fills the result.
func (c *verifyCore) finish() (*VerifyResult, error) {
	settled := len(c.cps)
	for s := 0; s < c.res.Shards; s++ {
		if c.cpPtr[s] < settled {
			settled = c.cpPtr[s]
		}
	}
	if settled < len(c.cps) && !c.allowBeyond {
		cp := &c.cps[settled].Checkpoint
		for s := range c.next {
			if cp.Heads[s].Count > c.next[s] {
				return nil, fmt.Errorf("accounting: checkpoint %d covers %d records of shard %d, dump has %d",
					cp.Sequence, cp.Heads[s].Count, s, c.next[s])
			}
		}
	}
	c.res.BeyondHorizon = len(c.cps) - settled
	// Totals reconstruction: each fully reached checkpoint's aggregate
	// must equal the anchor's aggregate plus the deltas of every
	// checkpoint up to it. Aggregation is associative and commutative
	// (sums, max, counts), so prefix-merging the per-checkpoint deltas
	// reproduces the from-genesis fold exactly.
	var running UsageLog
	if c.anchor != nil {
		running = c.anchor.Checkpoint.Totals
	}
	cumulative := running
	for i := range c.cps {
		d := c.deltas[i]
		merge(&cumulative, &d)
		if i < settled {
			merge(&running, &d)
			if running != c.cps[i].Checkpoint.Totals {
				return nil, fmt.Errorf("accounting: checkpoint %d totals do not reconstruct from the covered records",
					c.cps[i].Checkpoint.Sequence)
			}
		}
	}
	merge(&cumulative, &c.tail)
	c.res.Totals = cumulative
	if settled > 0 {
		c.res.CoveredRecords = c.cps[settled-1].Checkpoint.Covered()
	} else if c.anchor != nil {
		c.res.CoveredRecords = c.anchor.Checkpoint.Covered()
	}
	return c.res, nil
}

// resolveKey picks the verification key: caller-supplied, else the
// dump-embedded one.
func resolveKey(opts VerifyOptions, der []byte) (*ecdsa.PublicKey, error) {
	if opts.Key != nil {
		return opts.Key, nil
	}
	return ParsePublicKey(der)
}

// checkMeasurement enforces the caller's expected enclave identity.
func checkMeasurement(opts VerifyOptions, got sgx.Measurement) error {
	if opts.Measurement != (sgx.Measurement{}) && got != opts.Measurement {
		return fmt.Errorf("accounting: dump measurement %s does not match expected %s: %w",
			got, opts.Measurement, sgx.ErrWrongMeasurement)
	}
	return nil
}

// newDumpCore starts a replay from a dump header: key and measurement
// resolved against opts, anchor and checkpoint chain verified.
func newDumpCore(d *Dump, opts VerifyOptions) (*verifyCore, error) {
	pub, err := resolveKey(opts, d.PublicKey)
	if err != nil {
		return nil, err
	}
	if err := checkMeasurement(opts, d.Measurement); err != nil {
		return nil, err
	}
	return newVerifyCore(pub, d.Measurement, d.Shards, d.Anchor, d.Checkpoints, false, d.Pruned)
}

// VerifyDump replays an in-memory ledger dump offline. It returns the
// first integrity violation found, localised to shard/sequence where
// possible.
func VerifyDump(d *Dump, opts VerifyOptions) (*VerifyResult, error) {
	core, err := newDumpCore(d, opts)
	if err != nil {
		return nil, err
	}
	for i := range d.Records {
		if err := core.replay(&d.Records[i]); err != nil {
			return nil, err
		}
	}
	return core.finish()
}

// VerifyReader verifies a dump container straight off the reader without
// materialising the record array: the header and checkpoints are checked
// first, then the record stream goes through the hash-ahead stage — memory
// bounded by the batches in flight, however large the ledger grew. r is
// read on a goroutine of the call's own, which has exited when it returns.
func VerifyReader(r io.Reader, opts VerifyOptions) (*VerifyResult, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	d, err := readDumpHeader(br)
	if err != nil {
		return nil, err
	}
	core, err := newDumpCore(d, opts)
	if err != nil {
		return nil, err
	}
	return core.run(func(p *hashAhead) error { return readDumpRecords(br, p.add) })
}

// VerifySpillDir replays a ledger's spill directory offline, frame by
// frame: the manifest supplies the identity, checkpoints.jsonl the signed
// chain, and every spilled record is re-hashed against it — a single
// flipped byte in any segment file fails verification. A shard file may
// end in a frame cut short by a crash mid-group-commit (the residue
// recovery truncates): the frames before it are intact, and any
// checkpoint reaching into the torn part is reported in BeyondHorizon,
// not as a false tamper alarm on an honest crashed ledger. So are
// checkpoints signed after the last seal, which cover records that were
// never spilled; their signatures and chaining are still verified.
func VerifySpillDir(dir string, opts VerifyOptions) (*VerifyResult, error) {
	m, err := readSpillManifest(dir)
	if err != nil {
		return nil, err
	}
	pub, err := resolveKey(opts, m.PublicKey)
	if err != nil {
		return nil, err
	}
	if err := checkMeasurement(opts, m.Measurement); err != nil {
		return nil, err
	}
	if m.Shards <= 0 || m.Shards > MaxDumpShards {
		return nil, fmt.Errorf("accounting: spill declares %d shards (want 1..%d)", m.Shards, MaxDumpShards)
	}
	cps, _, err := readSpillCheckpoints(dir, m.Shards, m.Pruned) // a torn tail is crash residue, as a torn frame is
	if err != nil {
		return nil, err
	}
	core, err := newVerifyCore(pub, m.Measurement, m.Shards, nil, cps, true, m.Pruned)
	if err != nil {
		return nil, err
	}
	return core.run(func(p *hashAhead) error {
		for shard := 0; shard < m.Shards; shard++ {
			_, err := walkFrameViews(filepath.Join(dir, shardFileName(shard)), func(v *frameView, _, _ int64) error {
				for i := range v.ends {
					if err := p.add(v.record(i)); err != nil {
						return err
					}
				}
				p.stamp(shard, v.Head, v.Totals)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// The hash-ahead stage. Hashing is most of what verification costs, and a
// record's hash depends on nothing but its own bytes, while every other
// check depends on the records before it. So the stage splits the two. One
// goroutine reads the input and cuts it into batches of raw records: each
// record's wire encoding, whose first recordMarshalSize bytes are exactly
// what the chain hashes (codec.go). GOMAXPROCS hashers hash whole batches
// in place, in any order. The calling goroutine takes the batches strictly
// in input order and runs the checks with the hashes already computed. The
// first bad record in input order therefore fails verification with the
// error a one-record-at-a-time replay reports, and a parse error ends it
// only once every record before it has passed. A fixed set of batches
// circulates, so memory is bounded by the batches in flight, not by the
// record count.
const (
	aheadRecords = 1024      // records per batch
	aheadBytes   = 256 << 10 // bytes per batch, beyond its first record
)

// rawBatch is one run of raw records through the stage.
type rawBatch struct {
	buf    []byte     // the records' wire encodings, back to back
	ends   []int      // end offset in buf of each record
	sums   [][32]byte // each record's hash, filled by a hasher
	stamps []batchStamp
	// err is what ended the input after these records; nil in the last
	// batch of an input read to its clean end.
	err error
	// hashed carries one token per pass, sent once a hasher has filled
	// sums; its one slot lets the hasher move on without waiting.
	hashed chan struct{}
}

// batchStamp is the head/totals stamp of a spill frame whose last record
// is the batch's record last; file is the frame's shard file.
type batchStamp struct {
	last, file int
	frameStamp
}

// hashAhead runs the stage for one verification. The reader owns cur and
// fills it through add and stamp.
type hashAhead struct {
	free  chan *rawBatch // checked batches, back to the reader
	work  chan *rawBatch // filled batches, to the hashers
	order chan *rawBatch // filled batches, to the checks in input order
	quit  chan struct{}  // closed when the checks stop early
	cur   *rawBatch
	wg    sync.WaitGroup
}

// errStopped ends the reader once the checks have stopped.
var errStopped = errors.New("accounting: verification stopped")

// run verifies the records read drives through the stage, then settles the
// checkpoints. Every goroutine it starts has exited when it returns.
func (c *verifyCore) run(read func(*hashAhead) error) (*VerifyResult, error) {
	workers := runtime.GOMAXPROCS(0)
	// A batch being filled, one being checked, and two per hasher.
	inflight := 2*workers + 2
	p := &hashAhead{
		free:  make(chan *rawBatch, inflight),
		work:  make(chan *rawBatch, inflight),
		order: make(chan *rawBatch, inflight),
		quit:  make(chan struct{}),
	}
	for range inflight {
		p.free <- &rawBatch{hashed: make(chan struct{}, 1)}
	}
	p.wg.Add(workers + 1)
	for range workers {
		go p.hash()
	}
	go p.read(read)
	err := c.check(p)
	close(p.quit)
	p.wg.Wait()
	if err != nil {
		return nil, err
	}
	return c.finish()
}

// read runs the reader and hands on its last batch with its error. The
// channels hold every batch there is, so no send blocks.
func (p *hashAhead) read(read func(*hashAhead) error) {
	defer p.wg.Done()
	defer close(p.work)
	defer close(p.order)
	err := p.take()
	if err == nil {
		err = read(p)
	}
	if err == errStopped {
		return
	}
	p.cur.err = err
	p.send()
}

// take makes a free batch the one being filled, waiting for the checks to
// hand one back.
func (p *hashAhead) take() error {
	select {
	case b := <-p.free:
		b.buf, b.ends, b.stamps, b.err = b.buf[:0], b.ends[:0], b.stamps[:0], nil
		p.cur = b
		return nil
	case <-p.quit:
		return errStopped
	}
}

func (p *hashAhead) send() {
	p.order <- p.cur
	p.work <- p.cur
}

// add copies one record's wire encoding into the batch being filled,
// handing the batch on first if the record does not fit.
func (p *hashAhead) add(rec []byte) error {
	if b := p.cur; len(b.ends) == aheadRecords || len(b.buf) > 0 && len(b.buf)+len(rec) > aheadBytes {
		p.send()
		if err := p.take(); err != nil {
			return err
		}
	}
	b := p.cur
	if cap(b.buf) == 0 {
		// Sized on first use, so an input of one small batch allocates one
		// small batch; grown by append, a full one would be allocated about
		// five times over.
		b.buf, b.ends = make([]byte, 0, aheadBytes), make([]int, 0, aheadRecords)
	}
	b.buf = append(b.buf, rec...)
	b.ends = append(b.ends, len(b.buf))
	return nil
}

// stamp records a spill frame's head/totals stamp; the frame's last record
// is the last one added.
func (p *hashAhead) stamp(file int, head [32]byte, totals UsageLog) {
	b := p.cur
	b.stamps = append(b.stamps, batchStamp{last: len(b.ends) - 1, file: file, frameStamp: frameStamp{head, totals}})
}

// hash is one hasher: each batch's records hashed where they lie.
func (p *hashAhead) hash() {
	defer p.wg.Done()
	for b := range p.work {
		b.sums = slices.Grow(b.sums[:0], len(b.ends))[:len(b.ends)]
		start := 0
		for i, end := range b.ends {
			b.sums[i] = sha256.Sum256(b.buf[start : start+recordMarshalSize])
			start = end
		}
		b.hashed <- struct{}{}
	}
}

// check runs the in-order checks on every batch, and on a spill
// directory's frames their head/totals stamps: each stamp must equal the
// chain head and running totals of its shard file after the frame.
func (c *verifyCore) check(p *hashAhead) error {
	var rec Record
	var frame UsageLog   // the current frame's records so far
	var sofar frameStamp // the current shard file's head and totals
	file := -1
	for b := range p.order {
		<-b.hashed
		start, st := 0, b.stamps
		for i, end := range b.ends {
			raw := b.buf[start:end]
			start = end
			viewRecordBin(raw, &rec)
			if err := c.record(&rec, raw[:recordMarshalSize], b.sums[i]); err != nil {
				return err
			}
			aggregate(&frame, &rec.Log)
			if len(st) > 0 && st[0].last == i { // frames are never empty: one stamp at most
				if st[0].file != file {
					file, sofar = st[0].file, frameStamp{}
				}
				merge(&sofar.totals, &frame)
				sofar.head, frame = rec.Hash, UsageLog{}
				if st[0].frameStamp != sofar {
					return fmt.Errorf("accounting: spill shard %d: frame head/totals stamp mismatch", file)
				}
				st = st[1:]
			}
		}
		if b.err != nil {
			return b.err
		}
		p.free <- b
	}
	return nil
}
