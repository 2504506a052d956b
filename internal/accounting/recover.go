// Reopening a spill directory: read, plan, apply — in that order.
//
// Seals write frames up to exactly the sealing checkpoint's per-shard
// covered counts, so at rest the spilled prefix of every shard ends on a
// checkpoint boundary. Recovery replays the frames structurally — sequence
// continuity, prev-hash linkage, head/totals consistency — and anchors the
// rebuilt state at the last persisted checkpoint whose coverage the spill
// actually contains, cutting any unanchored trailing frames or checkpoints
// a crash (possibly mid-group-commit) left behind. Byte-level integrity
// (recomputing every record hash against the checkpoint signature chain)
// is the verifier's job: VerifySpillDir / `acctee-verify -spill`.
//
// scanShardFile and readSpillCheckpoints only read. planRecovery is a pure
// function of what they found: it picks the anchor, decides every cut and
// holds the result against the anchor's signed heads and totals, so every
// reason to refuse a directory is known before recover writes its first
// byte, and a refused directory is left exactly as it was found.
package accounting

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// recoveredState is what recovery rebuilt from a non-empty spill
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

// frameStamp is the chain state a frame vouches for once its records have
// been replayed against it: the shard's head and running totals after it.
type frameStamp struct {
	head   [32]byte
	totals UsageLog
}

// shardScan is what a structural replay of one shard's segment file
// yields: the index of its whole frames and each one's verified stamp —
// the shard's state at every place the file can be cut.
type shardScan struct {
	frames []frameIndex
	stamps []frameStamp
}

// after returns the shard's state behind its first k frames: the next
// sequence, the stamp, and the byte offset the k-th frame ends at.
func (s *shardScan) after(k int) (next uint64, st frameStamp, end int64) {
	if k == 0 {
		return
	}
	fi := &s.frames[k-1]
	return fi.base + fi.count, s.stamps[k-1], fi.off + fi.size
}

// boundary returns how many frames hold records below n, and whether they
// end exactly at n — the spill can only be cut between frames.
func (s *shardScan) boundary(n uint64) (k int, ok bool) {
	k = sort.Search(len(s.frames), func(i int) bool { return s.frames[i].base+s.frames[i].count > n })
	next, _, _ := s.after(k)
	return k, next == n
}

// scanShardFile structurally replays one shard's segment file: frames must
// be contiguous runs with internally consistent sequences, prev-hash
// linkage and head/totals stamps. A torn tail is simply not in the scan.
func scanShardFile(path string, shard uint32) (s shardScan, err error) {
	var next uint64
	var st frameStamp
	_, err = walkFrames(path, func(fr *spillFrame, off, size int64) error {
		if fr.Shard != shard || fr.Base != next || len(fr.Records) == 0 {
			return fmt.Errorf(
				"accounting: spill shard %d frame at offset %d out of order (base %d, want %d)",
				shard, off, fr.Base, next)
		}
		for i := range fr.Records {
			r := &fr.Records[i]
			if r.Shard != shard || r.Log.Sequence != next {
				return fmt.Errorf(
					"accounting: spill shard %d record %d out of sequence (want %d)", shard, r.Log.Sequence, next)
			}
			if r.PrevHash != st.head {
				return fmt.Errorf(
					"accounting: spill shard %d record %d breaks the hash chain", shard, next)
			}
			st.head = r.Hash
			aggregate(&st.totals, &r.Log)
			next++
		}
		if fr.Head != st.head || fr.Totals != st.totals {
			return fmt.Errorf(
				"accounting: spill shard %d frame at offset %d head/totals stamp mismatch", shard, off)
		}
		s.frames = append(s.frames, frameIndex{base: fr.Base, count: uint64(len(fr.Records)), off: off, size: size})
		s.stamps = append(s.stamps, st)
		return nil
	})
	return s, err
}

// scanShards scans every shard file of dir. The per-shard chains are
// independent, so the files are scanned concurrently, GOMAXPROCS at a time
// (each scan holds one frame).
func scanShards(dir string, shards int) ([]shardScan, error) {
	scans := make([]shardScan, shards)
	errs := make([]error, shards)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range scans {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			scans[i], errs[i] = scanShardFile(filepath.Join(dir, shardFileName(i)), uint32(i))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err // the lowest failing shard's, whichever scan finished first
		}
	}
	return scans, nil
}

// recoveryPlan is everything recover writes, decided beforehand.
type recoveryPlan struct {
	recoveredState
	keep       []int   // per shard: how many frames stay
	cut        []int64 // per shard: the offset its file is cut at
	rewriteLog bool    // the checkpoint log is replaced by Checkpoints
}

// planRecovery decides what a directory recovers to, or why it cannot.
// cps is the persisted checkpoint chain as read; tornLog says the log ends
// in bytes that are no checkpoint line.
func planRecovery(scans []shardScan, cps []SignedCheckpoint, tornLog bool) (*recoveryPlan, error) {
	// The anchor is the last persisted checkpoint the spill fully
	// contains AND whose per-shard counts land on frame boundaries —
	// periodic checkpoints signed between seals can be contained yet fall
	// mid-frame. Later checkpoints covered records that were resident at
	// crash time; they are discarded along with any frames a mid-seal crash
	// wrote past the anchor (at most the last group commit can be torn).
	anchor := len(cps) - 1
search:
	for ; anchor >= 0; anchor-- {
		for _, h := range cps[anchor].Checkpoint.Heads {
			if _, ok := scans[h.Shard].boundary(h.Count); !ok {
				continue search
			}
		}
		break
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
			next, _, _ := scans[i].after(len(scans[i].frames))
			if firstSeal && next <= cps[len(cps)-1].Checkpoint.Heads[i].Count {
				continue
			}
			if next > 0 {
				return nil, fmt.Errorf(
					"accounting: spill dir holds %d records of shard %d but no persisted checkpoint anchors them — refusing to recover (checkpoint log lost or corrupt?)",
					next, i)
			}
		}
	}
	p := &recoveryPlan{
		recoveredState: recoveredState{
			Heads:              make([]ShardHead, len(scans)),
			Totals:             make([]UsageLog, len(scans)),
			Checkpoints:        cps[:anchor+1],
			DroppedCheckpoints: len(cps) - anchor - 1,
		},
		keep: make([]int, len(scans)),
		cut:  make([]int64, len(scans)),
	}
	// A torn tail must go even when every checkpoint stays: the next
	// checkpoint appended onto it would be lost with it at the next open.
	p.rewriteLog = tornLog || p.DroppedCheckpoints > 0
	for i := range scans {
		// Everything past the anchor goes (nothing stays without one); the
		// anchor's counts are frame boundaries, so the cut lands between
		// frames and the stamp there is the state carried forward.
		var limit uint64
		if anchor >= 0 {
			limit = cps[anchor].Checkpoint.Heads[i].Count
		}
		k, _ := scans[i].boundary(limit)
		next, st, end := scans[i].after(k)
		p.keep[i], p.cut[i] = k, end
		p.Heads[i] = ShardHead{Shard: uint32(i), Count: next, Head: st.head}
		p.Totals[i] = st.totals
	}
	// Cross-check the rebuilt state against the anchor's signature-covered
	// heads and totals: the carried-forward chain state IS what the last
	// signed checkpoint vouches for.
	if anchor >= 0 {
		cp := &cps[anchor].Checkpoint
		var merged UsageLog
		for i := range p.Heads {
			if p.Heads[i] != cp.Heads[i] {
				return nil, fmt.Errorf("accounting: recovered head of shard %d does not match the anchoring checkpoint", i)
			}
			merge(&merged, &p.Totals[i])
		}
		if merged != cp.Totals {
			return nil, fmt.Errorf("accounting: recovered totals do not match the anchoring checkpoint")
		}
	}
	return p, nil
}

// recover rebuilds per-shard chain state from the spill directory, cutting
// whatever a crash left unanchored: frames past the anchor, checkpoints
// past the spill horizon, torn tails of either. pruned is the ledger's wish
// to prune the checkpoint chain, which the manifest must declare before the
// first entry can go missing (the flag is sticky across reopenings).
func (s *RecordStore) recover(pruned bool) (*recoveredState, error) {
	scans, err := scanShards(s.dir, len(s.shards))
	if err != nil {
		return nil, err
	}
	cps, tornLog, err := readSpillCheckpoints(s.dir, len(s.shards), s.manifest.Pruned || pruned)
	if err != nil {
		return nil, err
	}
	plan, err := planRecovery(scans, cps, tornLog)
	if err != nil {
		return nil, err
	}
	// Nothing is left to refuse: from here on the directory is written.
	if pruned && !s.manifest.Pruned {
		s.manifest.Pruned = true
		if err := writeSpillManifest(s.dir, &s.manifest); err != nil {
			return nil, err
		}
	}
	for i := range s.shards {
		if err := os.Truncate(s.shardPath(i), plan.cut[i]); err != nil {
			return nil, fmt.Errorf("accounting: truncate spill shard %d: %w", i, err)
		}
		sh, h := &s.shards[i], &plan.Heads[i]
		sh.next, sh.dropped, sh.spilled, sh.sealed = h.Count, h.Count, h.Count, h.Count
		sh.spillHead, sh.spillTotals = h.Head, plan.Totals[i]
		sh.frames = scans[i].frames[:plan.keep[i]]
	}
	if plan.rewriteLog {
		if err := s.rewriteCheckpoints(plan.Checkpoints); err != nil {
			return nil, err
		}
	}
	s.cpLines = len(plan.Checkpoints)
	return &plan.recoveredState, nil
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

// readSpillCheckpoints reads a spill directory's persisted checkpoint
// chain. A torn tail — a last line that does not parse, or one the file
// ends in without a newline — is forgiven and reported: only the final
// write can be torn, and whoever appends next must cut it first. With
// pruned set the chain may skip sequences: prev-hash linkage is enforced
// only between adjacent survivors, and sequences must still increase.
func readSpillCheckpoints(dir string, shards int, pruned bool) (cps []SignedCheckpoint, torn bool, err error) {
	f, err := os.Open(filepath.Join(dir, checkpointsName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<30) // grows from 4 KiB as lines demand; a line is a few hundred bytes per shard
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, line, err := bufio.ScanLines(data, atEOF)
		if adv > 0 && data[adv-1] != '\n' {
			torn = true // the last line, unterminated
		}
		return adv, line, err
	})
	for sc.Scan() {
		var c SignedCheckpoint
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			if sc.Scan() {
				// Corruption mid-log (a torn tail can only be the final
				// line): refuse rather than silently forgetting the
				// checkpoints behind it.
				return nil, false, fmt.Errorf("accounting: corrupt checkpoint log entry before end of file")
			}
			torn = true
			break
		}
		if len(c.Checkpoint.Heads) != shards {
			return nil, false, fmt.Errorf("accounting: persisted checkpoint %d covers %d shards, store has %d",
				c.Checkpoint.Sequence, len(c.Checkpoint.Heads), shards)
		}
		for j := range c.Checkpoint.Heads {
			if c.Checkpoint.Heads[j].Shard != uint32(j) {
				return nil, false, fmt.Errorf("accounting: persisted checkpoint %d heads out of shard order", c.Checkpoint.Sequence)
			}
		}
		if n := len(cps); n > 0 {
			prev := &cps[n-1].Checkpoint
			switch {
			case c.Checkpoint.Sequence <= prev.Sequence:
				return nil, false, fmt.Errorf("accounting: persisted checkpoint chain runs backwards at %d", c.Checkpoint.Sequence)
			case c.Checkpoint.Sequence == prev.Sequence+1:
				if c.Checkpoint.PrevHash != prev.Hash() {
					return nil, false, fmt.Errorf("accounting: persisted checkpoint chain breaks at %d", c.Checkpoint.Sequence)
				}
			default:
				if !pruned {
					return nil, false, fmt.Errorf("accounting: persisted checkpoint chain breaks at %d", c.Checkpoint.Sequence)
				}
			}
		}
		cps = append(cps, c)
	}
	return cps, torn, sc.Err()
}
