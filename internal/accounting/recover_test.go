package accounting

import (
	"reflect"
	"strings"
	"testing"
)

// planRecovery takes no path, file or store, so its cases need none: the
// scans and checkpoint chains below are built by hand.

// planScan is a shard's scan with frames of the given record counts; each
// frame is 100 bytes per record on disk, and its stamp is told apart by
// the shard and the record count it stands at.
func planScan(shard int, counts ...uint64) shardScan {
	var s shardScan
	var next uint64
	var off int64
	for _, c := range counts {
		s.frames = append(s.frames, frameIndex{base: next, count: c, off: off, size: int64(100 * c)})
		next, off = next+c, off+int64(100*c)
		s.stamps = append(s.stamps, planStamp(shard, next))
	}
	return s
}

func planStamp(shard int, next uint64) frameStamp {
	if next == 0 {
		return frameStamp{}
	}
	return frameStamp{
		head:   [32]byte{byte(shard + 1), byte(next)},
		totals: UsageLog{WeightedInstructions: 1000 * next, PeakMemoryBytes: uint64(shard + 1), Sequence: next},
	}
}

// planCheckpoint is the checkpoint an honest ledger would have signed with
// its shards at the given counts (unsigned: recovery leaves signatures to
// the verifier).
func planCheckpoint(seq uint64, counts ...uint64) SignedCheckpoint {
	cp := Checkpoint{Sequence: seq}
	for shard, n := range counts {
		st := planStamp(shard, n)
		cp.Heads = append(cp.Heads, ShardHead{Shard: uint32(shard), Count: n, Head: st.head})
		merge(&cp.Totals, &st.totals)
	}
	return SignedCheckpoint{Checkpoint: cp}
}

func TestPlanRecovery(t *testing.T) {
	type want struct {
		counts     []uint64 // per-shard records carried forward
		keep       []int
		cut        []int64
		kept       int // checkpoints kept
		dropped    int
		rewriteLog bool
		refusal    string
	}
	rotted := planCheckpoint(1, 7, 5)
	rotted.Checkpoint.Heads[1].Head[5] ^= 1
	miscounted := planCheckpoint(1, 7, 5)
	miscounted.Checkpoint.Totals.WeightedInstructions++
	for _, tc := range []struct {
		name    string
		scans   []shardScan
		cps     []SignedCheckpoint
		tornLog bool
		want    want
	}{
		{
			name:  "anchor-at-the-last-checkpoint",
			scans: []shardScan{planScan(0, 4, 3), planScan(1, 3, 2)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 4, 3), planCheckpoint(1, 7, 5)},
			want:  want{counts: []uint64{7, 5}, keep: []int{2, 2}, cut: []int64{700, 500}, kept: 2},
		},
		{
			// The log's last entry is contained but mid-frame on shard 0
			// (signed between seals); the one before it is frame-aligned.
			name:  "mid-frame-checkpoint-skipped-for-an-aligned-one",
			scans: []shardScan{planScan(0, 4, 3), planScan(1, 3)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 4, 3), planCheckpoint(1, 6, 3), planCheckpoint(2, 7, 5)},
			want: want{counts: []uint64{4, 3}, keep: []int{1, 1}, cut: []int64{400, 300},
				kept: 1, dropped: 2, rewriteLog: true},
		},
		{
			// Shard 1 landed two frames of a seal whose shard-0 frame never
			// did: they are cut between frames, and the heads and totals
			// carried forward are the stamps at the cut.
			name:  "frames-past-the-anchor-are-cut-between-frames",
			scans: []shardScan{planScan(0, 4), planScan(1, 3, 2, 6)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 4, 3), planCheckpoint(1, 9, 5), planCheckpoint(2, 12, 11)},
			want: want{counts: []uint64{4, 3}, keep: []int{1, 1}, cut: []int64{400, 300},
				kept: 1, dropped: 2, rewriteLog: true},
		},
		{
			name:  "first-seal-residue-cuts-to-genesis",
			scans: []shardScan{planScan(0), planScan(1, 3)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 2, 2), planCheckpoint(1, 4, 3)},
			want: want{counts: []uint64{0, 0}, keep: []int{0, 0}, cut: []int64{0, 0},
				dropped: 2, rewriteLog: true},
		},
		{
			name:  "frames-no-log-covers-are-refused",
			scans: []shardScan{planScan(0, 4), planScan(1, 3)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 2, 2)},
			want:  want{refusal: "holds 4 records of shard 0 but no persisted checkpoint anchors them"},
		},
		{
			name:  "frames-and-no-log-at-all-are-refused",
			scans: []shardScan{planScan(0), planScan(1, 3)},
			want:  want{refusal: "holds 3 records of shard 1 but no persisted checkpoint anchors them"},
		},
		{
			name:  "pruned-chain-with-gaps",
			scans: []shardScan{planScan(0, 4, 3, 2), planScan(1, 3, 2, 2)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 4, 3), planCheckpoint(4, 7, 5), planCheckpoint(9, 9, 7)},
			want:  want{counts: []uint64{9, 7}, keep: []int{3, 3}, cut: []int64{900, 700}, kept: 3},
		},
		{
			// A pruned log that no longer reaches back to checkpoint 0 cannot
			// vouch for "no seal ever completed", whatever its last entry covers.
			name:  "pruned-chain-without-genesis-is-no-first-seal",
			scans: []shardScan{planScan(0), planScan(1, 3)},
			cps:   []SignedCheckpoint{planCheckpoint(4, 2, 2), planCheckpoint(6, 4, 3)},
			want:  want{refusal: "holds 3 records of shard 1 but no persisted checkpoint anchors them"},
		},
		{
			name:    "torn-log-with-nothing-dropped-still-rewrites",
			scans:   []shardScan{planScan(0, 4, 3), planScan(1, 3, 2)},
			cps:     []SignedCheckpoint{planCheckpoint(0, 4, 3), planCheckpoint(1, 7, 5)},
			tornLog: true,
			want: want{counts: []uint64{7, 5}, keep: []int{2, 2}, cut: []int64{700, 500},
				kept: 2, rewriteLog: true},
		},
		{
			name:    "torn-log-of-an-empty-directory",
			scans:   []shardScan{planScan(0), planScan(1)},
			tornLog: true,
			want:    want{counts: []uint64{0, 0}, keep: []int{0, 0}, cut: []int64{0, 0}, rewriteLog: true},
		},
		{
			name:  "anchor-with-a-rotted-head",
			scans: []shardScan{planScan(0, 4, 3), planScan(1, 3, 2)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 4, 3), rotted},
			want:  want{refusal: "recovered head of shard 1 does not match the anchoring checkpoint"},
		},
		{
			name:  "anchor-with-rotted-totals",
			scans: []shardScan{planScan(0, 4, 3), planScan(1, 3, 2)},
			cps:   []SignedCheckpoint{planCheckpoint(0, 4, 3), miscounted},
			want:  want{refusal: "recovered totals do not match the anchoring checkpoint"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := planRecovery(tc.scans, tc.cps, tc.tornLog)
			if tc.want.refusal != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want.refusal) {
					t.Fatalf("planRecovery = %+v, %v; want the refusal %q", p, err, tc.want.refusal)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for shard, n := range tc.want.counts {
				st := planStamp(shard, n)
				if want := (ShardHead{Shard: uint32(shard), Count: n, Head: st.head}); p.Heads[shard] != want {
					t.Errorf("shard %d carries forward %+v, want %+v", shard, p.Heads[shard], want)
				}
				if p.Totals[shard] != st.totals {
					t.Errorf("shard %d carries forward totals %+v, want the stamp at the cut %+v", shard, p.Totals[shard], st.totals)
				}
			}
			if !reflect.DeepEqual(p.keep, tc.want.keep) || !reflect.DeepEqual(p.cut, tc.want.cut) {
				t.Errorf("keeps %v frames and cuts at %v, want %v and %v", p.keep, p.cut, tc.want.keep, tc.want.cut)
			}
			if len(p.Checkpoints) != tc.want.kept || p.DroppedCheckpoints != tc.want.dropped || p.rewriteLog != tc.want.rewriteLog {
				t.Errorf("keeps %d checkpoints, drops %d, rewrites the log: %v; want %d, %d, %v",
					len(p.Checkpoints), p.DroppedCheckpoints, p.rewriteLog, tc.want.kept, tc.want.dropped, tc.want.rewriteLog)
			}
			if tc.want.kept > 0 && !reflect.DeepEqual(p.Checkpoints, tc.cps[:tc.want.kept]) {
				t.Error("the kept checkpoints are not the log's prefix up to the anchor")
			}
		})
	}
}
