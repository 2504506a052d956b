package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/sgx"
)

// This file measures bounded ledger retention (the segmented record store
// with checkpoint-anchored truncation): resident record counts, heap
// footprint and append throughput at 10k/100k/1M records, unbounded vs
// bounded (drop) vs bounded with spill-to-disk. Since the binary spill
// codec and async group-commit writer, the spill variant runs at every
// size (the old JSON codec capped it at 100k to spare CI's disk) and each
// size sweeps GOMAXPROCS 1, 4 and 16. The rows land in BENCH.json's ledger
// section next to the audit row.

// RetentionSizes is the default record-count sweep.
var RetentionSizes = []int{10_000, 100_000, 1_000_000}

// RetentionProcs is the GOMAXPROCS sweep applied to every size (the same
// matrix as the scaling figure, so the retention rows line up with it).
var RetentionProcs = []int{1, 4, 16}

// RetentionMaxResident is the bounded modes' resident budget (the
// acceptance criterion's 4096).
const RetentionMaxResident = 4096

// RetentionKeepEvery is the spill mode's checkpoint-chain pruning factor:
// the persisted chain keeps every 8th checkpoint plus the anchor tip, so
// a long bench run exercises the pruning path the gateway relies on.
const RetentionKeepEvery = 8

// RetentionSmokeRatio is the bench-smoke floor: bounded+spill append
// throughput below this fraction of bounded fails the smoke gate (the
// binary codec + async writer hold well above it; a regression back
// toward the JSON-era 0.18x trips it).
const RetentionSmokeRatio = 0.35

// RetentionRow is one (records, mode, gomaxprocs) cell.
type RetentionRow struct {
	Records int `json:"records"`
	// Mode is "unbounded" (the PR 3 behaviour), "bounded" (sealed
	// segments dropped behind checkpoints) or "bounded+spill" (sealed
	// segments spilled to segment files through the async group-commit
	// writer).
	Mode string `json:"mode"`
	// GoMaxProcs is the GOMAXPROCS this cell ran under.
	GoMaxProcs  int `json:"gomaxprocs"`
	MaxResident int `json:"max_resident,omitempty"`
	// ResidentPeak / ResidentEnd are record counts held in memory.
	ResidentPeak int `json:"resident_peak"`
	ResidentEnd  int `json:"resident_end"`
	// SpilledEnd counts sealed records handed to the spill writer (spill
	// mode only; Close drains them to disk).
	SpilledEnd uint64 `json:"spilled_end,omitempty"`
	// Checkpoints is how many checkpoints were signed (bounded modes sign
	// one per compaction; the trigger amortises to records/MaxResident).
	Checkpoints uint64 `json:"checkpoints"`
	// HeapBytes is HeapAlloc after a forced GC with the ledger still
	// live — the resident footprint the store architecture controls.
	HeapBytes uint64 `json:"heap_bytes_after_gc"`
	// AppendsPerSec is append throughput over the whole run (including
	// compaction pauses — the cost of boundedness must be visible).
	AppendsPerSec float64 `json:"appends_per_sec"`
	// SpillVsBounded is AppendsPerSec relative to the bounded row of the
	// same (records, gomaxprocs) cell — set on bounded+spill rows only.
	// The tentpole target is ≥ 0.5 at the 1M row; the smoke gate floor
	// is RetentionSmokeRatio.
	SpillVsBounded float64 `json:"spill_vs_bounded,omitempty"`
}

// runRetentionCell appends `records` records to a fresh ledger in the
// given mode and measures retention behaviour.
func runRetentionCell(records int, mode string, spillDir string) (RetentionRow, error) {
	encl, err := sgx.NewEnclave([]byte("retention-bench AE"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		return RetentionRow{}, err
	}
	opts := accounting.LedgerOptions{Shards: 4}
	if mode != "unbounded" {
		opts.Retention = accounting.RetentionPolicy{MaxResidentRecords: RetentionMaxResident}
	}
	if mode == "bounded+spill" {
		opts.Retention.SpillDir = spillDir
		opts.Retention.CheckpointKeepEvery = RetentionKeepEvery
	}
	l, err := accounting.NewLedger(encl, opts)
	if err != nil {
		return RetentionRow{}, err
	}
	defer l.Close()

	log := accounting.UsageLog{
		WorkloadHash:         [32]byte{42},
		WeightedInstructions: 1_000_000,
		PeakMemoryBytes:      1 << 20,
		Policy:               accounting.PeakMemory,
	}
	row := RetentionRow{Records: records, Mode: mode, GoMaxProcs: runtime.GOMAXPROCS(0)}
	if mode != "unbounded" {
		row.MaxResident = RetentionMaxResident
	}
	t0 := time.Now()
	for i := 0; i < records; i++ {
		log.SimulatedCycles = uint64(i)
		if _, _, err := l.Append(log); err != nil {
			return RetentionRow{}, err
		}
		if i&127 == 0 {
			if r := l.Resident(); r > row.ResidentPeak {
				row.ResidentPeak = r
			}
		}
	}
	row.AppendsPerSec = float64(records) / time.Since(t0).Seconds()
	if r := l.Resident(); r > row.ResidentPeak {
		row.ResidentPeak = r
	}
	row.ResidentEnd = l.Resident()
	row.SpilledEnd = l.SpilledRecords()
	if sc, err := l.Checkpoint(); err == nil {
		row.Checkpoints = sc.Checkpoint.Sequence + 1
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapBytes = ms.HeapAlloc
	return row, nil
}

// retentionTrials is the best-of-N per cell: the first run after a spill
// cell often pays the previous cell's pending disk writeback, which is
// device noise, not retention cost.
const retentionTrials = 3

// bestRetentionCell runs one (records, mode) cell retentionTrials times
// and keeps the fastest row. Spill trials each get a fresh subdirectory
// (reopening a populated one would measure recovery, not appends).
func bestRetentionCell(records int, mode, spillRoot string) (RetentionRow, error) {
	var best RetentionRow
	for t := 0; t < retentionTrials; t++ {
		var spill string
		if mode == "bounded+spill" {
			spill = filepath.Join(spillRoot, fmt.Sprintf("trial-%d", t))
		}
		row, err := runRetentionCell(records, mode, spill)
		if spill != "" {
			os.RemoveAll(spill)
		}
		if err != nil {
			return RetentionRow{}, err
		}
		if t == 0 || row.AppendsPerSec > best.AppendsPerSec {
			best = row
		}
	}
	return best, nil
}

// runRetentionModes runs the full mode sweep for one size at the current
// GOMAXPROCS, stamping the spill-vs-bounded ratio.
func runRetentionModes(n int) ([]RetentionRow, error) {
	var rows []RetentionRow
	var bounded float64
	for _, mode := range []string{"unbounded", "bounded", "bounded+spill"} {
		var spill string
		if mode == "bounded+spill" {
			dir, err := os.MkdirTemp("", "acctee-retention-bench")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			spill = dir
		}
		row, err := bestRetentionCell(n, mode, spill)
		if err != nil {
			return nil, fmt.Errorf("bench: retention %s/%d: %w", mode, n, err)
		}
		switch mode {
		case "bounded":
			bounded = row.AppendsPerSec
		case "bounded+spill":
			if bounded > 0 {
				row.SpillVsBounded = row.AppendsPerSec / bounded
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunRetentionBench sweeps record counts across retention modes and
// GOMAXPROCS settings on a 4-shard ledger. It temporarily overrides
// GOMAXPROCS per cell and restores the ambient value before returning.
func RunRetentionBench(sizes []int) ([]RetentionRow, error) {
	if len(sizes) == 0 {
		sizes = RetentionSizes
	}
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	var all []RetentionRow
	for _, n := range sizes {
		for _, procs := range RetentionProcs {
			runtime.GOMAXPROCS(procs)
			rows, err := runRetentionModes(n)
			runtime.GOMAXPROCS(ambient)
			if err != nil {
				return nil, err
			}
			all = append(all, rows...)
		}
	}
	return all, nil
}

// RunRetentionSmoke runs the bench-smoke retention gate: one bounded and
// one bounded+spill cell at 100k records under the ambient GOMAXPROCS,
// returning the spill-vs-bounded throughput ratio.
func RunRetentionSmoke() (float64, error) {
	const n = 100_000
	bounded, err := bestRetentionCell(n, "bounded", "")
	if err != nil {
		return 0, fmt.Errorf("bench: retention smoke bounded: %w", err)
	}
	dir, err := os.MkdirTemp("", "acctee-retention-smoke")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	spill, err := bestRetentionCell(n, "bounded+spill", dir)
	if err != nil {
		return 0, fmt.Errorf("bench: retention smoke spill: %w", err)
	}
	if bounded.AppendsPerSec <= 0 {
		return 0, fmt.Errorf("bench: retention smoke measured zero bounded throughput")
	}
	return spill.AppendsPerSec / bounded.AppendsPerSec, nil
}

// PrintRetentionBench renders the sweep as a table.
func PrintRetentionBench(w io.Writer, rows []RetentionRow) {
	tw := newTab(w)
	fmt.Fprintf(tw, "records\tmode\tprocs\tresident peak\tresident end\tspilled\theap after GC\tappends/s\tvs bounded\tcheckpoints\n")
	for _, r := range rows {
		ratio := ""
		if r.SpillVsBounded > 0 {
			ratio = fmt.Sprintf("%.2fx", r.SpillVsBounded)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%.1f MB\t%.0f\t%s\t%d\n",
			r.Records, r.Mode, r.GoMaxProcs, r.ResidentPeak, r.ResidentEnd, r.SpilledEnd,
			float64(r.HeapBytes)/(1<<20), r.AppendsPerSec, ratio, r.Checkpoints)
	}
	tw.Flush()
}
