package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/sgx"
)

// This file measures the ledger's read side against its write side, the
// shape of the benchmark's ledger-audit workload at a size a CI runner can
// afford: one spilled ledger is written (append, Compact, Close), then
// reopened (crash recovery's structural replay), verified off its spill
// directory, dumped to a file and verified off that file. Each phase
// decodes or encodes every record once, so what separates them is SHA-256
// on the two verifiers, the write syscall on the dump — and whatever the
// codec allocates per frame and per record, which is what the row is for.

// AuditSmokeRecords sizes the bench-smoke and BENCH.json audit row.
const AuditSmokeRecords = 100_000

// auditMaxResident is the ledger-audit workload's retention budget.
const auditMaxResident = 8192

// AuditPairs is how many write/read pairs a row takes the median over.
const AuditPairs = 5

// AuditSmokeCeiling is the CI gate on the audit row's read-over-write
// ratio. With the read side decoding through one reused frame buffer this
// tree read 1.33 to 1.56 on the shared reference host (nine runs); its
// parent, which allocated a body and a []Record per frame and 132 bytes
// per verified record, 2.33 to 3.01 in the same minutes. The ceiling sits
// between the two, a quarter above the highest reading of this tree, so it
// trips when per-frame or per-record allocation comes back and not when
// the runner is slow: both sides of the ratio run on the same ledger,
// seconds apart.
const AuditSmokeCeiling = 1.95

// AuditRow is one ledger-audit measurement: per-phase medians over Pairs
// ledgers and the median of the per-ledger read-over-write ratios.
type AuditRow struct {
	Records     int `json:"records"`
	Pairs       int `json:"pairs"`
	Shards      int `json:"shards"`
	MaxResident int `json:"max_resident"`
	// WriteMs is append + Compact + Close, the only phase that fsyncs.
	WriteMs        float64 `json:"write_ms"`
	RecoverMs      float64 `json:"recover_ms"`
	VerifySpillMs  float64 `json:"verify_spill_ms"`
	DumpMs         float64 `json:"dump_ms"`
	VerifyStreamMs float64 `json:"verify_stream_ms"`
	// ReadOverWrite is (recover + verify spill + dump + verify stream) /
	// write of the same ledger, median over the pairs — not the quotient
	// of the medians above, so a host that changes speed between ledgers
	// does not move it.
	ReadOverWrite float64 `json:"read_over_write"`
}

// auditPhases is one ledger's phase times, in AuditRow's order.
type auditPhases [5]time.Duration

// runAuditLedger writes one spilled ledger of n records under dir and
// reads it back four ways, timing each phase.
func runAuditLedger(encl *sgx.Enclave, dir string, n int) (p auditPhases, err error) {
	opts := accounting.LedgerOptions{
		Shards:    2,
		Retention: accounting.RetentionPolicy{MaxResidentRecords: auditMaxResident, SpillDir: dir},
	}
	verify := accounting.VerifyOptions{Key: encl.PublicKey()}
	phase := 0
	timed := func(fn func() error) {
		if err != nil {
			return
		}
		t0 := time.Now()
		err = fn()
		p[phase] = time.Since(t0)
		phase++
	}
	verified := func(what string, res *accounting.VerifyResult, err error) error {
		if err == nil && res.Records != n {
			err = fmt.Errorf("replayed %d records, want %d", res.Records, n)
		}
		if err != nil {
			return fmt.Errorf("bench: audit %s: %w", what, err)
		}
		return nil
	}
	timed(func() error {
		l, err := accounting.NewLedger(encl, opts)
		if err != nil {
			return err
		}
		defer l.Close()
		log := accounting.UsageLog{WorkloadHash: [32]byte{7}, PeakMemoryBytes: 1 << 16, Policy: accounting.PeakMemory}
		for i := 0; i < n; i++ {
			log.WeightedInstructions, log.SimulatedCycles = uint64(1000+i%977), uint64(i)
			if _, _, err := l.Append(log); err != nil {
				return err
			}
		}
		_, err = l.Compact()
		return err
	})
	var reopened *accounting.Ledger
	timed(func() (err error) {
		reopened, err = accounting.NewLedger(encl, opts)
		return err
	})
	if reopened != nil {
		defer reopened.Close()
	}
	timed(func() error {
		res, err := accounting.VerifySpillDir(dir, verify)
		return verified("VerifySpillDir", res, err)
	})
	dumpPath := filepath.Join(dir, "dump.bin")
	timed(func() error {
		f, err := os.Create(dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		if err := reopened.WriteDump(bw, accounting.DumpOptions{}); err != nil {
			return err
		}
		return bw.Flush()
	})
	timed(func() error {
		f, err := os.Open(dumpPath)
		if err != nil {
			return err
		}
		defer f.Close()
		res, err := accounting.VerifyReader(bufio.NewReaderSize(f, 1<<20), verify)
		return verified("VerifyReader", res, err)
	})
	return p, err
}

// RunAudit measures the audit row over AuditPairs fresh ledgers of the
// given size, after one warm-up ledger at a tenth of it.
func RunAudit(records int) (AuditRow, error) {
	encl, err := sgx.NewEnclave([]byte("audit-bench AE"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		return AuditRow{}, err
	}
	root, err := os.MkdirTemp("", "acctee-audit-bench")
	if err != nil {
		return AuditRow{}, err
	}
	defer os.RemoveAll(root)
	var cols [len(auditPhases{})][]float64
	var ratios []float64
	for i := -1; i < AuditPairs; i++ {
		n := records
		if i < 0 {
			n = max(records/10, 1)
		}
		dir := filepath.Join(root, fmt.Sprintf("ledger-%d", i+1))
		p, err := runAuditLedger(encl, dir, n)
		os.RemoveAll(dir)
		if err != nil {
			return AuditRow{}, err
		}
		if i < 0 {
			continue
		}
		for j, d := range p {
			cols[j] = append(cols[j], float64(d)/float64(time.Millisecond))
		}
		ratios = append(ratios, float64(p[1]+p[2]+p[3]+p[4])/float64(p[0]))
	}
	med := func(v []float64) float64 { sort.Float64s(v); return v[len(v)/2] }
	return AuditRow{
		Records: records, Pairs: AuditPairs, Shards: 2, MaxResident: auditMaxResident,
		WriteMs: med(cols[0]), RecoverMs: med(cols[1]), VerifySpillMs: med(cols[2]),
		DumpMs: med(cols[3]), VerifyStreamMs: med(cols[4]), ReadOverWrite: med(ratios),
	}, nil
}

// CheckAuditGate fails when the read side costs more than ceiling times
// the write side of the same ledger.
func CheckAuditGate(row AuditRow, ceiling float64) error {
	if row.ReadOverWrite > ceiling {
		return fmt.Errorf("bench: audit smoke gate failed: reopen + VerifySpillDir + WriteDump + VerifyReader at %.2fx append + Compact + Close, ceiling %.2fx",
			row.ReadOverWrite, ceiling)
	}
	return nil
}

// PrintAudit renders the audit row.
func PrintAudit(w io.Writer, row AuditRow) {
	tw := newTab(w)
	fmt.Fprintf(tw, "records\tappend+Compact+Close\treopen\tVerifySpillDir\tWriteDump\tVerifyReader\tread/write\n")
	fmt.Fprintf(tw, "%d\t%.1f ms\t%.1f ms\t%.1f ms\t%.1f ms\t%.1f ms\t%s\n", row.Records,
		row.WriteMs, row.RecoverMs, row.VerifySpillMs, row.DumpMs, row.VerifyStreamMs, fmtRatio(row.ReadOverWrite))
	tw.Flush()
	fmt.Fprintf(w, "(medians of %d ledgers, %d shards, %d resident; read/write is the median of the per-ledger ratios)\n",
		row.Pairs, row.Shards, row.MaxResident)
}
