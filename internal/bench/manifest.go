package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Stamp records where a manifest came from, so numbers from different
// commits, hosts or toolchains are never compared unknowingly.
type Stamp struct {
	GeneratedAt string `json:"generated_at"`
	// Commit is the VCS revision the binary was built from ("+dirty" when
	// the tree had uncommitted changes; "unknown" under `go run`, which
	// does not stamp — `make bench` builds the binary for this reason).
	Commit    string `json:"commit"`
	HostCPUs  int    `json:"host_cpus"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the ambient setting; retention and scaling rows that
	// override it carry their own.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// NewStamp stamps a manifest with the current time, build and host.
func NewStamp() Stamp {
	st := Stamp{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Commit:      "unknown",
		HostCPUs:    runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					st.Commit += "+dirty"
				}
			}
		}
	}
	return st
}

// Manifest is BENCH.json: what one acctee-bench run measured, under the one
// stamp saying where. `-fig all` fills every section; a single figure
// leaves the others nil and they are absent from the file.
type Manifest struct {
	Stamp
	Paper  *Paper  `json:"paper,omitempty"`
	Interp *Interp `json:"interp,omitempty"`
	Ledger *Ledger `json:"ledger,omitempty"`
	// Scaling runs last: it overrides GOMAXPROCS per cell.
	Scaling *Scaling `json:"scaling,omitempty"`
}

// Paper holds the paper's §5 figures and tables, each with the paper's
// stated shape beside the rows measured here.
type Paper struct {
	Fig6     *Fig6Result     `json:"fig6,omitempty"`
	Fig7     *Fig7Result     `json:"fig7,omitempty"`
	Fig8     *Fig8Result     `json:"fig8,omitempty"`
	Fig9     *Fig9Result     `json:"fig9,omitempty"`
	Fig10    *Fig10Result    `json:"fig10,omitempty"`
	Size     *SizeResult     `json:"size,omitempty"`
	Ablation *AblationResult `json:"ablation,omitempty"`
}

// Interp holds the rows `make bench-smoke` gates the engine on: register
// over structured on the microbenchmarks, instrumented over plain resize,
// inlined over DisableInline on the call suite, the heap a compiled
// module keeps, and the heap a warm pooled instance keeps.
type Interp struct {
	MicroGeomean float64         `json:"micro_geomean"`
	CallGeomean  float64         `json:"call_geomean"`
	Micro        []MicroRow      `json:"micro"`
	Instrumented InstrumentedRow `json:"instrumented"`
	Calls        []CallRow       `json:"calls"`
	Compiled     CompiledRow     `json:"compiled"`
	Pooled       []PooledRow     `json:"pooled"`
}

// RunInterp measures the interp section (best of trials per timed row).
func RunInterp(trials int) (*Interp, error) {
	micro, err := RunMicro(trials)
	if err != nil {
		return nil, err
	}
	inst, err := RunInstrumented(trials)
	if err != nil {
		return nil, err
	}
	calls, err := RunCalls(trials)
	if err != nil {
		return nil, err
	}
	compiled, err := RunCompiled()
	if err != nil {
		return nil, err
	}
	pooled, err := RunPooled()
	if err != nil {
		return nil, err
	}
	return &Interp{
		MicroGeomean: MicroGeomean(micro), CallGeomean: CallGeomean(calls),
		Micro: micro, Instrumented: inst, Calls: calls, Compiled: compiled, Pooled: pooled,
	}, nil
}

// Ledger holds the audit row (a spilled ledger's read side beside its
// write side) and the bounded-retention sweep.
type Ledger struct {
	Audit     AuditRow       `json:"audit"`
	Retention []RetentionRow `json:"retention"`
}

// RunLedger measures the ledger section: the audit row over auditRecords
// records and the retention sweep over the given sizes.
func RunLedger(auditRecords int, retentionSizes []int) (*Ledger, error) {
	audit, err := RunAudit(auditRecords)
	if err != nil {
		return nil, err
	}
	retention, err := RunRetentionBench(retentionSizes)
	if err != nil {
		return nil, err
	}
	return &Ledger{Audit: audit, Retention: retention}, nil
}

// Write stamps the manifest and writes it to path.
func (m *Manifest) Write(path string) error {
	m.Stamp = NewStamp()
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
