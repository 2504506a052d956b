package bench_test

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"acctee/internal/bench"
)

// writeAndRead writes m the way acctee-bench does and returns the file's
// text and its top-level keys.
func writeAndRead(t *testing.T, m *bench.Manifest) (string, map[string]json.RawMessage) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	return string(raw), top
}

// TestManifestOneRunOneStamp builds a manifest from one small run of each
// section, as `-fig all` does: the file says where it came from exactly
// once, and every section is there, measured or skipped with the reason.
func TestManifestOneRunOneStamp(t *testing.T) {
	m := &bench.Manifest{Paper: &bench.Paper{}}
	var err error
	if m.Paper.Fig7, err = bench.RunFig7(256); err != nil {
		t.Fatal(err)
	}
	if m.Paper.Ablation, err = bench.RunAblation(); err != nil {
		t.Fatal(err)
	}
	if m.Interp, err = bench.RunInterp(1); err != nil {
		t.Fatal(err)
	}
	if m.Ledger, err = bench.RunLedger(1000, []int{500}); err != nil {
		t.Fatal(err)
	}
	if m.Scaling, err = bench.RunScaling(32, 8000); err != nil {
		t.Fatal(err)
	}
	text, top := writeAndRead(t, m)
	for _, key := range []string{"generated_at", "commit", "host_cpus", "go_version"} {
		if n := strings.Count(text, `"`+key+`"`); n != 1 || top[key] == nil {
			t.Errorf("%q occurs %d times in the file, want once, at the top level", key, n)
		}
	}
	for _, section := range []string{"paper", "interp", "ledger", "scaling"} {
		var body map[string]json.RawMessage
		if err := json.Unmarshal(top[section], &body); err != nil || len(body) == 0 {
			t.Errorf("section %q is absent or empty: %s", section, top[section])
			continue
		}
		if reason, skipped := body["skipped"]; skipped && (len(body) != 1 || len(reason) <= len(`""`)) {
			t.Errorf("section %q is skipped without a reason, or skipped and measured: %s", section, top[section])
		}
	}
	if m.Paper.Fig7.Paper == "" || m.Paper.Ablation.Paper == "" {
		t.Error("a figure lost the paper's stated shape")
	}
	if len(m.Interp.Micro) != 2 || len(m.Interp.Calls) != 4 || m.Interp.Instrumented.Overhead <= 0 ||
		m.Interp.MicroGeomean <= 0 || m.Interp.CallGeomean <= 0 || m.Interp.Compiled.Modules != 33 ||
		m.Interp.Compiled.BytesPerInstr <= 0 {
		t.Errorf("interp section %+v", m.Interp)
	}
	if m.Ledger.Audit.Records != 1000 || len(m.Ledger.Retention) != 3*len(bench.RetentionProcs) {
		t.Errorf("ledger section: audit %+v, %d retention rows", m.Ledger.Audit, len(m.Ledger.Retention))
	}
	s := m.Scaling
	if cpus := runtime.NumCPU(); cpus < 4 {
		if !strings.Contains(s.Skipped, strconv.Itoa(cpus)+" CPUs") || s.GatewayReqPerSec != nil || s.LedgerAppendsPerSec != nil {
			t.Errorf("scaling on a %d-CPU host: %+v, want skipped with the CPU count", cpus, s)
		}
	} else if s.Skipped != "" || len(s.GatewayReqPerSec)+len(s.LedgerAppendsPerSec) != 6 {
		t.Errorf("scaling on a %d-CPU host: %+v, want six rows", cpus, s)
	}
	var sb strings.Builder
	bench.PrintScaling(&sb, s)
	if !strings.Contains(sb.String(), "skipped: ") && !strings.Contains(sb.String(), "vs 1 proc") {
		t.Errorf("scaling prints as %q", sb.String())
	}
}

// TestManifestSingleFigure: `-fig size -json` writes the stamp and that
// figure, nothing else.
func TestManifestSingleFigure(t *testing.T) {
	size, err := bench.RunSizeTable()
	if err != nil {
		t.Fatal(err)
	}
	_, top := writeAndRead(t, &bench.Manifest{Paper: &bench.Paper{Size: size}})
	if len(top) != 6 { // five stamp fields and the section
		t.Errorf("top-level keys %v, want the stamp and paper", slices.Sorted(maps.Keys(top)))
	}
	var paper map[string]json.RawMessage
	if err := json.Unmarshal(top["paper"], &paper); err != nil || len(paper) != 1 || paper["size"] == nil {
		t.Errorf("paper section holds %v, want size alone (%v)", slices.Sorted(maps.Keys(paper)), err)
	}
}
