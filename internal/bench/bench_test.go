package bench_test

import (
	"encoding/json"
	"strings"
	"testing"

	"acctee/internal/bench"
	"acctee/internal/faas"
)

func TestRunFig6SubsetShape(t *testing.T) {
	fig, err := bench.RunFig6([]string{"gemm", "jacobi-1d", "doitgen"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		if r.WASM <= 0 {
			t.Errorf("%s: nonsensical WASM ratio %v", r.Kernel, r.WASM)
		}
		// Paging only ever adds cycles: HW's modelled cycles are at least
		// SIM's, whatever the scheduler did to either run's wall clock.
		if r.HWCycles < r.SimCycles {
			t.Errorf("%s: HW %d simulated cycles below SIM's %d", r.Kernel, r.HWCycles, r.SimCycles)
		}
		// The wall-clock ratios, best of three runs per side, must not put
		// SIM radically above HW.
		if r.WASMSGXHW < r.WASMSGXSim*0.5 {
			t.Errorf("%s: HW %.2f unexpectedly below SIM %.2f", r.Kernel, r.WASMSGXHW, r.WASMSGXSim)
		}
	}
	var sb strings.Builder
	bench.PrintFig6(&sb, fig)
	if !strings.Contains(sb.String(), "gemm") {
		t.Error("print output missing kernel name")
	}
}

func TestRunFig7Small(t *testing.T) {
	r, err := bench.RunFig7(512)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 127 {
		t.Errorf("measured %d instructions, want 127", len(r.Rows))
	}
	var sb strings.Builder
	bench.PrintFig7(&sb, r)
	if !strings.Contains(sb.String(), "127") {
		t.Error("print output missing instruction count")
	}
}

func TestRunFig8Small(t *testing.T) {
	r, err := bench.RunFig8([]int{1 << 20}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 16 { // 4 types x load/store x linear/random
		t.Errorf("points = %d, want 16", len(r.Rows))
	}
	var sb strings.Builder
	bench.PrintFig8(&sb, r)
	if !strings.Contains(sb.String(), "random") {
		t.Error("print output missing pattern")
	}
}

func TestRunFig9Small(t *testing.T) {
	fig, err := bench.RunFig9(bench.Fig9Options{
		Sizes:     []int{64},
		Clients:   4,
		Requests:  4,
		Functions: []faas.Function{faas.Echo},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 setups", len(fig.Rows))
	}
	// The modelled column adds simulated time to the measured run, so it is
	// never above the measured one, and equal where nothing is simulated.
	for _, r := range fig.Rows {
		if r.ReqPerSec <= 0 {
			t.Errorf("%v: req/s = %v", r.Setup, r.ReqPerSec)
		}
		if r.ModelledReqPerSec <= 0 || r.ModelledReqPerSec > r.ReqPerSec {
			t.Errorf("%v: modelled req/s %v, measured %v: want 0 < modelled <= measured", r.Setup, r.ModelledReqPerSec, r.ReqPerSec)
		}
		simulatesNothing := r.Setup == faas.SetupWASM.String() || r.Setup == faas.SetupSGXSim.String()
		if simulatesNothing && r.ModelledReqPerSec != r.ReqPerSec {
			t.Errorf("%v simulates nothing, yet modelled req/s %v differs from measured %v", r.Setup, r.ModelledReqPerSec, r.ReqPerSec)
		}
	}
	// In JSON the function and the setup are their names, not enum values.
	raw, err := json.Marshal(fig.Rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back[2]["function"] != "echo" || back[2]["setup"] != "WASM-SGX HW" {
		t.Errorf("row 2 round-trips as %v, want echo under WASM-SGX HW by name", back[2])
	}
	var sb strings.Builder
	bench.PrintFig9(&sb, fig)
	if !strings.Contains(sb.String(), "echo") {
		t.Error("print output missing function")
	}
}

func TestRunLedgerBenchSmall(t *testing.T) {
	led, err := bench.RunLedger(2000, []int{1000})
	if err != nil {
		t.Fatal(err)
	}
	// The audit row: a 2,000-record spilled ledger written, reopened,
	// verified twice and dumped, every phase timed.
	a := led.Audit
	if a.Records != 2000 || a.Pairs != bench.AuditPairs || a.ReadOverWrite <= 0 ||
		a.WriteMs <= 0 || a.RecoverMs <= 0 || a.VerifySpillMs <= 0 || a.DumpMs <= 0 || a.VerifyStreamMs <= 0 {
		t.Errorf("audit row %+v", a)
	}
	if err := bench.CheckAuditGate(bench.AuditRow{ReadOverWrite: 1.5}, 1.95); err != nil {
		t.Errorf("a row under the ceiling failed the gate: %v", err)
	}
	if err := bench.CheckAuditGate(bench.AuditRow{ReadOverWrite: 2.4}, 1.95); err == nil {
		t.Error("a row over the ceiling passed the gate")
	}
	// The retention sweep: three modes at each of RetentionProcs.
	if want := 3 * len(bench.RetentionProcs); len(led.Retention) != want {
		t.Errorf("retention rows = %d, want %d", len(led.Retention), want)
	}
	var sb strings.Builder
	bench.PrintAudit(&sb, a)
	bench.PrintRetentionBench(&sb, led.Retention)
	if !strings.Contains(sb.String(), "read/write") || !strings.Contains(sb.String(), "bounded+spill") {
		t.Error("print output missing the audit row or the retention sweep")
	}
}

func TestRunSizeTable(t *testing.T) {
	rows, err := bench.RunSizeTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 35 { // 29 kernels + 6 scenario modules
		t.Fatalf("rows = %d, want 35", len(rows.Rows))
	}
	var totNaive, totOpt int
	for _, r := range rows.Rows {
		if r.NaiveBytes <= r.OriginalBytes {
			t.Errorf("%s: naive instrumentation did not grow the binary", r.Name)
		}
		totNaive += r.NaiveBytes
		totOpt += r.OptBytes
	}
	// Per-module the loop epilogue can outweigh removed increments on tiny
	// binaries; in aggregate the optimised form must be smaller (paper:
	// +4..39% naive vs +4..27% optimised).
	if totOpt >= totNaive {
		t.Errorf("optimised total %d not below naive total %d", totOpt, totNaive)
	}
	var sb strings.Builder
	bench.PrintSizeTable(&sb, rows)
	if !strings.Contains(sb.String(), "paper") {
		t.Error("print output missing paper comparison")
	}
}

func TestRunAblation(t *testing.T) {
	rows, err := bench.RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 33 { // 29 kernels + 4 Fig. 10 workloads
		t.Fatalf("rows = %d, want 33", len(rows.Rows))
	}
	for _, r := range rows.Rows {
		if r.IncrementsFlow > r.IncrementsNaive {
			t.Errorf("%s: flow-based (%d) above naive (%d)", r.Module, r.IncrementsFlow, r.IncrementsNaive)
		}
		if r.IncrementsLoop > r.IncrementsFlow {
			t.Errorf("%s: loop-based (%d) above flow-based (%d)", r.Module, r.IncrementsLoop, r.IncrementsFlow)
		}
	}
	var sb strings.Builder
	bench.PrintAblation(&sb, rows)
	if !strings.Contains(sb.String(), "eliminates") {
		t.Error("print output missing summary")
	}
}

// TestInstrumentedRowAndGate: the instrumented-resize row is measured (the
// counter costs something, the instruction count is the plain module's) and
// the smoke gate fails on either of its two conditions.
func TestInstrumentedRowAndGate(t *testing.T) {
	row, err := bench.RunInstrumented(1)
	if err != nil {
		t.Fatal(err)
	}
	if row.PlainNs <= 0 || row.InstrumentedNs <= 0 || row.Instructions == 0 || row.Overhead <= 0 {
		t.Fatalf("unmeasured row: %+v", row)
	}
	micro := []bench.MicroRow{{Name: "m", RegSpeedup: 4}}
	ok := bench.InstrumentedRow{Name: "r", Overhead: 1.2}
	if err := bench.CheckMicroGate(micro, 3, ok, 1.4); err != nil {
		t.Errorf("gate failed inside both bounds: %v", err)
	}
	if err := bench.CheckMicroGate(micro, 5, ok, 1.4); err == nil {
		t.Error("gate passed a micro geomean below its floor")
	}
	if err := bench.CheckMicroGate(micro, 3, bench.InstrumentedRow{Name: "r", Overhead: 1.5}, 1.4); err == nil {
		t.Error("gate passed an instrumented/plain ratio above its ceiling")
	}
}

// TestDeployAllocRowAndGate: deploying the footprint set allocates at most
// bench.DeployAllocSmokeCeiling bytes per instrumented instruction, the
// three passes agree to within a byte per instruction (the row is
// deterministic), and the gate fails above its ceiling.
func TestDeployAllocRowAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	row, err := bench.RunDeployAlloc()
	if err != nil {
		t.Fatal(err)
	}
	again, err := bench.RunDeployAlloc()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", row)
	if row.Modules == 0 || row.Instructions == 0 || row.BytesPerInstr <= 0 {
		t.Fatalf("unmeasured row: %+v", row)
	}
	if d := row.BytesPerInstr - again.BytesPerInstr; d > 1 || d < -1 {
		t.Errorf("two measurements differ: %.1f and %.1f B per instruction", row.BytesPerInstr, again.BytesPerInstr)
	}
	if err := bench.CheckDeployAllocGate(row, bench.DeployAllocSmokeCeiling); err != nil {
		t.Error(err)
	}
	if err := bench.CheckDeployAllocGate(bench.DeployAllocRow{BytesPerInstr: 2}, 1); err == nil {
		t.Error("gate passed a row above its ceiling")
	}
}
