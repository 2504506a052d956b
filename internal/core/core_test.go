package core_test

import (
	"bytes"
	"errors"
	"testing"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/instrument"
	"acctee/internal/interp"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	"acctee/internal/weights"
)

func sumModule() *wasm.Module {
	b := wasm.NewModule("sum")
	b.Memory(1, 4)
	f := b.Func("sum", []wasm.ValueType{wasm.I32}, []wasm.ValueType{wasm.I32})
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I32)
	f.ForI32(i, []wasm.Instr{wasm.ConstI32(0)}, []wasm.Instr{wasm.WithIdx(wasm.OpLocalGet, 0)}, 1, func() {
		f.LocalGet(acc).LocalGet(i).Op(wasm.OpI32Add).LocalSet(acc)
		// touch memory so the EPC model sees traffic
		f.I32Const(0).LocalGet(acc).Store(wasm.OpI32Store, 0)
	})
	f.LocalGet(acc)
	b.ExportFunc("sum", f.End())
	return b.MustBuild()
}

// TestEndToEndWorkflow walks the full Fig. 3 pipeline: instrument → attest
// both enclaves → verify evidence → execute → verify the signed log.
func TestEndToEndWorkflow(t *testing.T) {
	// Platform setup (infrastructure provider machine).
	qe, err := sgx.NewQuotingEnclave()
	if err != nil {
		t.Fatal(err)
	}
	svc := sgx.NewAttestationService()
	svc.RegisterPlatform("provider-1", qe)

	// Workload provider instruments through the IE.
	ie, err := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sumModule()
	inst, ev, err := ie.Instrument(m)
	if err != nil {
		t.Fatal(err)
	}

	// Both parties attest the IE before trusting the evidence.
	ieQuote, err := ie.Quote(qe)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Attest(ieQuote, core.IEMeasurement(), ie.PublicKey()); err != nil {
		t.Fatalf("IE attestation: %v", err)
	}

	// Infrastructure provider sets up the AE with the evidence.
	ae, err := core.NewAccountingEnclave(sgx.ModeHardware, sgx.DefaultCostParams(), nil, inst, ev, ie.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	aeQuote, err := ae.Quote(qe)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Attest(aeQuote, core.AEMeasurement(), ae.PublicKey()); err != nil {
		t.Fatalf("AE attestation: %v", err)
	}

	// Execute and check results + ledger record.
	res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{100}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Results[0] != 4950 {
		t.Errorf("sum(100) = %d, want 4950", res.Results[0])
	}
	if res.Record.Log.WeightedInstructions == 0 {
		t.Error("weighted instruction counter is zero")
	}
	if res.Record.Log.PeakMemoryBytes != 64*1024 {
		t.Errorf("peak memory = %d, want one page", res.Record.Log.PeakMemoryBytes)
	}
	if res.Receipt.ChainHead != res.Record.Hash || res.Receipt.ChainHead == ([32]byte{}) {
		t.Error("receipt does not carry the record's chain head")
	}

	// Counter equals the uninstrumented ground truth.
	ref, err := interp.Instantiate(m, interp.Config{CostModel: weights.Unit()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.InvokeExport("sum", 100); err != nil {
		t.Fatal(err)
	}
	if res.Record.Log.WeightedInstructions != ref.Cost() {
		t.Errorf("counter %d != ground truth %d", res.Record.Log.WeightedInstructions, ref.Cost())
	}

	// A second run chains onto the ledger; the on-request checkpoint
	// covers both with one signature that both parties can verify.
	if _, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{10}}); err != nil {
		t.Fatal(err)
	}
	sc, err := ae.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Checkpoint.Covered(); got != 2 {
		t.Errorf("checkpoint covers %d records, want 2", got)
	}
	if err := accounting.VerifyCheckpointSig(sc, ae.PublicKey(), core.AEMeasurement()); err != nil {
		t.Errorf("checkpoint verification: %v", err)
	}

	// The checkpoint can be bound into a fresh attestation quote: proof
	// that the attested enclave stood behind exactly this ledger state.
	cpQuote, err := ae.QuoteCheckpoint(qe, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttestCheckpoint(cpQuote, core.AEMeasurement(), ae.PublicKey(), sc.Checkpoint.Hash()); err != nil {
		t.Errorf("checkpoint attestation: %v", err)
	}
	other := sc
	other.Checkpoint.Totals.WeightedInstructions++
	if err := svc.AttestCheckpoint(cpQuote, core.AEMeasurement(), ae.PublicKey(), other.Checkpoint.Hash()); err == nil {
		t.Error("quote attested a checkpoint it does not bind")
	}

	// And the full ledger replays offline.
	dump, err := ae.Ledger().Dump()
	if err != nil {
		t.Fatal(err)
	}
	vr, err := accounting.VerifyDump(dump, accounting.VerifyOptions{Key: ae.PublicKey(), Measurement: core.AEMeasurement()})
	if err != nil {
		t.Fatalf("offline verification: %v", err)
	}
	if vr.Records != 2 || vr.CoveredRecords != 2 {
		t.Errorf("offline verification result %+v", vr)
	}
}

func TestEvidenceTamperDetected(t *testing.T) {
	ie, _ := core.NewInstrumentationEnclave(instrument.Naive, nil)
	inst, ev, err := ie.Instrument(sumModule())
	if err != nil {
		t.Fatal(err)
	}

	// Tampering with the module after instrumentation must be detected.
	bad := inst.Clone()
	bad.Funcs[0].Body[0] = wasm.ConstI32(42) // swap an instruction
	if _, err := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), nil, bad, ev, ie.PublicKey()); !errors.Is(err, core.ErrEvidenceMismatch) {
		t.Errorf("module tamper: %v", err)
	}

	// Tampering with the evidence (counter index redirect) must be detected.
	badEv := ev
	badEv.CounterGlobal++
	if _, err := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), nil, inst, badEv, ie.PublicKey()); !errors.Is(err, core.ErrEvidenceSignature) {
		t.Errorf("evidence tamper: %v", err)
	}

	// Evidence signed by a different (unattested) IE key must be rejected.
	other, _ := core.NewInstrumentationEnclave(instrument.Naive, nil)
	if _, err := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), nil, inst, ev, other.PublicKey()); !errors.Is(err, core.ErrEvidenceSignature) {
		t.Errorf("wrong IE key: %v", err)
	}
}

func TestWeightTableMismatchRejected(t *testing.T) {
	ie, _ := core.NewInstrumentationEnclave(instrument.LoopBased, weights.Unit())
	inst, ev, err := ie.Instrument(sumModule())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), weights.Calibrated(), inst, ev, ie.PublicKey()); err == nil {
		t.Error("mismatched weight table accepted")
	}
}

func TestLogTamperDetected(t *testing.T) {
	ie, _ := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	inst, ev, _ := ie.Instrument(sumModule())
	ae, err := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), nil, inst, ev, ie.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	// Eager mode: every record carries its own signature (the per-record
	// baseline kept for differential testing).
	ae.SetLedgerOptions(accounting.LedgerOptions{EagerSign: true})
	res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if err := accounting.VerifyRecordSig(res.Record, ae.PublicKey()); err != nil {
		t.Fatalf("honest record rejected: %v", err)
	}
	forged := res.Record
	forged.Log.WeightedInstructions /= 2 // provider tries to undercharge
	forged.Hash = forged.ComputeHash()   // even re-hashing cannot save the forgery
	if err := accounting.VerifyRecordSig(forged, ae.PublicKey()); !errors.Is(err, accounting.ErrBadLogSignature) {
		t.Errorf("forged record: %v", err)
	}
}

func TestFuelBoundsExecution(t *testing.T) {
	ie, _ := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	inst, ev, _ := ie.Instrument(sumModule())
	ae, err := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), nil, inst, ev, ie.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	_, err = ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{1 << 30}, Fuel: 10_000})
	if !errors.Is(err, interp.ErrFuelExhausted) {
		t.Errorf("unbounded workload: %v", err)
	}
}

func TestHardwareModeCostsMore(t *testing.T) {
	ie, _ := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	inst, ev, _ := ie.Instrument(sumModule())
	params := sgx.DefaultCostParams()
	params.UsableEPCBytes = 4096 // tiny EPC so paging shows immediately

	runMode := func(mode sgx.Mode) uint64 {
		ae, err := core.NewAccountingEnclave(mode, params, nil, inst, ev, ie.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{500}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Record.Log.SimulatedCycles
	}
	sim := runMode(sgx.ModeSimulation)
	hw := runMode(sgx.ModeHardware)
	if hw <= sim {
		t.Errorf("hardware cycles %d not above simulation cycles %d", hw, sim)
	}
}

func TestLedgerDumpJSONRoundTrip(t *testing.T) {
	ie, _ := core.NewInstrumentationEnclave(instrument.LoopBased, nil)
	inst, ev, _ := ie.Instrument(sumModule())
	ae, _ := core.NewAccountingEnclave(sgx.ModeSimulation, sgx.DefaultCostParams(), nil, inst, ev, ie.PublicKey())
	for i := 0; i < 3; i++ {
		if _, err := ae.Run(core.RunOptions{Entry: "sum", Args: []uint64{7}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ae.Snapshot(); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := ae.Ledger().WriteDump(&c, accounting.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	// The serialised ledger verifies offline with the embedded identity
	// and with the independently attested one.
	if _, err := accounting.VerifyReader(bytes.NewReader(c.Bytes()), accounting.VerifyOptions{}); err != nil {
		t.Errorf("embedded-identity verification: %v", err)
	}
	vr, err := accounting.VerifyReader(bytes.NewReader(c.Bytes()),
		accounting.VerifyOptions{Key: ae.PublicKey(), Measurement: core.AEMeasurement()})
	if err != nil {
		t.Fatalf("attested-identity verification: %v", err)
	}
	if vr.Records != 3 || vr.CoveredRecords != 3 || vr.Checkpoints != 1 {
		t.Errorf("verification result %+v", vr)
	}
	// Container → struct → human rendering is the same text the live
	// ledger renders: nothing is lost or invented on the way through the
	// serialised form.
	back, err := accounting.ReadDump(bytes.NewReader(c.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	live, err := ae.Ledger().Dump()
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("ReadDump(...).JSON() differs from Ledger.Dump().JSON():\n got %s\nwant %s", got, want)
	}
}
