package accounting_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"
	"testing/quick"

	"acctee/internal/accounting"
	"acctee/internal/sgx"
)

func newEnclave(t *testing.T) *sgx.Enclave {
	t.Helper()
	e, err := sgx.NewEnclave([]byte("acctee test AE"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTestLedger(t *testing.T, e *sgx.Enclave, opts accounting.LedgerOptions) *accounting.Ledger {
	t.Helper()
	l, err := accounting.NewLedger(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func sampleLog() accounting.UsageLog {
	return accounting.UsageLog{
		WorkloadHash:         [32]byte{1, 2, 3},
		WeightedInstructions: 123456,
		PeakMemoryBytes:      1 << 20,
		MemoryIntegral:       99,
		IOBytesIn:            10,
		IOBytesOut:           20,
		SimulatedCycles:      777,
		Policy:               accounting.PeakMemory,
		Sequence:             3,
	}
}

func TestRecordSignVerifyRoundTrip(t *testing.T) {
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{Shards: 1, EagerSign: true})
	defer l.Close()
	_, rec, err := l.Append(sampleLog())
	if err != nil {
		t.Fatal(err)
	}
	if err := accounting.VerifyRecordSig(rec, e.PublicKey()); err != nil {
		t.Errorf("verify: %v", err)
	}
	// A batched-mode record has no per-record signature to verify.
	lb := newTestLedger(t, e, accounting.LedgerOptions{Shards: 1})
	defer lb.Close()
	_, unsigned, err := lb.Append(sampleLog())
	if err != nil {
		t.Fatal(err)
	}
	if err := accounting.VerifyRecordSig(unsigned, e.PublicKey()); !errors.Is(err, accounting.ErrNoRecordSignature) {
		t.Errorf("unsigned record: %v", err)
	}
}

// TestRecordSigRejectsTampering sweeps every usage-log field: each is
// covered by the eager record signature, and re-hashing a forged record
// never saves the forgery.
func TestRecordSigRejectsTampering(t *testing.T) {
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{Shards: 1, EagerSign: true})
	defer l.Close()
	_, rec, err := l.Append(sampleLog())
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(*accounting.Record){
		func(r *accounting.Record) { r.Log.WeightedInstructions++ },
		func(r *accounting.Record) { r.Log.PeakMemoryBytes-- },
		func(r *accounting.Record) { r.Log.MemoryIntegral++ },
		func(r *accounting.Record) { r.Log.IOBytesIn++ },
		func(r *accounting.Record) { r.Log.IOBytesOut++ },
		func(r *accounting.Record) { r.Log.SimulatedCycles++ },
		func(r *accounting.Record) { r.Log.Sequence++ },
		func(r *accounting.Record) { r.Log.Policy = accounting.MemoryIntegral },
		func(r *accounting.Record) { r.Log.WorkloadHash[0] ^= 1 },
		func(r *accounting.Record) { r.PrevHash[0] ^= 1 },
		func(r *accounting.Record) { r.Shard++ },
	}
	for i, mutate := range mutations {
		forged := rec
		mutate(&forged)
		forged.Hash = forged.ComputeHash()
		if err := accounting.VerifyRecordSig(forged, e.PublicKey()); !errors.Is(err, accounting.ErrBadLogSignature) {
			t.Errorf("mutation %d accepted: %v", i, err)
		}
	}
	// A wrong key must fail too.
	other := newEnclave(t)
	if err := accounting.VerifyRecordSig(rec, other.PublicKey()); !errors.Is(err, accounting.ErrBadLogSignature) {
		t.Errorf("wrong key: %v", err)
	}
}

// TestMarshalPinned pins the exact serialisation the hash-chained ledger
// builds on: size, field order, and endianness. If this test breaks, every
// existing ledger dump becomes unverifiable — bump DumpFormatV3 instead of
// changing the layout silently.
func TestMarshalPinned(t *testing.T) {
	u := sampleLog()
	b := u.Marshal()
	if len(b) != accounting.MarshalSize {
		t.Fatalf("marshal size %d, want %d", len(b), accounting.MarshalSize)
	}
	want := hex.EncodeToString(u.WorkloadHash[:]) +
		"40e2010000000000" + // WeightedInstructions 123456 LE
		"0000100000000000" + // PeakMemoryBytes 1<<20
		"6300000000000000" + // MemoryIntegral 99
		"0a00000000000000" + // IOBytesIn 10
		"1400000000000000" + // IOBytesOut 20
		"0903000000000000" + // SimulatedCycles 777
		"0100000000000000" + // Policy PeakMemory
		"0300000000000000" // Sequence 3
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("marshal layout drifted:\n got %s\nwant %s", got, want)
	}
}

// TestMarshalRoundTrip property-checks Marshal/UnmarshalUsageLog inversion.
func TestMarshalRoundTrip(t *testing.T) {
	f := func(hash [32]byte, wi, pk, mi, in, out, cyc, seq uint64, pol uint8) bool {
		u := accounting.UsageLog{
			WorkloadHash:         hash,
			WeightedInstructions: wi,
			PeakMemoryBytes:      pk,
			MemoryIntegral:       mi,
			IOBytesIn:            in,
			IOBytesOut:           out,
			SimulatedCycles:      cyc,
			Policy:               accounting.MemoryPolicy(pol),
			Sequence:             seq,
		}
		back, err := accounting.UnmarshalUsageLog(u.Marshal())
		return err == nil && back == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := accounting.UnmarshalUsageLog([]byte("short")); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	a := sampleLog()
	b := sampleLog()
	if string(a.Marshal()) != string(b.Marshal()) {
		t.Error("identical logs marshal differently")
	}
	b.Sequence++
	if string(a.Marshal()) == string(b.Marshal()) {
		t.Error("different logs marshal identically")
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	e := newEnclave(t)
	l := newTestLedger(t, e, accounting.LedgerOptions{Shards: 1, EagerSign: true})
	defer l.Close()
	_, rec, err := l.Append(sampleLog())
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back accounting.Record
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatal(err)
	}
	if back.Log != rec.Log || back.Hash != rec.Hash || back.PrevHash != rec.PrevHash {
		t.Error("JSON round trip changed the record")
	}
	if err := accounting.VerifyRecordSig(back, e.PublicKey()); err != nil {
		t.Errorf("round-tripped record rejected: %v", err)
	}
	if _, err := accounting.ReadDump(bytes.NewReader(j)); err == nil {
		t.Error("JSON accepted as a dump container")
	}
}

// TestMeterIntegral property-checks the memory-integral meter: it is
// monotone and equals Σ mem·Δcounter for increasing counters.
func TestMeterIntegral(t *testing.T) {
	f := func(steps []uint16) bool {
		var m accounting.Meter
		var counter, want uint64
		mem := uint64(4096)
		for _, s := range steps {
			delta := uint64(s % 100)
			counter += delta
			want += delta * mem
			m.Update(counter, mem)
		}
		return m.Integral() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterIgnoresCounterRegression(t *testing.T) {
	var m accounting.Meter
	m.Update(100, 10)
	before := m.Integral()
	m.Update(50, 10) // a stale observation must not decrease the integral
	if m.Integral() != before {
		t.Error("meter regressed on stale counter")
	}
}

func TestPolicyStrings(t *testing.T) {
	if accounting.PeakMemory.String() != "peak" || accounting.MemoryIntegral.String() != "integral" {
		t.Error("policy names wrong")
	}
}
