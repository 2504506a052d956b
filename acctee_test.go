package acctee_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"acctee"
)

const doubleWAT = `
(module $double
  (memory 1)
  (global $g (mut i64) (i64.const 0))
  (func $double (param i32) (result i32)
    local.get 0
    i32.const 2
    i32.mul
  )
  (export "double" (func $double))
  (export "memory" (memory 0))
)`

// TestFacadeEndToEnd walks the full public-API workflow from WAT source to
// a verified usage log.
func TestFacadeEndToEnd(t *testing.T) {
	m, err := acctee.ParseWAT(doubleWAT)
	if err != nil {
		t.Fatal(err)
	}

	platform, err := acctee.NewPlatform("provider-1")
	if err != nil {
		t.Fatal(err)
	}
	ie, err := acctee.NewInstrumenter(acctee.LoopBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ie.Attest(platform); err != nil {
		t.Fatalf("IE attestation: %v", err)
	}
	inst, ev, err := ie.Instrument(m)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := acctee.NewSandbox(acctee.SandboxConfig{
		Ledger: acctee.LedgerOptions{Shards: 1, EagerSign: true},
	}, inst, ev, ie.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if err := sb.Attest(platform); err != nil {
		t.Fatalf("AE attestation: %v", err)
	}
	res, err := sb.Run(acctee.RunOptions{Entry: "double", Args: []uint64{21}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0] != 42 {
		t.Errorf("double(21) = %d", res.Results[0])
	}
	if res.Record.Log.WeightedInstructions != 3 {
		t.Errorf("weighted instructions = %d, want 3 (local.get, i32.const, i32.mul)",
			res.Record.Log.WeightedInstructions)
	}
	// Eager mode: the record carries its own verifiable signature.
	if err := acctee.VerifyRecord(res.Record, sb.PublicKey()); err != nil {
		t.Errorf("record verification: %v", err)
	}
	// The on-request checkpoint covers it with one batch signature, and
	// the serialised ledger replays offline.
	sc, err := sb.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := acctee.VerifyCheckpoint(sc, sb.PublicKey()); err != nil {
		t.Errorf("checkpoint verification: %v", err)
	}
	dump, err := sb.Dump()
	if err != nil {
		t.Fatal(err)
	}
	vr, err := acctee.VerifyLedger(dump, sb.PublicKey())
	if err != nil {
		t.Fatalf("ledger verification: %v", err)
	}
	if vr.Records != 1 || vr.CoveredRecords != 1 || vr.EagerSignatures != 1 {
		t.Errorf("ledger verification result %+v", vr)
	}
}

func TestFacadeWATBinaryRoundTrip(t *testing.T) {
	m, err := acctee.ParseWAT(doubleWAT)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := m.Binary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := acctee.DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := m.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("binary round trip changed module identity")
	}
	if !strings.Contains(back.WAT(), "i32.mul") {
		t.Error("WAT output lost instructions")
	}
}

func TestFacadeExecute(t *testing.T) {
	m, err := acctee.ParseWAT(doubleWAT)
	if err != nil {
		t.Fatal(err)
	}
	res, err := acctee.Execute(m, "double", 8)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != 16 {
		t.Errorf("double(8) = %d", res[0])
	}
}

func TestFacadeRejectsInvalidWAT(t *testing.T) {
	if _, err := acctee.ParseWAT(`(module (func $f (result i32)))`); err == nil {
		t.Error("expected validation error for missing result")
	}
}

// TestFacadeCompiledModule exercises the compile-once public API: one
// Compile, many (concurrent) pooled Executes, all agreeing with the
// one-shot Execute.
func TestFacadeCompiledModule(t *testing.T) {
	m, err := acctee.ParseWAT(doubleWAT)
	if err != nil {
		t.Fatal(err)
	}
	want, err := acctee.Execute(m, "double", 21)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				res, err := cm.Execute("double", 21)
				if err != nil {
					errs <- err
					return
				}
				if res[0] != want[0] {
					errs <- fmt.Errorf("pooled Execute = %d, want %d", res[0], want[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFacadeSandboxPoolConfig drives a sandbox with explicit pool knobs:
// runs on recycled instances must match the first run of a newly built
// sandbox (a never-used instance).
func TestFacadeSandboxPoolConfig(t *testing.T) {
	m, err := acctee.ParseWAT(doubleWAT)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := acctee.NewInstrumenter(acctee.LoopBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, ev, err := ie.Instrument(m)
	if err != nil {
		t.Fatal(err)
	}
	newSandbox := func(pool acctee.PoolConfig) *acctee.Sandbox {
		sb, err := acctee.NewSandbox(acctee.SandboxConfig{
			Pool:   pool,
			Ledger: acctee.LedgerOptions{Shards: 1},
		}, inst, ev, ie.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		return sb
	}
	run := func(sb *acctee.Sandbox) acctee.RunResult {
		res, err := sb.Run(acctee.RunOptions{Entry: "double", Args: []uint64{21}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pooled := newSandbox(acctee.PoolConfig{Prewarm: 2})
	defer pooled.Close()
	for i := 0; i < 3; i++ {
		fresh := newSandbox(acctee.PoolConfig{})
		want := run(fresh)
		fresh.Close()
		res := run(pooled)
		if res.Results[0] != 42 {
			t.Errorf("run %d: double(21) = %d", i, res.Results[0])
		}
		if res.Receipt.Shard != 0 || res.Receipt.Sequence != uint64(i) {
			t.Errorf("run %d: receipt %d/%d", i, res.Receipt.Shard, res.Receipt.Sequence)
		}
		got, wantLog := res.Record.Log, want.Record.Log
		got.Sequence, wantLog.Sequence = 0, 0
		if got != wantLog {
			t.Errorf("run %d: pooled usage log %+v, fresh sandbox %+v", i, got, wantLog)
		}
	}
}
