package accounting_test

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"acctee/internal/accounting"
)

// TestLedgerAuditAllocBudget pins what the ledger allocates per record on
// each phase of the ledger-audit cycle (benchmark/ledger.go): the read
// side — reopen, VerifySpillDir, WriteDump, VerifyReader — decodes through
// one reused frame buffer, so its bytes per record are set by the largest
// frame and the fixed readers, not by the record count; the write side
// pays for the resident segment a record lives in (192 B) and, between
// collections, the pooled encode buffer.
func TestLedgerAuditAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("250k appends")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the ledger's")
	}
	const records = 250_000
	e := newEnclave(t)
	dir := t.TempDir()
	opts := accounting.LedgerOptions{
		Shards:    2,
		Retention: accounting.RetentionPolicy{MaxResidentRecords: 8192, SpillDir: dir},
	}
	// phase runs fn and fails the test if it allocated more than budget
	// bytes per record.
	phase := func(name string, budget uint64, fn func()) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fn()
		took := time.Since(t0)
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / records
		t.Logf("%-22s %4d B/record, %d collections, %v", name, per, after.NumGC-before.NumGC, took.Round(time.Millisecond))
		if per > budget {
			t.Errorf("%s allocated %d B per record, budget %d", name, per, budget)
		}
	}

	phase("append+Compact+Close", 400, func() {
		l := newTestLedger(t, e, opts)
		for i := 0; i < records; i++ {
			if _, _, err := l.Append(logFor(i%5, i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
	})
	var reopened *accounting.Ledger
	phase("reopen", 96, func() { reopened = newTestLedger(t, e, opts) })
	defer reopened.Close()
	if got := reopened.Totals().Sequence; got != records {
		t.Fatalf("reopened ledger holds %d records, want %d", got, records)
	}
	phase("VerifySpillDir", 96, func() {
		res, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{})
		if err != nil || res.Records != records {
			t.Fatalf("VerifySpillDir = %+v, %v", res, err)
		}
	})
	phase("WriteDump", 96, func() {
		if err := reopened.WriteDump(io.Discard, accounting.DumpOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// The stream verifier reads a file, as an auditor would; writing it is
	// outside the measured phase.
	dumpPath := filepath.Join(dir, "dump.bin")
	f, err := os.Create(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.WriteDump(f, accounting.DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	phase("VerifyReader", 96, func() {
		f, err := os.Open(dumpPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		res, err := accounting.VerifyReader(bufio.NewReader(f), accounting.VerifyOptions{})
		if err != nil || res.Records != records {
			t.Fatalf("VerifyReader = %+v, %v", res, err)
		}
	})
}

// TestHugeFrameLengthAllocatesNothing: a frame's declared length must not
// size an allocation before the bytes behind it arrive. A shard file
// ending in a prefix that declares 1 GiB - 1 and one byte of payload is a
// torn tail to the verifier and to recovery alike, and neither allocates
// as much as a mebibyte deciding so.
func TestHugeFrameLengthAllocatesNothing(t *testing.T) {
	e := newEnclave(t)
	dir := t.TempDir()
	opts := accounting.LedgerOptions{
		Shards:    1,
		Retention: accounting.RetentionPolicy{SegmentRecords: 8, SpillDir: dir},
	}
	l := newTestLedger(t, e, opts)
	const records = 20
	for i := 0; i < records; i++ {
		if _, _, err := l.Append(logFor(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	seg := filepath.Join(dir, "shard-0000.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0x3f, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	check := func(what string, got uint64) {
		t.Helper()
		t.Logf("%s allocated %d B", what, got)
		if got >= 1<<20 && !raceEnabled {
			t.Errorf("%s allocated %d B over a 5-byte torn tail, want under 1 MiB", what, got)
		}
	}
	check("VerifySpillDir", allocated(func() {
		res, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{})
		if err != nil || res.Records != records {
			t.Fatalf("VerifySpillDir over a torn tail = %+v, %v", res, err)
		}
	}))
	var reopened *accounting.Ledger
	check("recovery", allocated(func() { reopened = newTestLedger(t, e, opts) }))
	defer reopened.Close()
	if got := reopened.Totals().Sequence; got != records {
		t.Fatalf("recovered %d records, want %d", got, records)
	}
	if cut, err := os.Stat(seg); err != nil || cut.Size() != whole.Size()-5 {
		t.Fatalf("recovery left the shard file at %d bytes (%v), want the 5-byte tail cut from %d", cut.Size(), err, whole.Size())
	}
}
