package faas_test

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"acctee/internal/accounting"
	"acctee/internal/faas"
	"acctee/internal/fault"
	"acctee/internal/loadgen"
	"acctee/internal/workloads"
)

// TestGatewayChaosCrashMidGroupCommitRecovers is the end-to-end fault
// drill: a gateway under sustained load, retention auto-compacting and
// spilling behind it, has its disk "crash" mid-group-commit — the dying
// write tears a frame, and every later write, sync, or truncate fails.
// The gateway must keep serving every request (the ledger degrades to
// bounded-in-memory retention instead of wedging), report the failure
// through /readyz, and after a restart on the same spill directory the
// recovery path must truncate the torn tail back to a signed anchor and
// leave a directory the offline verifier accepts.
func TestGatewayChaosCrashMidGroupCommitRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	inj := fault.New()
	ledgerOpts := accounting.LedgerOptions{
		Shards: 2,
		Retention: accounting.RetentionPolicy{
			MaxResidentRecords: 64, // auto-compactions fire throughout the load
			SegmentRecords:     16,
			SpillDir:           dir,
		},
	}
	crashOpts := ledgerOpts
	crashOpts.Faults = inj
	srv, err := faas.NewServerWithOptions(faas.Echo, faas.SetupSGXHWInstr, faas.ServerOptions{
		MaxInFlight: 32,
		MaxQueue:    64,
		Ledger:      crashOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	total := 10_000
	if testing.Short() {
		total = 1_000
	}
	payload := workloads.TestImage(8, 8)

	// Warm-up: let a few group commits land cleanly so the crash has a
	// durable, signed prefix to tear away from.
	warm := loadgen.GenerateLoadWithOptions(ts.URL, loadgen.LoadOptions{
		Clients: 4, Total: 200, Payload: payload,
	})
	if warm.Requests != 200 {
		t.Fatalf("warm-up served %d of 200 (status breakdown %v)", warm.Requests, warm.ByStatus)
	}
	// Arm the crash: the 3rd batch write from now tears 7 bytes into a
	// shard file and kills the disk. (Checkpoint-log appends share the
	// write schedule; whichever write is third, the image is a faithful
	// mid-commit power cut.)
	inj.CrashOnWrite(inj.Writes()+3, 7)

	res := loadgen.GenerateLoadWithOptions(ts.URL, loadgen.LoadOptions{
		Clients: 8, Total: total, Payload: payload,
	})
	if res.Requests != total {
		t.Fatalf("served %d of %d through the disk crash (status breakdown %v)",
			res.Requests, total, res.ByStatus)
	}
	if !inj.Crashed() {
		t.Fatal("the load never reached the armed crash point — not enough group commits")
	}
	// The async writer exhausts its retry budget on its own schedule.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if deg, _ := srv.Ledger().Degraded(); deg {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ledger never degraded after the disk crash")
		}
		time.Sleep(time.Millisecond)
	}

	// Liveness stays green; readiness reports the lost durability.
	hresp, _ := get(t, ts.URL+faas.HealthPath)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz on a degraded gateway: status %d, want 200", hresp.StatusCode)
	}
	rresp, rbody := get(t, ts.URL+faas.ReadyPath)
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on a degraded gateway: status %d, want 503 (body %s)", rresp.StatusCode, rbody)
	}
	// And the degraded gateway still serves and accounts requests.
	if resp, _ := post(t, ts.URL, payload, 0, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke on a degraded gateway: status %d", resp.StatusCode)
	}

	// Restart: reopen the spill directory with the same enclave identity
	// and a healthy disk. Recovery must truncate the torn tail back to a
	// frame-aligned signed anchor and carry the chain forward.
	enclave := srv.Enclave()
	srv.Close()
	l2, err := accounting.NewLedger(enclave, ledgerOpts)
	if err != nil {
		t.Fatalf("recovery after mid-group-commit crash: %v", err)
	}
	defer l2.Close()
	vres, err := accounting.VerifySpillDir(dir, accounting.VerifyOptions{Key: enclave.PublicKey()})
	if err != nil {
		t.Fatalf("spill dir does not verify after recovery: %v", err)
	}
	if vres.Records == 0 {
		t.Fatal("recovery kept no records — the durable prefix was lost, not just the torn tail")
	}
	// The recovered ledger keeps chaining and checkpointing.
	if _, _, err := l2.Append(accounting.UsageLog{WeightedInstructions: 1}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if _, err := l2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}
