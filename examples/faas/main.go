// Serverless example (paper §2.1, §5.3): deploy the image-resize function
// behind the FaaS gateway in the instrumented SGX setup with bounded
// ledger retention, fire requests at it, read back per-request receipts
// into the gateway's hash-chained ledger, fetch a batch-signed checkpoint
// covering all of them, compact the ledger (sealed segments spill to
// disk), and verify both the full from-genesis dump and the truncated
// dump anchored at the compaction checkpoint — exactly what
// cmd/acctee-verify does offline (the `make verify-ledger` smoke path).
// -dump and -dump-truncated save the two dump containers GET /ledger
// served.
//
// With -prove-tamper the example additionally flips one byte inside a
// spilled frame and proves the spill verifier rejects it, then
// restores the byte so later `acctee-verify -spill` runs see the pristine
// directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"

	"acctee/internal/accounting"
	"acctee/internal/core"
	"acctee/internal/faas"
	"acctee/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dumpPath := flag.String("dump", "", "write the full ledger dump (container) here for acctee-verify")
	truncPath := flag.String("dump-truncated", "", "write the truncated (checkpoint-anchored) ledger dump here")
	spillDir := flag.String("spill-dir", "", "spill sealed ledger segments to this directory")
	retention := flag.Int("retention", 8, "max resident ledger records before auto-compaction")
	keepEvery := flag.Int("keep-every", 2, "prune the persisted checkpoint chain to every Kth checkpoint plus the anchor tip (0 or 1 = keep all)")
	tamper := flag.Bool("prove-tamper", false, "flip a byte in a spilled binary frame and prove verification fails")
	flag.Parse()

	srv, err := faas.NewServerWithOptions(faas.Resize, faas.SetupSGXHWInstr, faas.ServerOptions{
		Ledger: accounting.LedgerOptions{
			Shards: 2,
			Retention: accounting.RetentionPolicy{
				MaxResidentRecords:  *retention,
				SegmentRecords:      4,
				SpillDir:            *spillDir,
				CheckpointKeepEvery: *keepEvery,
			},
		},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	gateway := httptest.NewServer(srv)
	defer gateway.Close()
	fmt.Printf("resize function deployed at %s (setup: %s, max resident records: %d)\n",
		gateway.URL, faas.SetupSGXHWInstr, *retention)

	for _, size := range []int{64, 128, 256} {
		img := workloads.TestImage(size, size)
		req, err := http.NewRequest(http.MethodPost, gateway.URL, bytes.NewReader(img))
		if err != nil {
			return err
		}
		req.Header.Set("X-Width", strconv.Itoa(size))
		req.Header.Set("X-Height", strconv.Itoa(size))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		_ = resp.Body.Close()
		fmt.Printf("resize %4dx%-4d -> %d bytes | billed: %s weighted instructions | receipt %s/%s head %.8s…\n",
			size, size, len(body), resp.Header.Get("X-Weighted-Instructions"),
			resp.Header.Get("X-Acct-Shard"), resp.Header.Get("X-Acct-Sequence"),
			resp.Header.Get("X-Acct-Chain"))
	}
	// A burst of small requests pushes the ledger past its retention
	// budget: segments fill, auto-compaction checkpoints and seals them.
	small := workloads.TestImage(32, 32)
	for i := 0; i < 21; i++ {
		req, err := http.NewRequest(http.MethodPost, gateway.URL, bytes.NewReader(small))
		if err != nil {
			return err
		}
		req.Header.Set("X-Width", "32")
		req.Header.Set("X-Height", "32")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	fmt.Printf("gateway served %d requests; resident ledger records: %d (spilled: %d)\n",
		srv.Requests(), srv.Ledger().Resident(), srv.Ledger().SpilledRecords())

	// One checkpoint signature covers every request served so far.
	cr, err := http.Get(gateway.URL + faas.CheckpointPath)
	if err != nil {
		return err
	}
	var sc accounting.SignedCheckpoint
	if err := json.NewDecoder(cr.Body).Decode(&sc); err != nil {
		return err
	}
	_ = cr.Body.Close()
	// The gateway is an accounting enclave: its checkpoints verify under the
	// AE measurement the auditor computed from the enclave code (§3.3).
	if err := accounting.VerifyCheckpointSig(sc, srv.Enclave().PublicKey(), core.AEMeasurement()); err != nil {
		return fmt.Errorf("checkpoint verification: %w", err)
	}
	fmt.Printf("checkpoint verified: %d records, %d weighted instructions — one signature\n",
		sc.Checkpoint.Covered(), sc.Checkpoint.Totals.WeightedInstructions)

	// Compact on request (POST — it mutates ledger state): seal everything
	// the checkpoint covers, so the truncated dump below starts at a
	// non-zero sequence.
	compR, err := http.Post(gateway.URL+faas.CompactPath, "", nil)
	if err != nil {
		return err
	}
	var compact accounting.CompactResult
	if err := json.NewDecoder(compR.Body).Decode(&compact); err != nil {
		return err
	}
	_ = compR.Body.Close()
	fmt.Printf("compacted: anchor checkpoint %d, %d records released, %d resident\n",
		compact.Checkpoint.Checkpoint.Sequence, compact.Released, compact.Resident)

	// A few more requests after compaction: the truncated dump then holds
	// a live tail chaining from the anchor's carried-forward heads.
	for i := 0; i < 3; i++ {
		req, err := http.NewRequest(http.MethodPost, gateway.URL, bytes.NewReader(small))
		if err != nil {
			return err
		}
		req.Header.Set("X-Width", "32")
		req.Header.Set("X-Height", "32")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}

	// Fetch, save and verify both dump flavours, exactly as acctee-verify
	// does: the verifier streams, so the records are never materialised.
	fetchAndVerify := func(query, path, what string) (*accounting.VerifyResult, error) {
		resp, err := http.Get(gateway.URL + faas.LedgerPath + query)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if path != "" {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				return nil, err
			}
		}
		vr, err := accounting.VerifyReader(bytes.NewReader(raw),
			accounting.VerifyOptions{Key: srv.Enclave().PublicKey()})
		if err != nil {
			return nil, fmt.Errorf("%s verification: %w", what, err)
		}
		return vr, nil
	}
	vr, err := fetchAndVerify("", *dumpPath, "full dump")
	if err != nil {
		return err
	}
	fmt.Printf("full replay OK: %d records across %d shards, chain intact, totals reconstruct\n",
		vr.Records, vr.Shards)
	tv, err := fetchAndVerify("?truncated=1", *truncPath, "truncated dump")
	if err != nil {
		return err
	}
	if !tv.Anchored || tv.StartRecords == 0 {
		return fmt.Errorf("truncated dump is not checkpoint-anchored (anchored=%v start=%d)", tv.Anchored, tv.StartRecords)
	}
	fmt.Printf("truncated replay OK: %d tail records, %d carried forward by anchor checkpoint %d's signature\n",
		tv.Records, tv.StartRecords, tv.AnchorSequence)

	if *tamper {
		if *spillDir == "" {
			return fmt.Errorf("-prove-tamper needs -spill-dir")
		}
		srv.Close() // flush and release the spill files first
		if _, err := accounting.VerifySpillDir(*spillDir, accounting.VerifyOptions{Key: srv.Enclave().PublicKey()}); err != nil {
			return fmt.Errorf("pristine spill dir failed verification: %w", err)
		}
		seg := filepath.Join(*spillDir, "shard-0000.seg")
		raw, err := os.ReadFile(seg)
		if err != nil {
			return err
		}
		// Byte 10 sits inside the first binary frame's payload — past the
		// length prefix, so the flip breaks the frame CRC and can never
		// pass for an honestly torn tail.
		pos := 10
		raw[pos] ^= 0x01
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			return err
		}
		_, verr := accounting.VerifySpillDir(*spillDir, accounting.VerifyOptions{Key: srv.Enclave().PublicKey()})
		if verr == nil {
			return fmt.Errorf("flipped byte %d in %s went UNDETECTED", pos, seg)
		}
		fmt.Printf("tamper detection OK: flipped byte %d in %s -> %v\n", pos, filepath.Base(seg), verr)
		raw[pos] ^= 0x01 // restore for later acctee-verify -spill runs
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			return err
		}
	}

	if *dumpPath != "" {
		fmt.Printf("ledger written to %s (verify with: acctee-verify -dump %s)\n", *dumpPath, *dumpPath)
	}
	if *truncPath != "" {
		fmt.Printf("truncated ledger written to %s (starts mid-chain, anchored at a signed checkpoint)\n", *truncPath)
	}
	fmt.Println("identical inputs are billed identically on every provider — the")
	fmt.Println("per-instruction price is comparable across clouds (paper §3.2).")
	return nil
}
