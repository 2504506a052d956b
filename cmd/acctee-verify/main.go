// Command acctee-verify replays a serialised accounting ledger offline and
// reports whether it is intact: per-shard hash-chain continuity (from the
// carried-forward heads of an anchoring checkpoint, for truncated dumps),
// gap-free lane sequences, checkpoint signatures against the attested
// enclave key, checkpoint chaining, and bit-exact totals reconstruction.
// A single flipped byte anywhere in the dump makes verification fail.
//
// Verification is streaming: records are consumed one at a time off the
// file, so a million-record dump verifies in constant record memory. A
// dump is the binary ACCTDMP3 container that Ledger.WriteDump and the
// gateway's GET /ledger write; there is no other dump format. Dumps may
// start at any checkpoint-anchored sequence (the gateway's
// /ledger?truncated=1, or DumpOptions.Truncated) — the anchor's
// signature vouches for everything below the starting sequences. Dumps
// and spill directories whose checkpoint chain was pruned
// (RetentionPolicy.CheckpointKeepEvery) declare it, and the verifier
// then tolerates — and reports — sequence gaps between retained
// checkpoints; every retained checkpoint is still signature-checked.
//
// Usage:
//
//	acctee-verify -dump ledger.bin  [-measurement hex32] [-pubkey key.der]
//	acctee-verify -spill spill-dir  [-measurement hex32] [-pubkey key.der]
//
// -spill replays a bounded-retention ledger's spill directory instead:
// every spilled segment frame is re-hashed against the persisted
// checkpoint chain, so a flipped byte in any segment file is detected. A
// directory whose manifest is not stamped acctee-spill/v2 (the JSON-lines
// v1 layout of early builds) is refused.
//
// By default the dump-embedded public key and measurement are used (fine
// when the dump travelled a trusted channel). A suspicious verifier passes
// the key and measurement it attested itself: -pubkey takes the PKIX DER
// public key, -measurement the expected enclave measurement in hex.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"acctee/internal/accounting"
	"acctee/internal/sgx"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acctee-verify:", err)
		os.Exit(1)
	}
}

func run() error {
	dumpPath := flag.String("dump", "", "serialised ledger (dump container, see the /ledger endpoint or Ledger.WriteDump)")
	spillDir := flag.String("spill", "", "bounded-retention spill directory to replay instead of a dump")
	measHex := flag.String("measurement", "", "expected enclave measurement (64 hex chars; empty = trust the dump)")
	keyPath := flag.String("pubkey", "", "attested enclave public key (PKIX DER file; empty = trust the dump)")
	flag.Parse()
	if *dumpPath == "" && *spillDir == "" {
		return fmt.Errorf("missing -dump or -spill")
	}

	var opts accounting.VerifyOptions
	if *measHex != "" {
		b, err := hex.DecodeString(*measHex)
		if err != nil || len(b) != len(sgx.Measurement{}) {
			return fmt.Errorf("-measurement wants %d hex bytes", len(sgx.Measurement{}))
		}
		copy(opts.Measurement[:], b)
	}
	if *keyPath != "" {
		der, err := os.ReadFile(*keyPath)
		if err != nil {
			return err
		}
		if opts.Key, err = accounting.ParsePublicKey(der); err != nil {
			return err
		}
	}

	if *spillDir != "" {
		res, err := accounting.VerifySpillDir(*spillDir, opts)
		if err != nil {
			return fmt.Errorf("SPILL INVALID: %w", err)
		}
		printResult(res, "spilled ledger")
		return nil
	}
	f, err := os.Open(*dumpPath)
	if err != nil {
		return err
	}
	defer f.Close()
	res, err := accounting.VerifyReader(f, opts)
	if err != nil {
		return fmt.Errorf("LEDGER INVALID: %w", err)
	}
	printResult(res, "ledger")
	return nil
}

func printResult(res *accounting.VerifyResult, what string) {
	fmt.Printf("%s OK: %d records across %d shards, %d checkpoints (%d records checkpoint-covered, %d eager signatures)\n",
		what, res.Records, res.Shards, res.Checkpoints, res.CoveredRecords, res.EagerSignatures)
	if res.Anchored {
		fmt.Printf("anchored at checkpoint %d: %d earlier records carried forward by its signature (dump starts mid-chain)\n",
			res.AnchorSequence, res.StartRecords)
	}
	if res.BeyondHorizon > 0 {
		fmt.Printf("%d checkpoints reach beyond the spilled horizon (signed after the last seal; signatures verified)\n",
			res.BeyondHorizon)
	}
	if res.PrunedCheckpointGaps > 0 {
		fmt.Printf("%d checkpoint-chain gaps accepted under declared pruning (every retained checkpoint signature-checked)\n",
			res.PrunedCheckpointGaps)
	}
	fmt.Printf("totals: %d weighted instructions, peak memory %d B, memory integral %d, io %d/%d B, %d simulated cycles\n",
		res.Totals.WeightedInstructions, res.Totals.PeakMemoryBytes, res.Totals.MemoryIntegral,
		res.Totals.IOBytesIn, res.Totals.IOBytesOut, res.Totals.SimulatedCycles)
}
