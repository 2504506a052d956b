GO ?= go

.PHONY: all build test race chaos fuzz-smoke vet fmt-check loc bench bench-smoke verify-ledger clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the concurrency-sensitive packages (striped sandbox instance
# pools, concurrent accounting-enclave runs on affinity-picked ledger
# lanes, the FaaS gateway) under the race detector — including the
# GOMAXPROCS=4 saturation stress tests.
race:
	$(GO) test -race ./internal/accounting/... ./internal/core/... ./internal/faas/... ./internal/interp/...

# chaos runs the fault-injection and overload suite under the race
# detector: injected disk faults (transient heal-via-retry, permanent
# degrade-not-wedge, scripted mid-group-commit crash + recovery, and the
# exhaustive sweeps that crash the spill workload at every write, and a
# pruning workload around its checkpoint-log rewrite, with every tear
# length: TestSpillCrashSweep, TestSpillCrashSweepReachesLogRewrite), deadline
# interrupts with exact partial-work accounting, admission-control
# shedding, and the create/close leak matrix across all of them.
chaos:
	$(GO) test -race -run 'Fault|Chaos|Crash|Interrupt|RunContext|Overload|Shed|Degrade|NoLeak|Admission|Health' \
		./internal/fault/... ./internal/accounting/... ./internal/core/... ./internal/faas/... ./internal/interp/...

# fuzz-smoke runs each fuzz target for 20 s on top of its committed seed
# corpus: the EPC residency model against its map+FIFO reference, the
# spill frame decoder, the dump-container verifier (mutated honest
# containers: no panic, allocation bounded by the input, nothing attested
# changeable), crash recovery on a damaged spill directory (refused and
# untouched, or open, anchored and idempotent), generated programs on
# the register engine against the structured oracle under a fuel budget
# and an interrupt point, the wasm binary codec (whatever Decode accepts
# re-encodes to a fixed point: an equal module, the same bytes, and the
# same bytes again when streamed), linear memory's page table (accesses,
# memory.grow, host views and pooled Reset near page boundaries and the
# memory's end, on both engines, against a flat []byte model), and the CFG
# builder (every body of a decoded module built by the dense builder and by
# the map-based reference kept in its tests: the same graph or the same
# error, never a panic).
# go test takes one -fuzz target and one package per invocation. The
# accounting, codec, page-table and CFG targets cap input minimisation at one
# execution: with the default (60 s per interesting input) a 20 s run
# spends all of it minimising the first input it finds and executes a few
# dozen inputs instead of a hundred thousand.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEPCModel -fuzztime 20s ./internal/sgx
	$(GO) test -run '^$$' -fuzz FuzzBinFrameDecode -fuzztime 20s -fuzzminimizetime 1x ./internal/accounting
	$(GO) test -run '^$$' -fuzz FuzzVerifyReader -fuzztime 20s -fuzzminimizetime 1x ./internal/accounting
	$(GO) test -run '^$$' -fuzz FuzzRecoverDir -fuzztime 20s -fuzzminimizetime 1x ./internal/accounting
	$(GO) test -run '^$$' -fuzz FuzzEngineDifferential -fuzztime 20s ./internal/interp
	$(GO) test -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime 20s -fuzzminimizetime 1x ./internal/wasm/binary
	$(GO) test -run '^$$' -fuzz FuzzLinearMemory -fuzztime 20s -fuzzminimizetime 1x ./internal/interp
	$(GO) test -run '^$$' -fuzz FuzzCFGBuild -fuzztime 20s -fuzzminimizetime 1x ./internal/cfg

# verify-ledger is the tier-2 smoke path for the verifiable ledger: the
# faas example serves instrumented requests under bounded retention
# (sealed segments spill into build/spill) with the persisted checkpoint
# chain pruned to every 2nd checkpoint, compacts, proves a flipped byte
# inside a spilled frame is detected, and writes the full and the
# truncated (checkpoint-anchored, non-zero starting sequence) dump
# containers into build/ (never the repo root); acctee-verify then
# replays all three offline — full dump, truncated dump, and the spill
# directory itself — pinned to the accounting enclave's measurement, which
# is computed here from the AE's code identity as an auditor computes it
# (§3.3), not read from the code that runs.
AE_MEASUREMENT = $(shell printf '%s' 'acctee/accounting-enclave v1.0 (sgx-lkl + wasm interpreter)' | sha256sum | cut -d' ' -f1)

verify-ledger:
	@mkdir -p build
	rm -rf build/spill
	$(GO) run ./examples/faas -dump build/ledger.bin -spill-dir build/spill \
		-retention 8 -keep-every 2 -dump-truncated build/ledger-trunc.bin \
		-prove-tamper
	$(GO) run ./cmd/acctee-verify -measurement $(AE_MEASUREMENT) -dump build/ledger.bin
	$(GO) run ./cmd/acctee-verify -measurement $(AE_MEASUREMENT) -dump build/ledger-trunc.bin
	$(GO) run ./cmd/acctee-verify -measurement $(AE_MEASUREMENT) -spill build/spill

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints non-test Go lines per package outside benchmark/ (the count
# every simplicity PR reports) and their total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# bench regenerates BENCH.json in one run of one built binary: the paper's
# figures (6-10, §5.4 size, ablation), the interp rows (microbenchmarks,
# instrumented resize, call suite), the ledger rows (audit, retention
# sweep) and the GOMAXPROCS scaling matrices — or, on a host with fewer
# than 4 CPUs, the reason they were skipped — under one stamp. `go build`
# stamps the binary with the VCS revision (`go run` does not), which the
# manifest records as `commit`. About 70 s on the 2-vCPU reference host,
# where scaling is skipped.
bench:
	@mkdir -p build
	$(GO) build -o build/acctee-bench ./cmd/acctee-bench
	build/acctee-bench -fig all -json BENCH.json

# bench-smoke is the CI perf gate: the default register engine must hold
# >= 3.0x geomean over the structured reference on the dispatch/memory
# microbenchmarks, the naive-instrumented resize function must run within
# bench.InstrumentedSmokeCeiling of the plain one on the register engine
# (the median over back-to-back pairs), the call-heavy suite must beat its
# DisableInline baseline by >= 1.15x geomean where the inliner fires, the
# compiled footprint set must keep at most bench.CompiledSmokeCeiling retained
# heap bytes per loop-instrumented instruction (85; deterministic), a warm
# pooled echo or resize instance must keep at most bench.PooledSmokeCeiling of
# the memory its module declares (0.05; deterministic), spill-mode
# retention must keep up with bounded, reading a 100,000-record spilled
# ledger back (reopen + VerifySpillDir + WriteDump + VerifyReader) must cost
# at most bench.AuditSmokeCeiling times writing it (append + Compact + Close;
# the median over five ledgers), and on hosts with >= 4 CPUs the
# pooled gateway and bounded ledger must reach >= 1.8x their single-proc
# throughput at GOMAXPROCS=4 (generous noise tolerance; the gate exits
# non-zero on regression and skips the scaling check on smaller hosts).
bench-smoke:
	$(GO) run ./cmd/acctee-bench -fig smoke -trials 5

clean:
	$(GO) clean ./...
