package main

import (
	"embed"
	"fmt"
	"math"

	"acctee/internal/polybench"
	"acctee/internal/wasm"
	"acctee/internal/wasm/wat"
	"acctee/internal/workloads"
)

// This file is the benchmark's one table of frozen sizes: payloads, program
// problem sizes, warm-up counts and the record count of a ledger cycle.
// They were sized once at the seed commit and do not change with the code
// under test; a change to any of them is a change to the benchmark, and the
// baseline is measured again after it.

// spec describes one workload.
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// WarmupOps is the fixed number of ops set-up runs before the first
	// timed op, so pools, cost-table caches and connections are full and
	// setup_s is not a coin toss.
	WarmupOps int
}

var specs = []spec{
	{Name: gwEcho, WarmupOps: 400,
		Why: "64 B echo POSTs: no computation, so fixed per-request costs (net/http, EPC model, pool reset, transitions, ledger append) do nearly all the work"},
	{Name: gwResize, WarmupOps: 16,
		Why: "128x128 RGBA resize POSTs: the interpreter run is nearly the whole request and a 64 KiB payload crosses every copy and the dirty-page reset"},
	{Name: aeCompute, WarmupOps: 2 * len(computeMix),
		Why: "AccountingEnclave.Run over a fixed mix of float loop nests, integer and memory-bound code and call-heavy WAT kernels, with no HTTP"},
	{Name: deployCold, WarmupOps: len(deploySet),
		Why: "module bytes to first result (decode, validate, instrument, evidence check, compile, run, close) at minimal sizes, so compile-time work is the cost"},
	{Name: ledgerAudit, WarmupOps: 1,
		Why: "ledger appends under spill retention beside recovery, spill verification, dump and stream verification, with no interpreter and no HTTP"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Gateway inputs.
const (
	// payloadVariants distinct seeded payloads rotate through the clients,
	// so no request repeats its predecessor's bytes.
	payloadVariants = 32
	echoPayloadLen  = 64
	resizeEdge      = 128 // 128x128 RGBA: 64 KiB in, 16 KiB out
	// gatewayResident is the long-running-gateway ledger configuration.
	gatewayResident = 4096
)

// Ledger-audit inputs.
const (
	// ledgerCycleRecords is N, the appends of one cycle. A quarter of a
	// million keeps a cycle (append, close, recover, verify, dump, verify)
	// near 0.8 s at the seed commit, so a run holds enough cycles for
	// medians; compaction triggers on record count (every ~8192 records),
	// not on a timer, so cycles repeat.
	ledgerCycleRecords = 250_000
	ledgerResident     = 8192
	// ledgerBatch is the latency sample: one batch of appends.
	ledgerBatch = 1000
)

// maxClients caps the closed-loop client count C (see clientCount).
const maxClients = 4

// program is one module of the compute mix or the deploy set: how to build
// it, how to call it, and the native reference its result must equal.
type program struct {
	Name  string
	Build func() (*wasm.Module, error)
	Args  []uint64
	// Want computes the expected raw result of run(Args...) natively.
	Want func() uint64
	// WAT names the kernel's source under kernels/ (WAT kernels only).
	WAT string
}

//go:embed kernels/*.wat
var kernelFS embed.FS

func watSource(file string) (string, error) {
	b, err := kernelFS.ReadFile("kernels/" + file)
	if err != nil {
		return "", fmt.Errorf("kernel %s: %w", file, err)
	}
	return string(b), nil
}

func watProgram(name, file string, arg uint32, native func(uint32) uint32) program {
	return program{
		Name: name, WAT: file, Args: []uint64{uint64(arg)},
		Build: func() (*wasm.Module, error) {
			src, err := watSource(file)
			if err != nil {
				return nil, err
			}
			return wat.Parse(src)
		},
		Want: func() uint64 { return uint64(native(arg)) },
	}
}

func polyProgram(name string, n int) program {
	return program{
		Name: name,
		Build: func() (*wasm.Module, error) {
			k, err := polybench.Get(name)
			if err != nil {
				return nil, err
			}
			return k.Build(n)
		},
		Want: func() uint64 {
			k, err := polybench.Get(name)
			if err != nil {
				return 0
			}
			return math.Float64bits(k.Native(n))
		},
	}
}

func msieveProgram(lo uint64, count uint32) program {
	return program{Name: "MSieve", Build: workloads.BuildMSieve, Args: []uint64{lo, uint64(count)},
		Want: func() uint64 { return workloads.NativeMSieve(lo, count) }}
}

func subsetSumProgram(items, target uint32) program {
	return program{Name: "SubsetSum", Build: workloads.BuildSubsetSum, Args: []uint64{uint64(items), uint64(target)},
		Want: func() uint64 { return workloads.NativeSubsetSum(items, target) }}
}

func pcProgram(vars, samples int) program {
	return program{Name: "PC",
		Build: func() (*wasm.Module, error) { return workloads.BuildPC(vars, samples) },
		Want:  func() uint64 { return workloads.NativePC(vars, samples) }}
}

func darknetProgram(img, filters int) program {
	return program{Name: "Darknet",
		Build: func() (*wasm.Module, error) { return workloads.BuildDarknet(img, filters) },
		Want:  func() uint64 { return math.Float64bits(workloads.NativeDarknet(img, filters)) }}
}

// nativeFib mirrors kernels/fib.wat.
func nativeFib(n uint32) uint32 {
	if n < 2 {
		return n
	}
	return nativeFib(n-1) + nativeFib(n-2)
}

// nativeDispatch mirrors kernels/dispatch.wat.
func nativeDispatch(n uint32) uint32 {
	var acc uint32
	for i := uint32(0); i < n; i++ {
		switch i & 3 {
		case 0:
			acc += i
		case 1:
			acc ^= i
		case 2:
			acc = acc*31 + i
		case 3:
			acc = (acc<<5 | acc>>27) - i
		}
	}
	return acc
}

// computeMix is the ae-compute program mix, each sized to run 5-30 ms per
// AccountingEnclave.Run at the seed commit and then frozen. Float loop
// nests, integer and memory-bound code, and call-heavy kernels: an engine
// change shows on whichever of these it touches, not only on one integer
// resize loop.
var computeMix = []program{
	polyProgram("gemm", 40),
	polyProgram("jacobi-2d", 48),
	polyProgram("cholesky", 64),
	polyProgram("doitgen", 18),
	msieveProgram(1_000_003, 8),
	subsetSumProgram(60, 60_000),
	pcProgram(24, 60),
	darknetProgram(28, 8),
	watProgram("fib", "fib.wat", 24, nativeFib),
	watProgram("dispatch", "dispatch.wat", 200_000, nativeDispatch),
}

// deploySet is the deploy-cold module set: all 29 PolyBench kernels, the
// four Fig. 10 programs and the two WAT kernels, at minimal problem sizes
// so the first run is a small share of the op and compile-time work
// (interp.Compile builds every tier eagerly) is the cost.
var deploySet = buildDeploySet()

// deployPolyN is the smallest PolyBench size at which every kernel's
// checksum equals its native reference bit for bit: at n=4 fdtd-2d, and at
// n=5 gemver and syr2k, differ from native in the last place, and the
// benchmark runs only ops that pass their check.
const deployPolyN = 6

func buildDeploySet() []program {
	var set []program
	for _, name := range polybench.Names() {
		set = append(set, polyProgram(name, deployPolyN))
	}
	return append(set,
		msieveProgram(4, 2),
		subsetSumProgram(4, 100),
		pcProgram(4, 4),
		darknetProgram(4, 1),
		watProgram("fib", "fib.wat", 5, nativeFib),
		watProgram("dispatch", "dispatch.wat", 16, nativeDispatch),
	)
}
