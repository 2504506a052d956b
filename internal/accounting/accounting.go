// Package accounting defines AccTEE's resource usage log (paper §3.5): the
// weighted instruction counter, memory accounting under the peak and
// integral policies, I/O byte counts, and the sharded, hash-chained,
// batch-signed ledger (ledger.go) both parties trust after attesting the
// accounting enclave, with offline replay verification (verify.go).
package accounting

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MemoryPolicy selects how memory usage is billed (§3.5 "two policies").
type MemoryPolicy int

// Memory accounting policies.
const (
	// PeakMemory bills the final (== peak, memory never shrinks) linear
	// memory size.
	PeakMemory MemoryPolicy = iota + 1
	// MemoryIntegral bills the integral of linear memory size over
	// execution time, approximated by the weighted instruction counter.
	MemoryIntegral
)

// String names the policy.
func (p MemoryPolicy) String() string {
	switch p {
	case PeakMemory:
		return "peak"
	case MemoryIntegral:
		return "integral"
	}
	return "policy?"
}

// UsageLog is one workload execution's resource record.
type UsageLog struct {
	// WorkloadHash identifies the (instrumented) module that ran.
	WorkloadHash [32]byte `json:"workloadHash"`
	// WeightedInstructions is the weighted instruction counter value.
	WeightedInstructions uint64 `json:"weightedInstructions"`
	// PeakMemoryBytes is the final linear memory size.
	PeakMemoryBytes uint64 `json:"peakMemoryBytes"`
	// MemoryIntegral is ∑ memorySize·Δcounter over the execution, in
	// byte·instructions (meaningful under MemoryIntegral policy).
	MemoryIntegral uint64 `json:"memoryIntegral"`
	// IOBytesIn / IOBytesOut count bytes crossing the sandbox boundary.
	IOBytesIn  uint64 `json:"ioBytesIn"`
	IOBytesOut uint64 `json:"ioBytesOut"`
	// SimulatedCycles is the cost-model cycle total (EPC paging,
	// transitions) — reported for transparency, not billed per §3.2.
	SimulatedCycles uint64 `json:"simulatedCycles"`
	// Policy is the memory policy both parties agreed on.
	Policy MemoryPolicy `json:"policy"`
	// Sequence orders periodic log records of one execution.
	Sequence uint64 `json:"sequence"`
}

// MarshalSize is the exact byte length of a marshalled UsageLog. The
// chained-hash ledger format (ledger.go) builds on this layout; it must
// never drift silently — see TestMarshalPinned.
const MarshalSize = 32 + 8*8

// Marshal serialises the log deterministically for signing and chaining:
// the workload hash followed by eight little-endian uint64 fields.
func (u *UsageLog) Marshal() []byte {
	return u.AppendMarshal(make([]byte, 0, MarshalSize))
}

// AppendMarshal appends the marshalled log to buf in place (chain hashing
// composes several marshalled structures without intermediate buffers).
func (u *UsageLog) AppendMarshal(buf []byte) []byte {
	buf = append(buf, u.WorkloadHash[:]...)
	var b [8]byte
	for _, v := range [8]uint64{
		u.WeightedInstructions, u.PeakMemoryBytes, u.MemoryIntegral,
		u.IOBytesIn, u.IOBytesOut, u.SimulatedCycles, uint64(u.Policy), u.Sequence,
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	return buf
}

// UnmarshalUsageLog is Marshal's inverse.
func UnmarshalUsageLog(b []byte) (UsageLog, error) {
	var u UsageLog
	return u, u.unmarshal(b)
}

// unmarshal fills u from a marshalled log, overwriting every field — the
// form the frame and container decoders use on records they reuse.
func (u *UsageLog) unmarshal(b []byte) error {
	if len(b) != MarshalSize {
		return fmt.Errorf("accounting: usage log is %d bytes, want %d", len(b), MarshalSize)
	}
	copy(u.WorkloadHash[:], b[:32])
	f := func(i int) uint64 { return binary.LittleEndian.Uint64(b[32+8*i:]) }
	u.WeightedInstructions, u.PeakMemoryBytes, u.MemoryIntegral = f(0), f(1), f(2)
	u.IOBytesIn, u.IOBytesOut, u.SimulatedCycles = f(3), f(4), f(5)
	u.Policy, u.Sequence = MemoryPolicy(f(6)), f(7)
	return nil
}

// ErrBadLogSignature indicates a forged or corrupted usage record
// signature (see VerifyRecordSig in ledger.go — records and checkpoints
// are the only signed accounting artefacts; the pre-ledger per-log
// signing API was removed with PR 3 so there is exactly one trust-critical
// signing surface to audit).
var ErrBadLogSignature = errors.New("accounting: usage log signature invalid")

// Meter tracks the memory integral during execution: Update is called with
// the current counter and memory size whenever either may have changed
// (e.g. at host-call boundaries and after execution).
type Meter struct {
	lastCounter uint64
	integral    uint64
}

// Update advances the integral: memory size is weighted by the counter
// delta since the previous observation.
func (m *Meter) Update(counter uint64, memBytes uint64) {
	if counter > m.lastCounter {
		m.integral += (counter - m.lastCounter) * memBytes
		m.lastCounter = counter
	}
}

// Integral returns the accumulated byte·instruction integral.
func (m *Meter) Integral() uint64 { return m.integral }
