// Package sgx simulates the Intel SGX primitives AccTEE builds on (paper
// §2.2): enclaves with code measurements, local and remote attestation via
// a quoting enclave and an attestation service, and an EPC cost model that
// reproduces the performance cliff of hardware enclaves whose working set
// exceeds the enclave page cache.
//
// Substitution note (README, "Paper versus measured"): real SGX hardware is
// unavailable in this environment. The simulation preserves the property
// the paper relies on — both parties can cryptographically verify *which
// code* produced an artefact before trusting it — using SHA-256
// measurements and ECDSA-P256 signatures, and it preserves the performance
// *shape* via the EPC model.
package sgx

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// Mode distinguishes hardware-mode enclaves (EPC paging and transition
// penalties apply) from simulation mode (no hardware charges), matching the
// paper's WASM-SGX HW and WASM-SGX SIM setups.
type Mode int

// Enclave execution modes.
const (
	ModeSimulation Mode = iota + 1
	ModeHardware
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeSimulation:
		return "SIM"
	case ModeHardware:
		return "HW"
	}
	return "mode?"
}

// Measurement identifies enclave code (MRENCLAVE analogue).
type Measurement [32]byte

// MeasureCode computes the measurement of enclave code.
func MeasureCode(code []byte) Measurement { return sha256.Sum256(code) }

// String renders the first bytes of the measurement in hex.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// CostParams parameterise the hardware cost model. Defaults follow the
// paper: 93 MB of usable EPC and expensive enclave transitions.
type CostParams struct {
	// UsableEPCBytes is the EPC capacity before paging sets in.
	UsableEPCBytes uint64
	// PageFaultCycles is charged per EPC page-in (includes re-encryption).
	PageFaultCycles uint64
	// TransitionCycles is charged per enclave entry/exit (ecall/ocall).
	TransitionCycles uint64
}

// CyclesPerNs turns simulated cycles into time (the paper's Xeon E3-1230 v5
// runs at ~3.4 GHz). Simulated time is reported beside measured time.
const CyclesPerNs = 3.0

// DefaultCostParams returns the paper-calibrated parameters.
func DefaultCostParams() CostParams {
	return CostParams{
		UsableEPCBytes:   93 << 20,
		PageFaultCycles:  12000,
		TransitionCycles: 8000,
	}
}

// Enclave is a simulated SGX enclave: measured code plus a key pair whose
// public half is bound to the measurement through attestation.
type Enclave struct {
	measurement Measurement
	mode        Mode
	costs       CostParams
	key         *ecdsa.PrivateKey
	// transitions is atomic: concurrent sandbox runs cross the boundary
	// from multiple goroutines.
	transitions atomic.Uint64
}

// NewEnclave creates an enclave over the given code.
func NewEnclave(code []byte, mode Mode, costs CostParams) (*Enclave, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: generate enclave key: %w", err)
	}
	return &Enclave{
		measurement: MeasureCode(code),
		mode:        mode,
		costs:       costs,
		key:         key,
	}, nil
}

// Measurement returns the enclave's code measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// PublicKey returns the enclave's public key (bound to the measurement via
// the report's user data during attestation).
func (e *Enclave) PublicKey() *ecdsa.PublicKey { return &e.key.PublicKey }

// Sign signs data with the enclave's private key. Only code inside the
// enclave can produce such signatures; that is what makes logs and evidence
// trustworthy once the enclave is attested.
func (e *Enclave) Sign(data []byte) ([]byte, error) {
	h := sha256.Sum256(data)
	return ecdsa.SignASN1(rand.Reader, e.key, h[:])
}

// VerifyBy checks a signature against an arbitrary public key.
func VerifyBy(pub *ecdsa.PublicKey, data, sig []byte) bool {
	h := sha256.Sum256(data)
	return ecdsa.VerifyASN1(pub, h[:], sig)
}

// Transition records one enclave boundary crossing and returns its cycle
// cost (zero in simulation mode, like the paper's SIM runs). It is safe to
// call from concurrent sandbox runs.
func (e *Enclave) Transition() uint64 {
	e.transitions.Add(1)
	if e.mode != ModeHardware {
		return 0
	}
	return e.costs.TransitionCycles
}

// Transitions returns the number of recorded boundary crossings.
func (e *Enclave) Transitions() uint64 { return e.transitions.Load() }

// TransitionCost returns the per-crossing cycle charge (zero in simulation
// mode) WITHOUT recording a crossing — for callers attributing a crossing
// someone else already recorded (e.g. the library OS) to a specific run.
func (e *Enclave) TransitionCost() uint64 {
	if e.mode != ModeHardware {
		return 0
	}
	return e.costs.TransitionCycles
}

// Report is a local attestation report (analogue of the SGX REPORT
// structure): the enclave's measurement plus caller-chosen user data, e.g.
// the hash of the enclave's public key.
type Report struct {
	Measurement Measurement
	UserData    [64]byte
}

// CreateReport produces a report binding userData to this enclave.
func (e *Enclave) CreateReport(userData []byte) Report {
	var r Report
	r.Measurement = e.measurement
	copy(r.UserData[:], userData)
	return r
}

// PubKeyUserData derives report user data binding an ECDSA public key.
func PubKeyUserData(pub *ecdsa.PublicKey) []byte {
	b := elliptic.Marshal(elliptic.P256(), pub.X, pub.Y)
	h := sha256.Sum256(b)
	return h[:]
}

// CheckpointUserData derives report user data binding both the enclave's
// public key and a ledger checkpoint hash. A quote over such a report
// attests not just which code is running but the exact accounting-ledger
// state (chain heads, totals) it vouched for — the paper's signed usage log
// lifted to a whole checkpointed history.
func CheckpointUserData(pub *ecdsa.PublicKey, checkpointHash [32]byte) []byte {
	b := elliptic.Marshal(elliptic.P256(), pub.X, pub.Y)
	h := sha256.New()
	h.Write(b)
	h.Write(checkpointHash[:])
	return h.Sum(nil)
}

// marshalReport serialises a report for signing.
func marshalReport(r Report) []byte {
	out := make([]byte, 0, 96)
	out = append(out, r.Measurement[:]...)
	out = append(out, r.UserData[:]...)
	return out
}

// Quote is a remotely-verifiable statement: a report signed by the
// platform's quoting enclave.
type Quote struct {
	Report    Report
	Signature []byte
}

// QuotingEnclave signs reports produced on its platform (paper §2.2). Its
// key is provisioned with the attestation service.
type QuotingEnclave struct {
	key *ecdsa.PrivateKey
}

// NewQuotingEnclave creates a platform quoting enclave.
func NewQuotingEnclave() (*QuotingEnclave, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sgx: generate QE key: %w", err)
	}
	return &QuotingEnclave{key: key}, nil
}

// PublicKey returns the quoting enclave's provisioning key.
func (q *QuotingEnclave) PublicKey() *ecdsa.PublicKey { return &q.key.PublicKey }

// QuoteReport signs a report, producing a quote.
func (q *QuotingEnclave) QuoteReport(r Report) (Quote, error) {
	h := sha256.Sum256(marshalReport(r))
	sig, err := ecdsa.SignASN1(rand.Reader, q.key, h[:])
	if err != nil {
		return Quote{}, fmt.Errorf("sgx: quote: %w", err)
	}
	return Quote{Report: r, Signature: sig}, nil
}

// Attestation errors.
var (
	ErrUnknownPlatform   = errors.New("sgx: quote not signed by a registered platform")
	ErrBadQuoteSignature = errors.New("sgx: quote signature invalid")
	ErrWrongMeasurement  = errors.New("sgx: enclave measurement does not match expectation")
)

// AttestationService verifies quotes against registered platforms — the
// analogue of the Intel Attestation Service (IAS) the paper relies on for
// remote attestation.
type AttestationService struct {
	platforms map[string]*ecdsa.PublicKey
}

// NewAttestationService returns an empty service.
func NewAttestationService() *AttestationService {
	return &AttestationService{platforms: make(map[string]*ecdsa.PublicKey)}
}

// RegisterPlatform provisions a quoting enclave's key (EPID analogue).
func (s *AttestationService) RegisterPlatform(name string, qe *QuotingEnclave) {
	s.platforms[name] = qe.PublicKey()
}

// VerifyQuote checks that the quote was produced by a registered platform's
// quoting enclave.
func (s *AttestationService) VerifyQuote(q Quote) error {
	h := sha256.Sum256(marshalReport(q.Report))
	for _, pub := range s.platforms {
		if ecdsa.VerifyASN1(pub, h[:], q.Signature) {
			return nil
		}
	}
	if len(s.platforms) == 0 {
		return ErrUnknownPlatform
	}
	return ErrBadQuoteSignature
}

// Attest performs the full remote-attestation check a challenger runs: the
// quote must verify, the measurement must match the expected (audited)
// enclave code, and the report must bind the enclave's public key.
func (s *AttestationService) Attest(q Quote, expected Measurement, pub *ecdsa.PublicKey) error {
	return s.attestUserData(q, expected, PubKeyUserData(pub),
		"sgx: report does not bind the presented public key")
}

// AttestCheckpoint verifies a quote whose report binds the enclave key AND
// a specific ledger checkpoint (see CheckpointUserData): proof that the
// attested accounting enclave stood behind exactly that ledger state.
func (s *AttestationService) AttestCheckpoint(q Quote, expected Measurement, pub *ecdsa.PublicKey, checkpointHash [32]byte) error {
	return s.attestUserData(q, expected, CheckpointUserData(pub, checkpointHash),
		"sgx: report does not bind the presented checkpoint")
}

func (s *AttestationService) attestUserData(q Quote, expected Measurement, want []byte, mismatch string) error {
	if err := s.VerifyQuote(q); err != nil {
		return err
	}
	if q.Report.Measurement != expected {
		return ErrWrongMeasurement
	}
	for i, b := range want {
		if q.Report.UserData[i] != b {
			return errors.New(mismatch)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// EPC cost model

// EPCModel is an interp.CostModel combining an instruction weight table
// with hardware-mode EPC paging penalties. Resident pages are tracked with
// a FIFO set bounded by the usable EPC; accesses to non-resident pages charge
// PageFaultCycles, reproducing the paper's observation that hardware-mode
// overhead explodes once the working set exceeds the EPC (§5.1).
//
// The residency state is sized by the pages a run touches, not by the EPC:
// a fresh model is just the struct, so one per request or Run costs nothing
// until the first memory access.
type EPCModel struct {
	weights  *weights.Table
	mode     Mode
	params   CostParams
	capacity int
	// table maps page -> ring slot+1 (0 = not resident). It is grown on
	// touch to cover the linear memory, which a wasm32 address space bounds
	// at 2^20 entries.
	table    []int32
	ring     []uint32 // resident pages in FIFO order, at most capacity
	head     int
	faults   uint64
	paging   uint64 // cycles charged on faults
	lastPage uint64 // fast path for sequential access runs
	hasLast  bool
}

const epcPageSize = 4096

// NewEPCModel builds an EPC model over per-instruction weights. The weights
// argument may be nil for a pure paging model. Every run holds its model
// behind interp.CostModel, so the struct is on the heap either way; noinline
// keeps that allocation the constructor's own where a caller measures it alone.
//
//go:noinline
func NewEPCModel(mode Mode, params CostParams, w *weights.Table) *EPCModel {
	capacity := int(params.UsableEPCBytes / epcPageSize)
	if capacity < 1 {
		capacity = 1
	}
	return &EPCModel{weights: w, mode: mode, params: params, capacity: capacity}
}

// InstrCost implements interp.CostModel: the instruction weight, if a
// weight table is attached.
func (m *EPCModel) InstrCost(op wasm.Opcode) uint64 {
	if m.weights == nil {
		return 0
	}
	return m.weights.InstrCost(op)
}

// touch charges for one page access in hardware mode.
func (m *EPCModel) touch(page uint64, memSize uint32) uint64 {
	// Sequential runs hit the same page repeatedly; skip the table.
	if m.hasLast && page == m.lastPage {
		return 0
	}
	if page >= uint64(len(m.table)) {
		n := max(page+1, uint64(memSize)/epcPageSize)
		m.table = append(m.table, make([]int32, n-uint64(len(m.table)))...)
	}
	if m.table[page] != 0 {
		m.lastPage = page
		m.hasLast = true
		return 0
	}
	m.faults++
	if len(m.ring) < m.capacity {
		m.ring = append(m.ring, uint32(page))
		m.table[page] = int32(len(m.ring))
		// Cold faults on first touch are charged at a reduced rate: the
		// page is EADDed once, not paged in and out.
		m.paging += m.params.PageFaultCycles / 4
		return m.params.PageFaultCycles / 4
	}
	m.table[m.ring[m.head]] = 0
	m.ring[m.head] = uint32(page)
	m.table[page] = int32(m.head + 1)
	m.head = (m.head + 1) % m.capacity
	m.paging += m.params.PageFaultCycles
	return m.params.PageFaultCycles
}

// MemCost implements interp.CostModel.
func (m *EPCModel) MemCost(addr, width uint32, store bool, memSize uint32) uint64 {
	if width == 0 || m.mode != ModeHardware {
		return 0
	}
	first := uint64(addr) / epcPageSize
	last := (uint64(addr) + uint64(width) - 1) / epcPageSize
	var c uint64
	for p := first; p <= last; p++ {
		c += m.touch(p, memSize)
	}
	return c
}

// PageFaults reports the number of simulated EPC faults.
func (m *EPCModel) PageFaults() uint64 { return m.faults }

// PagingCycles reports the cycles the faults charged: the model's share of
// a run's cost apart from the instruction weights.
func (m *EPCModel) PagingCycles() uint64 { return m.paging }

// Hash of cost parameters, included in attestation evidence so both parties
// agree on the cost model.
func (p CostParams) Hash() [32]byte {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], p.UsableEPCBytes)
	binary.LittleEndian.PutUint64(b[8:], p.PageFaultCycles)
	binary.LittleEndian.PutUint64(b[16:], p.TransitionCycles)
	return sha256.Sum256(b[:])
}
