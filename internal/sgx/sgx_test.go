package sgx_test

import (
	"crypto/sha256"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"acctee/internal/interp"
	"acctee/internal/polybench"
	"acctee/internal/sgx"
	"acctee/internal/wasm"
	"acctee/internal/weights"
	"acctee/internal/workloads"
)

func TestMeasurementDeterministic(t *testing.T) {
	a := sgx.MeasureCode([]byte("enclave v1"))
	b := sgx.MeasureCode([]byte("enclave v1"))
	c := sgx.MeasureCode([]byte("enclave v2"))
	if a != b {
		t.Error("same code produced different measurements")
	}
	if a == c {
		t.Error("different code produced same measurement")
	}
}

func TestSignVerify(t *testing.T) {
	e, err := sgx.NewEnclave([]byte("code"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := e.Sign([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if !sgx.VerifyBy(e.PublicKey(), []byte("payload"), sig) {
		t.Error("valid signature rejected")
	}
	if sgx.VerifyBy(e.PublicKey(), []byte("tampered"), sig) {
		t.Error("tampered payload accepted")
	}
	other, _ := sgx.NewEnclave([]byte("code"), sgx.ModeSimulation, sgx.DefaultCostParams())
	if sgx.VerifyBy(other.PublicKey(), []byte("payload"), sig) {
		t.Error("signature verified under wrong key")
	}
}

func TestAttestationChain(t *testing.T) {
	qe, err := sgx.NewQuotingEnclave()
	if err != nil {
		t.Fatal(err)
	}
	svc := sgx.NewAttestationService()
	svc.RegisterPlatform("machine-1", qe)

	e, _ := sgx.NewEnclave([]byte("audited code"), sgx.ModeHardware, sgx.DefaultCostParams())
	rep := e.CreateReport(sgx.PubKeyUserData(e.PublicKey()))
	q, err := qe.QuoteReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	expected := sgx.MeasureCode([]byte("audited code"))
	if err := svc.Attest(q, expected, e.PublicKey()); err != nil {
		t.Errorf("honest attestation failed: %v", err)
	}

	// wrong measurement expectation
	wrong := sgx.MeasureCode([]byte("evil code"))
	if err := svc.Attest(q, wrong, e.PublicKey()); !errors.Is(err, sgx.ErrWrongMeasurement) {
		t.Errorf("wrong measurement: %v", err)
	}

	// quote from unregistered platform
	rogueQE, _ := sgx.NewQuotingEnclave()
	rq, _ := rogueQE.QuoteReport(rep)
	if err := svc.Attest(rq, expected, e.PublicKey()); err == nil {
		t.Error("rogue platform quote accepted")
	}

	// report binding a different key
	imposter, _ := sgx.NewEnclave([]byte("audited code"), sgx.ModeHardware, sgx.DefaultCostParams())
	if err := svc.Attest(q, expected, imposter.PublicKey()); err == nil {
		t.Error("key substitution accepted")
	}

	// tampered quote signature
	bad := q
	bad.Signature = append([]byte(nil), q.Signature...)
	bad.Signature[4] ^= 0xFF
	if err := svc.VerifyQuote(bad); err == nil {
		t.Error("tampered quote accepted")
	}
}

// TestVerifyQuoteNegativePaths pins every rejection path of
// AttestationService.VerifyQuote individually (satellite: previously only
// the happy path was covered directly).
func TestVerifyQuoteNegativePaths(t *testing.T) {
	qe, err := sgx.NewQuotingEnclave()
	if err != nil {
		t.Fatal(err)
	}
	svc := sgx.NewAttestationService()
	svc.RegisterPlatform("machine-1", qe)

	e, _ := sgx.NewEnclave([]byte("audited"), sgx.ModeHardware, sgx.DefaultCostParams())
	rep := e.CreateReport(sgx.PubKeyUserData(e.PublicKey()))
	q, err := qe.QuoteReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyQuote(q); err != nil {
		t.Fatalf("honest quote rejected: %v", err)
	}

	// Tampered report measurement: the quote signature no longer covers it.
	bad := q
	bad.Report.Measurement[3] ^= 0x40
	if err := svc.VerifyQuote(bad); !errors.Is(err, sgx.ErrBadQuoteSignature) {
		t.Errorf("tampered measurement: %v", err)
	}

	// Tampered report user data.
	bad = q
	bad.Report.UserData[17] ^= 1
	if err := svc.VerifyQuote(bad); !errors.Is(err, sgx.ErrBadQuoteSignature) {
		t.Errorf("tampered user data: %v", err)
	}

	// Quote signed by a quoting enclave of an unregistered platform.
	rogueQE, _ := sgx.NewQuotingEnclave()
	rogue, _ := rogueQE.QuoteReport(rep)
	if err := svc.VerifyQuote(rogue); !errors.Is(err, sgx.ErrBadQuoteSignature) {
		t.Errorf("wrong platform key: %v", err)
	}

	// Truncated signature.
	bad = q
	bad.Signature = append([]byte(nil), q.Signature[:len(q.Signature)-2]...)
	if err := svc.VerifyQuote(bad); !errors.Is(err, sgx.ErrBadQuoteSignature) {
		t.Errorf("truncated signature: %v", err)
	}

	// Empty signature.
	bad = q
	bad.Signature = nil
	if err := svc.VerifyQuote(bad); !errors.Is(err, sgx.ErrBadQuoteSignature) {
		t.Errorf("empty signature: %v", err)
	}

	// A service with no registered platforms reports the distinct error.
	empty := sgx.NewAttestationService()
	if err := empty.VerifyQuote(q); !errors.Is(err, sgx.ErrUnknownPlatform) {
		t.Errorf("empty platform registry: %v", err)
	}
}

// TestAttestCheckpointBinding: a checkpoint-bound report attests exactly
// one (key, checkpoint) pair.
func TestAttestCheckpointBinding(t *testing.T) {
	qe, _ := sgx.NewQuotingEnclave()
	svc := sgx.NewAttestationService()
	svc.RegisterPlatform("machine-1", qe)

	e, _ := sgx.NewEnclave([]byte("accounting enclave"), sgx.ModeHardware, sgx.DefaultCostParams())
	expected := sgx.MeasureCode([]byte("accounting enclave"))
	cpHash := sha256.Sum256([]byte("checkpoint 7"))

	rep := e.CreateReport(sgx.CheckpointUserData(e.PublicKey(), cpHash))
	q, err := qe.QuoteReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AttestCheckpoint(q, expected, e.PublicKey(), cpHash); err != nil {
		t.Fatalf("honest checkpoint attestation failed: %v", err)
	}
	// A different checkpoint hash must not attest under the same quote.
	other := sha256.Sum256([]byte("checkpoint 8"))
	if err := svc.AttestCheckpoint(q, expected, e.PublicKey(), other); err == nil {
		t.Error("quote attested a checkpoint it does not bind")
	}
	// Nor a different key.
	imposter, _ := sgx.NewEnclave([]byte("accounting enclave"), sgx.ModeHardware, sgx.DefaultCostParams())
	if err := svc.AttestCheckpoint(q, expected, imposter.PublicKey(), cpHash); err == nil {
		t.Error("quote attested a key it does not bind")
	}
	// The plain-key attestation path must not accept a checkpoint-bound
	// report (different user-data derivation).
	if err := svc.Attest(q, expected, e.PublicKey()); err == nil {
		t.Error("checkpoint-bound report attested as a plain key binding")
	}
}

func TestTransitionsChargeOnlyInHardware(t *testing.T) {
	params := sgx.DefaultCostParams()
	hw, _ := sgx.NewEnclave([]byte("c"), sgx.ModeHardware, params)
	sim, _ := sgx.NewEnclave([]byte("c"), sgx.ModeSimulation, params)
	if c := hw.Transition(); c != params.TransitionCycles {
		t.Errorf("hw transition cost = %d, want %d", c, params.TransitionCycles)
	}
	if c := sim.Transition(); c != 0 {
		t.Errorf("sim transition cost = %d, want 0", c)
	}
	if hw.Transitions() != 1 || sim.Transitions() != 1 {
		t.Error("transition counters wrong")
	}
}

func TestEPCModelPaging(t *testing.T) {
	params := sgx.CostParams{UsableEPCBytes: 8 * 4096, PageFaultCycles: 1000, TransitionCycles: 0}

	// Working set within EPC: only cold faults.
	m := sgx.NewEPCModel(sgx.ModeHardware, params, nil)
	var within uint64
	for rep := 0; rep < 10; rep++ {
		for page := 0; page < 8; page++ {
			within += m.MemCost(uint32(page*4096), 4, false, 1<<20)
		}
	}
	if m.PageFaults() != 8 {
		t.Errorf("faults within EPC = %d, want 8 cold faults", m.PageFaults())
	}

	// Working set twice the EPC with FIFO-hostile sweep: faults every round.
	m2 := sgx.NewEPCModel(sgx.ModeHardware, params, nil)
	var beyond uint64
	for rep := 0; rep < 10; rep++ {
		for page := 0; page < 16; page++ {
			beyond += m2.MemCost(uint32(page*4096), 4, false, 1<<20)
		}
	}
	if beyond <= within*2 {
		t.Errorf("EPC thrashing cost %d not clearly above resident cost %d", beyond, within)
	}

	// Simulation mode never charges.
	m3 := sgx.NewEPCModel(sgx.ModeSimulation, params, nil)
	if c := m3.MemCost(0, 8, true, 1<<20); c != 0 || m3.PageFaults() != 0 {
		t.Errorf("sim mode charged %d cycles, %d faults", c, m3.PageFaults())
	}
}

func TestEPCModelInstrWeights(t *testing.T) {
	tbl := weights.Unit()
	m := sgx.NewEPCModel(sgx.ModeHardware, sgx.DefaultCostParams(), tbl)
	if c := m.InstrCost(wasm.OpI32Add); c != 1 {
		t.Errorf("i32.add cost = %d, want 1", c)
	}
	if c := m.InstrCost(wasm.OpEnd); c != 0 {
		t.Errorf("end cost = %d, want 0", c)
	}
}

func TestCostParamsHash(t *testing.T) {
	a := sgx.DefaultCostParams()
	b := sgx.DefaultCostParams()
	if a.Hash() != b.Hash() {
		t.Error("equal params hash differently")
	}
	b.PageFaultCycles++
	if a.Hash() == b.Hash() {
		t.Error("different params hash equally")
	}
}

// ---------------------------------------------------------------------------
// EPC model: reference oracle, differential traces, fuzz target, budgets.

// refEPCModel is the map+FIFO EPCModel that shipped until PR 12, kept
// verbatim as the oracle: the production model (dense page table + growing
// ring) must return the same MemCost on every call and the same PageFaults.
type refEPCModel struct {
	weights  *weights.Table
	mode     sgx.Mode
	params   sgx.CostParams
	pageSize uint64
	capacity int
	resident map[uint64]int // page -> ring slot
	ring     []uint64
	head     int
	faults   uint64
	lastPage uint64 // fast path for sequential access runs
	hasLast  bool
}

func newRefEPCModel(mode sgx.Mode, params sgx.CostParams, w *weights.Table) *refEPCModel {
	const page = 4096
	capacity := int(params.UsableEPCBytes / page)
	if capacity < 1 {
		capacity = 1
	}
	return &refEPCModel{
		weights:  w,
		mode:     mode,
		params:   params,
		pageSize: page,
		capacity: capacity,
		resident: make(map[uint64]int, capacity),
		ring:     make([]uint64, 0, capacity),
	}
}

func (m *refEPCModel) InstrCost(op wasm.Opcode) uint64 {
	if m.weights == nil {
		return 0
	}
	return m.weights.InstrCost(op)
}

func (m *refEPCModel) touch(page uint64) uint64 {
	if m.mode != sgx.ModeHardware {
		return 0
	}
	// Sequential runs hit the same page repeatedly; skip the map.
	if m.hasLast && page == m.lastPage {
		return 0
	}
	if _, ok := m.resident[page]; ok {
		m.lastPage = page
		m.hasLast = true
		return 0
	}
	m.faults++
	if len(m.ring) < m.capacity {
		m.resident[page] = len(m.ring)
		m.ring = append(m.ring, page)
		// Cold faults on first touch are charged at a reduced rate: the
		// page is EADDed once, not paged in and out.
		return m.params.PageFaultCycles / 4
	}
	evict := m.ring[m.head]
	delete(m.resident, evict)
	m.ring[m.head] = page
	m.resident[page] = m.head
	m.head = (m.head + 1) % m.capacity
	return m.params.PageFaultCycles
}

// MemCost is the old method; the old code never returned for width 0, which
// no trace below feeds the reference.
func (m *refEPCModel) MemCost(addr, width uint32, store bool, memSize uint32) uint64 {
	first := uint64(addr) / m.pageSize
	last := (uint64(addr) + uint64(width) - 1) / m.pageSize
	var c uint64
	for p := first; p <= last; p++ {
		c += m.touch(p)
	}
	return c
}

func (m *refEPCModel) PageFaults() uint64 { return m.faults }

// epcAccess is one MemCost call of a trace.
type epcAccess struct{ addr, width, memSize uint32 }

// checkEPCTrace drives the model and the reference with the same trace and
// requires equal cycles per call and equal fault counts throughout.
func checkEPCTrace(t testing.TB, capacity int, trace []epcAccess) {
	t.Helper()
	params := sgx.CostParams{UsableEPCBytes: uint64(capacity) * 4096, PageFaultCycles: 1000}
	got := sgx.NewEPCModel(sgx.ModeHardware, params, nil)
	want := newRefEPCModel(sgx.ModeHardware, params, nil)
	for i, a := range trace {
		var w uint64
		if a.width != 0 {
			w = want.MemCost(a.addr, a.width, false, a.memSize)
		}
		if g := got.MemCost(a.addr, a.width, false, a.memSize); g != w {
			t.Fatalf("capacity %d, access %d %+v: MemCost = %d, reference %d", capacity, i, a, g, w)
		}
		if got.PageFaults() != want.PageFaults() {
			t.Fatalf("capacity %d, access %d %+v: PageFaults = %d, reference %d",
				capacity, i, a, got.PageFaults(), want.PageFaults())
		}
	}
}

func TestEPCModelMemCostTable(t *testing.T) {
	params := sgx.CostParams{UsableEPCBytes: 8 * 4096, PageFaultCycles: 1000}
	for _, tc := range []struct {
		name        string
		mode        sgx.Mode
		addr, width uint32
		cost        uint64
		faults      uint64
	}{
		{"width 0 at 0 charges nothing and returns", sgx.ModeHardware, 0, 0, 0, 0},
		{"width 0 mid-page", sgx.ModeHardware, 4100, 0, 0, 0},
		{"one byte: one cold fault", sgx.ModeHardware, 0, 1, 250, 1},
		{"8 bytes ending on the page's last byte", sgx.ModeHardware, 4088, 8, 250, 1},
		{"8 bytes straddling a page boundary", sgx.ModeHardware, 4092, 8, 500, 2},
		{"last byte of the address space", sgx.ModeHardware, 0xFFFFFFFF, 1, 250, 1},
		{"straddling past the 4 GiB mark", sgx.ModeHardware, 0xFFFFFFFC, 8, 500, 2},
		{"simulation mode", sgx.ModeSimulation, 4092, 8, 0, 0},
		{"simulation mode, width 0", sgx.ModeSimulation, 0, 0, 0, 0},
	} {
		m := sgx.NewEPCModel(tc.mode, params, nil)
		if c := m.MemCost(tc.addr, tc.width, false, 1<<20); c != tc.cost || m.PageFaults() != tc.faults {
			t.Errorf("%s: cost %d faults %d, want %d and %d", tc.name, c, m.PageFaults(), tc.cost, tc.faults)
		}
	}
}

// TestEPCModelLastPageAcrossEviction pins the shortcut's known quirk: a page
// evicted while it is still lastPage is free on its next touch, and faults
// only once another page has taken the shortcut over.
func TestEPCModelLastPageAcrossEviction(t *testing.T) {
	const a, b = 0, 4096
	trace := []epcAccess{{a, 4, 8192}, {a, 4, 8192}, {b, 4, 8192}, {a, 4, 8192}, {b, 4, 8192}, {a, 4, 8192}}
	want := []uint64{250, 0, 1000, 0, 0, 1000}
	m := sgx.NewEPCModel(sgx.ModeHardware, sgx.CostParams{UsableEPCBytes: 4096, PageFaultCycles: 1000}, nil)
	for i, acc := range trace {
		if c := m.MemCost(acc.addr, acc.width, false, acc.memSize); c != want[i] {
			t.Errorf("access %d: cost %d, want %d", i, c, want[i])
		}
	}
	if m.PageFaults() != 3 {
		t.Errorf("faults = %d, want 3", m.PageFaults())
	}
	checkEPCTrace(t, 1, trace)
}

// TestEPCModelMatchesReference generates access traces per capacity (1, 8
// and the default EPC's 23,808 pages) over working sets below, at and above
// it: two FIFO-hostile sweeps, then random accesses of every width with
// sequential runs, page-straddling accesses, and the linear memory growing
// mid-trace (so the page table is extended while pages are resident).
func TestEPCModelMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 8, 23808} {
		for _, ws := range []int{capacity - 1, capacity, capacity + 1, 2*capacity + 1} {
			if ws < 1 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(capacity)*131 + int64(ws)))
			memSize := uint32(1 << 16)
			var trace []epcAccess
			for sweep := 0; sweep < 2; sweep++ {
				for p := 0; p < ws; p++ {
					trace = append(trace, epcAccess{uint32(p) * 4096, 4, memSize})
				}
			}
			page := uint32(0)
			for i := 0; i < 4*ws+2000; i++ {
				if i%97 == 0 && memSize < 1<<31 {
					memSize += 1 << 16
				}
				switch r := rng.Intn(10); {
				case r < 6:
					page = uint32(rng.Intn(ws))
				case r < 8: // sequential run: stay on the page
				default:
					page = (page + 1) % uint32(ws)
				}
				width := uint32(1) << rng.Intn(4)
				off := uint32(rng.Intn(4096))
				if rng.Intn(8) == 0 {
					off = 4096 - width/2 - uint32(rng.Intn(2)) // ends on or straddles the boundary
				}
				trace = append(trace, epcAccess{page*4096 + off, width, memSize})
			}
			checkEPCTrace(t, capacity, trace)
		}
	}
}

// decodeEPCTrace turns fuzz bytes into a capacity and an access trace.
// data[0] picks the capacity (0: 1, 1: 8, 2: 23,808, else itself); every
// following 4 bytes are one op {flags, page lo, page hi, n}: bits 0-1 of
// flags choose the width (1, 2, 4, 8), 0x04 puts the access across the end
// of the page, 0x08 grows the memory by 64 KiB first, 0x10 repeats the
// access over n*128 consecutive pages (a sweep, so a short input can
// overflow the default EPC), 0x20 folds the page into capacity+1 pages
// (re-touches around the eviction point), 0x40 makes the width 0 and 0x80
// moves the page to the top of the 32-bit address space.
func decodeEPCTrace(data []byte) (capacity int, trace []epcAccess) {
	const maxTrace = 1 << 17
	if len(data) == 0 {
		return 1, nil
	}
	switch capacity = int(data[0]); capacity {
	case 0:
		capacity = 1
	case 1:
		capacity = 8
	case 2:
		capacity = 23808
	}
	memSize := uint32(1 << 16)
	for data = data[1:]; len(data) >= 4 && len(trace) < maxTrace; data = data[4:] {
		flags, n := data[0], uint32(data[3])
		page := uint32(data[1]) | uint32(data[2])<<8
		width := uint32(1) << (flags & 3)
		off := n * 16
		if flags&0x04 != 0 {
			off = 4096 - width/2
		}
		if flags&0x08 != 0 && memSize < 1<<31 {
			memSize += 1 << 16
		}
		if flags&0x20 != 0 {
			page %= uint32(capacity) + 1
		}
		if flags&0x40 != 0 {
			width = 0
		}
		if flags&0x80 != 0 {
			page |= 0xF0000
		}
		count := uint32(1)
		if flags&0x10 != 0 {
			count = n * 128
		}
		for i := uint32(0); i < count && len(trace) < maxTrace; i++ {
			trace = append(trace, epcAccess{(page+i)<<12 + off, width, memSize}) // wraps at 4 GiB
		}
	}
	return capacity, trace
}

// FuzzEPCModel checks arbitrary traces against the reference. Run with:
//
//	go test -run '^$' -fuzz FuzzEPCModel -fuzztime 20s ./internal/sgx
//
// The committed seed corpus (testdata/fuzz/FuzzEPCModel) holds the shapes the
// generated test covers: thrashing at capacity 1 and 8, a sweep past the
// default EPC and back, straddles, growth, width 0, the top of the address
// space.
func FuzzEPCModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		capacity, trace := decodeEPCTrace(data)
		checkEPCTrace(t, capacity, trace)
	})
}

// TestEPCModelAllocBudget pins what the model costs a run that barely
// touches memory: the struct plus a page table for the linear memory, not
// the 769 KB map and ring the EPC-sized model allocated up front.
func TestEPCModelAllocBudget(t *testing.T) {
	const runs = 200
	params := sgx.DefaultCostParams()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m := sgx.NewEPCModel(sgx.ModeHardware, params, nil)
		m.MemCost(0, 4, false, 1<<20)
		m.MemCost(1<<19, 4, true, 1<<20)
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 4<<10 {
		t.Errorf("NewEPCModel + two touches allocates %d B, budget 4 KiB", perRun)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sgx.NewEPCModel(sgx.ModeHardware, params, nil)
	}); allocs > 1 {
		t.Errorf("NewEPCModel makes %v allocations, want the struct alone", allocs)
	}
}

// TestVMCostMatchesReference runs real modules on both engines under
// ModeHardware, once with the EPC model and once with the reference, and
// requires the same VM.Cost and fault count: gemm thrashing a 4-page EPC
// and fitting the default one, and the gateway's resize function.
func TestVMCostMatchesReference(t *testing.T) {
	gemm, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	gm, err := gemm.Build(40) // three 12.5 KB matrices
	if err != nil {
		t.Fatal(err)
	}
	rm, err := workloads.BuildResize()
	if err != nil {
		t.Fatal(err)
	}
	img := workloads.TestImage(128, 128)
	small := sgx.CostParams{UsableEPCBytes: 4 * 4096, PageFaultCycles: 12000}
	for _, tc := range []struct {
		name   string
		m      *wasm.Module
		params sgx.CostParams
		args   []uint64
		evicts bool
	}{
		{"gemm/4 pages", gm, small, nil, true},
		{"gemm/default", gm, sgx.DefaultCostParams(), nil, false},
		{"resize/4 pages", rm, small, []uint64{128, 128}, true},
		{"resize/default", rm, sgx.DefaultCostParams(), []uint64{128, 128}, false},
	} {
		for _, engine := range []interp.Engine{interp.EngineReg, interp.EngineStructured} {
			run := func(model interp.CostModel) uint64 {
				vm, err := interp.Instantiate(tc.m, interp.Config{Engine: engine, CostModel: model})
				if err != nil {
					t.Fatal(err)
				}
				if len(tc.args) > 0 {
					copy(vm.Memory()[workloads.InBase:], img)
				}
				if _, err := vm.InvokeExport("run", tc.args...); err != nil {
					t.Fatal(err)
				}
				return vm.Cost()
			}
			got := sgx.NewEPCModel(sgx.ModeHardware, tc.params, weights.Unit())
			want := newRefEPCModel(sgx.ModeHardware, tc.params, weights.Unit())
			if g, w := run(got), run(want); g != w || got.PageFaults() != want.PageFaults() {
				t.Errorf("%s engine %v: Cost %d faults %d, reference %d and %d",
					tc.name, engine, g, got.PageFaults(), w, want.PageFaults())
			}
			if cold := want.PageFaults() <= uint64(len(want.resident)); cold != !tc.evicts {
				t.Errorf("%s: %d faults over %d resident pages, want evictions: %v",
					tc.name, want.PageFaults(), len(want.resident), tc.evicts)
			}
		}
	}
}
