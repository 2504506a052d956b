package bench

import (
	"fmt"
	"io"
	"runtime"

	"acctee/internal/interp"
	"acctee/internal/wasm"
	"acctee/internal/workloads"
)

// PooledRow is the heap a pooled FaaS instance keeps between requests: what
// a pool of PooledInstances instances holds once each has served one
// gateway-shaped request (payload written at InBase, run, response read at
// OutBase), per instance and against the linear memory the function's module
// declares. Inside an enclave it is EPC every warm instance occupies.
type PooledRow struct {
	Function      string  `json:"function"`
	DeclaredKB    float64 `json:"declared_kb"`
	KBPerInstance float64 `json:"kb_per_instance"`
}

// PooledInstances is the size of the pool the pooled row measures.
const PooledInstances = 4

// PooledSmokeCeiling is the CI gate on the pooled row: the heap a warm
// instance keeps as a share of the memory its module declares. An instance
// backs the pages it has touched, which for both functions are the
// request's page and the response's (2 of 129, a share of 0.016). Backed as
// a prefix, up to the response's page, an instance held 66 of 129 (0.51);
// before memory was backed on touch it held all 129, a share above 1.
const PooledSmokeCeiling = 0.05

// RunPooled measures the pooled row for the echo function (a 64 B payload)
// and the resize function (a 128×128 RGBA image), the two gateway
// workloads' requests.
func RunPooled() ([]PooledRow, error) {
	var rows []PooledRow
	for _, fn := range []struct {
		name    string
		build   func() (*wasm.Module, error)
		payload []byte
		args    []uint64
	}{
		{"echo", workloads.BuildEcho, workloads.TestImage(4, 4), []uint64{64}},
		{"resize", workloads.BuildResize, workloads.TestImage(128, 128), []uint64{128, 128}},
	} {
		m, err := fn.build()
		if err != nil {
			return nil, err
		}
		cm, err := interp.Compile(m, interp.CompileOptions{})
		if err != nil {
			return nil, err
		}
		before := liveHeap()
		pool, err := cm.NewPool(interp.Config{}, interp.PoolConfig{Prewarm: PooledInstances})
		if err != nil {
			return nil, err
		}
		vms := make([]*interp.VM, PooledInstances)
		for i := range vms {
			if vms[i], err = pool.Get(interp.Config{}); err != nil {
				return nil, err
			}
			in, err := vms[i].MemoryDirty(workloads.InBase, uint32(len(fn.payload)))
			if err != nil {
				return nil, err
			}
			copy(in, fn.payload)
			res, err := vms[i].InvokeExport("run", fn.args...)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fn.name, err)
			}
			if _, err := vms[i].MemoryView(workloads.OutBase, uint32(res[0])); err != nil {
				return nil, fmt.Errorf("%s: %w", fn.name, err)
			}
		}
		for _, vm := range vms {
			pool.Put(vm)
		}
		rows = append(rows, PooledRow{
			Function:      fn.name,
			DeclaredKB:    float64(m.Memories[0].Limits.Min) * wasm.PageSize / 1024,
			KBPerInstance: float64(liveHeap()-before) / 1024 / PooledInstances,
		})
		runtime.KeepAlive(pool)
	}
	return rows, nil
}

// CheckPooledGate fails when a warm instance keeps more than ceiling of the
// memory its module declares.
func CheckPooledGate(rows []PooledRow, ceiling float64) error {
	for _, r := range rows {
		if share := r.KBPerInstance / r.DeclaredKB; share > ceiling {
			return fmt.Errorf("bench gate: a pooled %s instance keeps %.0f KB, %.2f of the %.0f KB its module declares, ceiling %.2f",
				r.Function, r.KBPerInstance, share, r.DeclaredKB, ceiling)
		}
	}
	return nil
}

// PrintPooled renders the pooled row.
func PrintPooled(w io.Writer, rows []PooledRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "pooled %s: %.0f KB per warm instance of %.0f KB declared (%.2f)\n",
			r.Function, r.KBPerInstance, r.DeclaredKB, r.KBPerInstance/r.DeclaredKB)
	}
}
