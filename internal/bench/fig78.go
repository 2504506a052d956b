package bench

import (
	"fmt"
	"io"
	"sort"

	"acctee/internal/wasm"
	"acctee/internal/weights"
)

// Fig7Row is one instruction's measured cost and the weight derived from it
// (normalised to the cheapest instruction).
type Fig7Row struct {
	Op         string  `json:"op"`
	NsPerInstr float64 `json:"ns_per_instr"`
	Weight     uint64  `json:"weight"`
}

// Fig7Result is the per-instruction cost distribution (Fig. 7).
type Fig7Result struct {
	Paper string `json:"paper"`
	// CheapRatio is the fraction of instructions costing less than 10x the
	// cheapest.
	CheapRatio float64   `json:"below_weight_10"`
	Rows       []Fig7Row `json:"rows"` // sorted ascending by cost
}

// RunFig7 measures every non-memory instruction n times (paper: 10,000).
func RunFig7(n uint64) (*Fig7Result, error) {
	res, err := weights.MeasureAll(n)
	if err != nil {
		return nil, err
	}
	tbl := weights.Derive(res)
	fig := &Fig7Result{Paper: "127 instructions; 74% execute in under 10 cycles; floor/ceil and div/sqrt are the expensive tail"}
	cheap := 0
	for _, r := range res {
		if tbl.Weight(r.Op) < 10 {
			cheap++
		}
		fig.Rows = append(fig.Rows, Fig7Row{Op: r.Op.String(), NsPerInstr: r.NsPerInstr, Weight: tbl.Weight(r.Op)})
	}
	if len(res) > 0 {
		fig.CheapRatio = float64(cheap) / float64(len(res))
	}
	return fig, nil
}

// PrintFig7 renders the distribution: percentile curve plus the extremes.
func PrintFig7(w io.Writer, r *Fig7Result) {
	fmt.Fprintf(w, "measured %d instructions\n", len(r.Rows))
	for _, pct := range []int{10, 25, 50, 74, 90, 100} {
		idx := pct*len(r.Rows)/100 - 1
		if idx < 0 {
			idx = 0
		}
		m := r.Rows[idx]
		fmt.Fprintf(w, "p%-3d %-22s %6.1f ns/instr (weight %d)\n", pct, m.Op, m.NsPerInstr, m.Weight)
	}
	fmt.Fprintf(w, "instructions below weight 10: %.0f%%\n", r.CheapRatio*100)
	// extremes, as the paper calls out floor/ceil and div/sqrt
	for _, op := range []wasm.Opcode{wasm.OpI32Add, wasm.OpF32Floor, wasm.OpF64Ceil, wasm.OpI64DivS, wasm.OpF32Sqrt} {
		for _, m := range r.Rows {
			if m.Op == op.String() {
				fmt.Fprintf(w, "  %-22s %6.1f ns (weight %d)\n", m.Op, m.NsPerInstr, m.Weight)
			}
		}
	}
	fmt.Fprintf(w, "paper: %s\n", r.Paper)
}

// Fig8Row is one (memory size, value type, load/store, pattern) cost.
type Fig8Row struct {
	MemBytes int     `json:"mem_bytes"`
	Type     string  `json:"type"`
	Op       string  `json:"op"`
	Pattern  string  `json:"pattern"`
	NsPerOp  float64 `json:"ns_per_op"`
}

// Fig8Result is the memory access cost surface (Fig. 8) with the orderings
// the paper states: means over the value types at the smallest and the
// largest memory size.
type Fig8Result struct {
	Paper               string    `json:"paper"`
	MinBytes            int       `json:"min_bytes"`
	MaxBytes            int       `json:"max_bytes"`
	RandomLoadAtMinNs   float64   `json:"random_load_at_min_ns"`
	RandomLoadAtMaxNs   float64   `json:"random_load_at_max_ns"`
	RandomStoreAtMaxNs  float64   `json:"random_store_at_max_ns"`
	LinearAccessAtMaxNs float64   `json:"linear_access_at_max_ns"`
	Rows                []Fig8Row `json:"rows"`
}

// RunFig8 measures load/store cost for every value type over linear and
// random patterns across the given memory sizes.
func RunFig8(memSizes []int, n uint64) (*Fig8Result, error) {
	if memSizes == nil {
		memSizes = []int{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	}
	fig := &Fig8Result{Paper: "linear flat and cheap; random loads grow with memory size; random store > random load >> linear at the largest size"}
	for _, sz := range memSizes {
		for _, t := range []wasm.ValueType{wasm.F32, wasm.F64, wasm.I32, wasm.I64} {
			for _, op := range []string{"load", "store"} {
				for _, pat := range []weights.MemPattern{weights.Linear, weights.Random} {
					m, err := weights.MeasureMem(t, op == "store", pat, sz, n)
					if err != nil {
						return nil, err
					}
					fig.Rows = append(fig.Rows, Fig8Row{sz, t.String(), op, pat.String(), m.NsPerOp})
				}
			}
		}
	}
	// avg is the mean over the value types of one (pattern, op, size) cell;
	// an empty op matches loads and stores.
	avg := func(pat weights.MemPattern, op string, mem int) float64 {
		var s float64
		var c int
		for _, p := range fig.Rows {
			if p.Pattern == pat.String() && (op == "" || p.Op == op) && p.MemBytes == mem {
				s += p.NsPerOp
				c++
			}
		}
		return s / float64(max(c, 1))
	}
	sorted := append([]int(nil), memSizes...)
	sort.Ints(sorted)
	fig.MinBytes, fig.MaxBytes = sorted[0], sorted[len(sorted)-1]
	fig.RandomLoadAtMinNs = avg(weights.Random, "load", fig.MinBytes)
	fig.RandomLoadAtMaxNs = avg(weights.Random, "load", fig.MaxBytes)
	fig.RandomStoreAtMaxNs = avg(weights.Random, "store", fig.MaxBytes)
	fig.LinearAccessAtMaxNs = avg(weights.Linear, "", fig.MaxBytes)
	return fig, nil
}

// PrintFig8 renders the cost table, cheapest first within each size, and
// the orderings the paper states.
func PrintFig8(w io.Writer, r *Fig8Result) {
	tw := newTab(w)
	fmt.Fprintln(tw, "memory\ttype\top\tpattern\tns/op")
	pts := append([]Fig8Row(nil), r.Rows...)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].MemBytes != pts[j].MemBytes {
			return pts[i].MemBytes < pts[j].MemBytes
		}
		return pts[i].NsPerOp < pts[j].NsPerOp
	})
	for _, p := range pts {
		fmt.Fprintf(tw, "%dMB\t%s\t%s\t%s\t%.1f\n", p.MemBytes>>20, p.Type, p.Op, p.Pattern, p.NsPerOp)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "random loads: %.1f ns at %dMB vs %.1f ns at %dMB\n",
		r.RandomLoadAtMinNs, r.MinBytes>>20, r.RandomLoadAtMaxNs, r.MaxBytes>>20)
	fmt.Fprintf(w, "at %dMB: random store %.1f ns vs random load %.1f ns vs linear %.1f ns\n",
		r.MaxBytes>>20, r.RandomStoreAtMaxNs, r.RandomLoadAtMaxNs, r.LinearAccessAtMaxNs)
	fmt.Fprintf(w, "paper: %s\n", r.Paper)
}
