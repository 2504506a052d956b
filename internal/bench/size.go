package bench

import (
	"fmt"
	"io"

	"acctee/internal/instrument"
	"acctee/internal/polybench"
	"acctee/internal/wasm"
	wasmbin "acctee/internal/wasm/binary"
	"acctee/internal/workloads"
)

// SizeRow is one module's binary-size overhead (paper §5.4).
type SizeRow struct {
	Name          string  `json:"name"`
	OriginalBytes int     `json:"original_bytes"`
	NaiveBytes    int     `json:"naive_bytes"`
	OptBytes      int     `json:"opt_bytes"` // loop-based (all optimisations)
	NaivePct      float64 `json:"naive_pct"`
	OptPct        float64 `json:"opt_pct"`
}

// SizeResult is the §5.4 table with the min/max summary the paper reports.
type SizeResult struct {
	Paper       string    `json:"paper"`
	NaiveMinPct float64   `json:"naive_min_pct"`
	NaiveMaxPct float64   `json:"naive_max_pct"`
	OptMinPct   float64   `json:"opt_min_pct"`
	OptMaxPct   float64   `json:"opt_max_pct"`
	Rows        []SizeRow `json:"rows"`
}

// RunSizeTable reproduces the §5.4 binary-size experiment over every
// evaluation module: all 29 PolyBench kernels plus the six scenario
// workloads, encoded to wasm binaries before and after instrumentation.
func RunSizeTable() (*SizeResult, error) {
	type namedModule struct {
		name string
		mod  *wasm.Module
	}
	var mods []namedModule
	for _, name := range polybench.Names() {
		k, err := polybench.Get(name)
		if err != nil {
			return nil, err
		}
		m, err := k.Build(k.DefaultN)
		if err != nil {
			return nil, err
		}
		mods = append(mods, namedModule{name, m})
	}
	scen := []struct {
		name  string
		build func() (*wasm.Module, error)
	}{
		{"msieve", workloads.BuildMSieve},
		{"pc", func() (*wasm.Module, error) { return workloads.BuildPC(24, 60) }},
		{"subsetsum", workloads.BuildSubsetSum},
		{"darknet", func() (*wasm.Module, error) { return workloads.BuildDarknet(16, 4) }},
		{"echo", workloads.BuildEcho},
		{"resize", workloads.BuildResize},
	}
	for _, s := range scen {
		m, err := s.build()
		if err != nil {
			return nil, err
		}
		mods = append(mods, namedModule{s.name, m})
	}

	fig := &SizeResult{Paper: "naive +4%..+39%, optimised +4%..+27%"}
	for _, nm := range mods {
		orig, err := wasmbin.Encode(nm.mod)
		if err != nil {
			return nil, fmt.Errorf("size %s: %w", nm.name, err)
		}
		naive, err := instrument.Instrument(nm.mod, instrument.Options{Level: instrument.Naive})
		if err != nil {
			return nil, err
		}
		naiveBin, err := wasmbin.Encode(naive.Module)
		if err != nil {
			return nil, err
		}
		opt, err := instrument.Instrument(nm.mod, instrument.Options{Level: instrument.LoopBased})
		if err != nil {
			return nil, err
		}
		optBin, err := wasmbin.Encode(opt.Module)
		if err != nil {
			return nil, err
		}
		r := SizeRow{
			Name:          nm.name,
			OriginalBytes: len(orig),
			NaiveBytes:    len(naiveBin),
			OptBytes:      len(optBin),
			NaivePct:      pct(len(orig), len(naiveBin)),
			OptPct:        pct(len(orig), len(optBin)),
		}
		if len(fig.Rows) == 0 {
			fig.NaiveMinPct, fig.NaiveMaxPct, fig.OptMinPct, fig.OptMaxPct = r.NaivePct, r.NaivePct, r.OptPct, r.OptPct
		}
		fig.NaiveMinPct, fig.NaiveMaxPct = min(fig.NaiveMinPct, r.NaivePct), max(fig.NaiveMaxPct, r.NaivePct)
		fig.OptMinPct, fig.OptMaxPct = min(fig.OptMinPct, r.OptPct), max(fig.OptMaxPct, r.OptPct)
		fig.Rows = append(fig.Rows, r)
	}
	return fig, nil
}

func pct(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return (float64(after)/float64(before) - 1) * 100
}

// PrintSizeTable renders the rows plus the min/max summary.
func PrintSizeTable(w io.Writer, fig *SizeResult) {
	tw := newTab(w)
	fmt.Fprintln(tw, "module\toriginal\tnaive\topt\tnaive%\topt%")
	for _, r := range fig.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%+.1f%%\t%+.1f%%\n",
			r.Name, r.OriginalBytes, r.NaiveBytes, r.OptBytes, r.NaivePct, r.OptPct)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "naive: %+.1f%% .. %+.1f%%; optimised: %+.1f%% .. %+.1f%%\n",
		fig.NaiveMinPct, fig.NaiveMaxPct, fig.OptMinPct, fig.OptMaxPct)
	fmt.Fprintf(w, "paper: %s\n", fig.Paper)
}
