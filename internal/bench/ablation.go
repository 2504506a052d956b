package bench

import (
	"fmt"
	"io"

	"acctee/internal/instrument"
	"acctee/internal/polybench"
	"acctee/internal/wasm"
)

// AblationRow quantifies what each optimisation level contributes for one
// module: the number of counter updates placed statically. The paper's
// Fig. 4/Fig. 10 argue the flow/loop passes matter; this shows how many
// updates each pass actually eliminates (README, "Paper versus measured").
type AblationRow struct {
	Module          string `json:"module"`
	Blocks          int    `json:"blocks"`
	IncrementsNaive int    `json:"increments_naive"`
	IncrementsFlow  int    `json:"increments_flow"`
	IncrementsLoop  int    `json:"increments_loop"`
	LoopsOptimised  int    `json:"loops_optimised"`
}

// AblationResult is the ablation with the share of naive updates each pass
// eliminates over all modules.
type AblationResult struct {
	Paper             string        `json:"paper"`
	FlowEliminatedPct float64       `json:"flow_eliminated_pct"`
	LoopEliminatedPct float64       `json:"loop_eliminated_pct"`
	Rows              []AblationRow `json:"rows"`
}

// RunAblation computes the static instrumentation ablation over the
// PolyBench suite plus the scenario workloads used in Fig. 10.
func RunAblation() (*AblationResult, error) {
	mods, err := evaluationModules()
	if err != nil {
		return nil, err
	}
	fig := &AblationResult{Paper: "Fig. 4: 2 of 4 updates eliminated on the example"}
	var tn, tf, tl int
	for _, nm := range mods {
		row := AblationRow{Module: nm.name}
		for _, lvl := range []instrument.Level{instrument.Naive, instrument.FlowBased, instrument.LoopBased} {
			res, err := instrument.Instrument(nm.mod, instrument.Options{Level: lvl})
			if err != nil {
				return nil, fmt.Errorf("ablation %s %v: %w", nm.name, lvl, err)
			}
			switch lvl {
			case instrument.Naive:
				row.Blocks = res.Stats.BlocksTotal
				row.IncrementsNaive = res.Stats.IncrementsPlaced
			case instrument.FlowBased:
				row.IncrementsFlow = res.Stats.IncrementsPlaced
			case instrument.LoopBased:
				row.IncrementsLoop = res.Stats.IncrementsPlaced
				row.LoopsOptimised = res.Stats.LoopsOptimised
			}
		}
		tn += row.IncrementsNaive
		tf += row.IncrementsFlow
		tl += row.IncrementsLoop
		fig.Rows = append(fig.Rows, row)
	}
	if tn > 0 {
		fig.FlowEliminatedPct = (1 - float64(tf)/float64(tn)) * 100
		fig.LoopEliminatedPct = (1 - float64(tl)/float64(tn)) * 100
	}
	return fig, nil
}

type namedMod struct {
	name string
	mod  *wasm.Module
}

func evaluationModules() ([]namedMod, error) {
	var mods []namedMod
	for _, name := range polybench.Names() {
		k, err := polybench.Get(name)
		if err != nil {
			return nil, err
		}
		m, err := k.Build(k.DefaultN)
		if err != nil {
			return nil, err
		}
		mods = append(mods, namedMod{name, m})
	}
	for _, wl := range Fig10Workloads() {
		m, err := wl.Build()
		if err != nil {
			return nil, err
		}
		mods = append(mods, namedMod{wl.Name, m})
	}
	return mods, nil
}

// PrintAblation renders the static ablation table with aggregate
// elimination percentages.
func PrintAblation(w io.Writer, fig *AblationResult) {
	tw := newTab(w)
	fmt.Fprintln(tw, "module\tblocks\tnaive\tflow\tloop\tcounted loops")
	for _, r := range fig.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Module, r.Blocks, r.IncrementsNaive, r.IncrementsFlow, r.IncrementsLoop, r.LoopsOptimised)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "flow-based eliminates %.0f%% of naive updates; loop-based %.0f%%\n", fig.FlowEliminatedPct, fig.LoopEliminatedPct)
	fmt.Fprintf(w, "paper: %s\n", fig.Paper)
}
