package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// The paper's §7 closes with future work: specialized wish-loop
// predictors biased to over-estimate trip counts, better confidence
// estimators, and tuned compiler heuristics (the untuned N/L
// thresholds of §4.2.2). These extension experiments implement all
// three.

// avgJJL returns the average normalized execution time of the wish
// jump/join/loop binary under machine m (AVG and AVGnomcf).
func avgJJL(l *Lab, m *config.Machine) (avg, avgNoMcf float64, err error) {
	var all, nomcf []float64
	for _, bench := range BenchNames() {
		n, err := l.Norm(bench, workload.InputA, compiler.WishJumpJoinLoop, m, m)
		if err != nil {
			return 0, 0, err
		}
		all = append(all, n)
		if bench != "mcf" {
			nomcf = append(nomcf, n)
		}
	}
	return stats.Mean(all), stats.Mean(nomcf), nil
}

// ExtLoopPredictor evaluates the §3.2/§7 suggestion: a trip-count loop
// predictor for wish loops, optionally biased to over-estimate
// iteration counts so mispredicted exits skew late (cheap) rather than
// early (a flush).
func ExtLoopPredictor(l *Lab, w io.Writer) error {
	t := stats.NewTable(
		"Wish jump/join/loop binary with a trip-count loop predictor (normalized to normal binary)",
		"loop predictor", "AVG", "AVGnomcf", "late-exit/1M (parser)", "early-exit/1M (parser)")
	for _, cfg := range loopPredConfigs {
		m := config.DefaultMachine()
		m.UseLoopPredictor = cfg.on
		m.LoopPredictorBias = cfg.bias
		avg, noMcf, err := avgJJL(l, m)
		if err != nil {
			return err
		}
		r, err := l.Result("parser", workload.InputA, compiler.WishJumpJoinLoop, m)
		if err != nil {
			return err
		}
		t.AddRow(cfg.name, stats.F(avg), stats.F(noMcf),
			fmt.Sprintf("%.0f", r.WishPer1M(r.WishLoop.LowLate)),
			fmt.Sprintf("%.0f", r.WishPer1M(r.WishLoop.LowEarly)))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nA positive bias trades early exits (pipeline flushes) for late exits")
	fmt.Fprintln(w, "(NOP drain), the direction §3.2 of the paper predicts.")
	return nil
}

// ExtConfidence sweeps the confidence estimator's threshold and history
// indexing — the "more accurate confidence estimation mechanisms" the
// paper's conclusion calls for.
func ExtConfidence(l *Lab, w io.Writer) error {
	t := stats.NewTable(
		"Wish jump/join/loop binary vs confidence estimator configuration",
		"JRS config", "AVG", "AVGnomcf")
	for _, cfg := range jrsConfigs {
		m := config.DefaultMachine()
		m.JRS.Threshold = cfg.thr
		m.JRS.HistoryBits = cfg.history
		avg, noMcf, err := avgJJL(l, m)
		if err != nil {
			return err
		}
		t.AddRow(cfg.name, stats.F(avg), stats.F(noMcf))
	}
	// The oracle bound.
	m := config.DefaultMachine()
	m.PerfectConfidence = true
	avg, noMcf, err := avgJJL(l, m)
	if err != nil {
		return err
	}
	t.AddRow("perfect confidence (oracle)", stats.F(avg), stats.F(noMcf))
	t.Fprint(w)
	fmt.Fprintln(w, "\nHistory-indexed variants split each branch across contexts that must")
	fmt.Fprintln(w, "be trained separately; with a 16-bit index almost nothing reaches high")
	fmt.Fprintln(w, "confidence (see EXPERIMENTS.md, 'modified JRS').")
	return nil
}

// ExtThresholds sweeps the §4.2.2 compile-time conversion thresholds
// N (wish jump fall-through size) and L (wish loop body size), which
// the paper explicitly left untuned.
func ExtThresholds(l *Lab, w io.Writer) error {
	old := l.Thresholds
	defer func() { l.Thresholds = old }()

	t := stats.NewTable(
		"Wish jump/join/loop binary vs compiler conversion thresholds",
		"N (jump)", "L (loop)", "AVG", "AVGnomcf")
	for _, n := range extThresholdN {
		for _, lim := range extThresholdL {
			l.Thresholds = compiler.Thresholds{WishJump: n, WishLoop: lim}
			avg, noMcf, err := avgJJL(l, config.DefaultMachine())
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", lim),
				stats.F(avg), stats.F(noMcf))
		}
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nN and L trade wish-branch instruction overhead against hardware")
	fmt.Fprintln(w, "adaptivity; the paper's untuned N=5/L=30 sit in the flat middle.")
	return nil
}
