package exp

import (
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// The paper's §7 closes with future work: specialized wish-loop
// predictors biased to over-estimate trip counts, better confidence
// estimators, and tuned compiler heuristics (the untuned N/L
// thresholds of §4.2.2). These extension experiments implement all
// three.

// loopPredConfigs are the ext-loop-pred table rows.
var loopPredConfigs = []struct {
	name string
	on   bool
	bias int
}{
	{"off (hybrid only)", false, 0},
	{"on, bias 0", true, 0},
	{"on, bias +1", true, 1},
	{"on, bias +2", true, 2},
}

// extLoopPredictor evaluates the §3.2/§7 suggestion: a trip-count loop
// predictor for wish loops, optionally biased to over-estimate
// iteration counts so mispredicted exits skew late (cheap) rather than
// early (a flush).
func extLoopPredictor(l *Lab) *report {
	r := &report{}
	var rows []row
	for _, cfg := range loopPredConfigs {
		m := config.DefaultMachine()
		m.UseLoopPredictor = cfg.on
		m.LoopPredictorBias = cfg.bias
		avg := r.avgJJL(l, m)
		p := r.run(l.Spec("parser", workload.InputA, compiler.WishJumpJoinLoop, m)) // repeats avgJJL's run
		rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
			return []string{cfg.name, stats.F(avg[0](rs)), stats.F(avg[1](rs)),
				per1M(rs[p], rs[p].WishLoop.LowLate), per1M(rs[p], rs[p].WishLoop.LowEarly)}, nil
		})
	}
	r.table("Wish jump/join/loop binary with a trip-count loop predictor (normalized to normal binary)",
		[]string{"loop predictor", "AVG", "AVGnomcf", "late-exit/1M (parser)", "early-exit/1M (parser)"}, rows,
		"\nA positive bias trades early exits (pipeline flushes) for late exits",
		"(NOP drain), the direction §3.2 of the paper predicts.")
	return r
}

// jrsConfigs are the ext-confidence table rows.
var jrsConfigs = []struct {
	name    string
	thr     int
	history int
}{
	{"threshold 2, PC-indexed", 2, 0},
	{"threshold 4, PC-indexed", 4, 0},
	{"threshold 8, PC-indexed (default)", 8, 0},
	{"threshold 12, PC-indexed", 12, 0},
	{"threshold 8, 4-bit history", 8, 4},
	{"threshold 8, 16-bit history (Table 2 literal)", 8, 16},
}

// extConfidence sweeps the confidence estimator's threshold and history
// indexing — the "more accurate confidence estimation mechanisms" the
// paper's conclusion calls for.
func extConfidence(l *Lab) *report {
	r := &report{}
	var rows []row
	for _, cfg := range jrsConfigs {
		m := config.DefaultMachine()
		m.JRS.Threshold = cfg.thr
		m.JRS.HistoryBits = cfg.history
		rows = append(rows, cells(cfg.name, r.avgJJL(l, m)...))
	}
	// The oracle bound.
	m := config.DefaultMachine()
	m.PerfectConfidence = true
	rows = append(rows, cells("perfect confidence (oracle)", r.avgJJL(l, m)...))
	r.table("Wish jump/join/loop binary vs confidence estimator configuration",
		[]string{"JRS config", "AVG", "AVGnomcf"}, rows,
		"\nHistory-indexed variants split each branch across contexts that must",
		"be trained separately; with a 16-bit index almost nothing reaches high",
		"confidence (see EXPERIMENTS.md, 'modified JRS').")
	return r
}

// Threshold sweep points of ext-thresholds (L=2 disables loop
// conversion entirely).
var (
	extThresholdN = []int{2, 5, 12}
	extThresholdL = []int{2, 30}
)

// extThresholds sweeps the §4.2.2 compile-time conversion thresholds
// N (wish jump fall-through size) and L (wish loop body size), which
// the paper explicitly left untuned. Each point declares its specs
// through a copy of the lab carrying that point's thresholds.
func extThresholds(l *Lab) *report {
	r := &report{}
	var rows []row
	for _, n := range extThresholdN {
		for _, lim := range extThresholdL {
			pt := *l
			pt.Thresholds = compiler.Thresholds{WishJump: n, WishLoop: lim}
			avg := r.avgJJL(&pt, config.DefaultMachine())
			rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
				return []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", lim),
					stats.F(avg[0](rs)), stats.F(avg[1](rs))}, nil
			})
		}
	}
	r.table("Wish jump/join/loop binary vs compiler conversion thresholds",
		[]string{"N (jump)", "L (loop)", "AVG", "AVGnomcf"}, rows,
		"\nN and L trade wish-branch instruction overhead against hardware",
		"adaptivity; the paper's untuned N=5/L=30 sit in the flat middle.")
	return r
}
