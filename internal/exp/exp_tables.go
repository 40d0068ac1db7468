package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/isa"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// Table1 reproduces Table 1: the prediction each wish branch in the
// Figure 6 region receives for every combination of confidence
// estimates, per the cascade rule implemented in the front end (a wish
// join is forced not-taken if the wish jump, any earlier join, or the
// join itself is low-confidence).
func Table1(l *Lab, w io.Writer) error {
	t := stats.NewTable("Prediction of multiple wish branches (Figure 6 region: jump A, joins C and D)",
		"conf jump(A)", "conf join(C)", "conf join(D)",
		"pred jump(A)", "pred join(C)", "pred join(D)")
	type combo struct{ a, c, d bool } // true = high confidence
	for _, cb := range []combo{
		{true, true, true},
		{true, true, false},
		{true, false, false},
		{false, false, false},
	} {
		pred := func(selfHigh bool, anyEarlierLow bool) string {
			if anyEarlierLow || !selfHigh {
				return "not-taken"
			}
			return "predictor"
		}
		confStr := func(h bool) string {
			if h {
				return "high"
			}
			return "low"
		}
		// Confidence is only consulted while no earlier branch in the
		// region was low (Table 1 leaves those cells "-").
		cCell, dCell := confStr(cb.c), confStr(cb.d)
		if !cb.a {
			cCell, dCell = "-", "-"
		} else if !cb.c {
			dCell = "-"
		}
		t.AddRow(
			confStr(cb.a), cCell, dCell,
			pred(cb.a, false),
			pred(cb.c, !cb.a),
			pred(cb.d, !cb.a || !cb.c),
		)
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\n(The cascade rule itself is exercised end-to-end by the cpu package's")
	fmt.Fprintln(w, "wish-region tests and the examples/complexcfg program.)")
	return nil
}

// Table2 prints the baseline machine configuration (the paper's
// Table 2), as actually instantiated by this simulator.
func Table2(l *Lab, w io.Writer) error {
	m := config.DefaultMachine()
	t := stats.NewTable("Baseline processor configuration", "component", "setting")
	t.AddRow("front end", fmt.Sprintf("%d-wide fetch; up to %d cond. branches/cycle; fetch ends at first taken branch",
		m.FetchWidth, m.MaxCondBrPerCycle))
	t.AddRow("pipeline", fmt.Sprintf("front-end depth %d cycles (≈30-cycle min. misprediction penalty)", m.FrontEndDepth))
	t.AddRow("branch predictor", fmt.Sprintf("%dK-entry gshare / %dK-entry PAs hybrid, %dK-entry selector",
		m.Hybrid.GsharePHTEntries/1024, m.Hybrid.PAsPHTEntries/1024, m.Hybrid.SelectorEntries/1024))
	t.AddRow("BTB", fmt.Sprintf("%d-entry, %d-way; %d-entry RAS; %dK-entry indirect target cache",
		m.BTBEntries, m.BTBWays, m.RASDepth, m.IndirectEntries/1024))
	t.AddRow("execution core", fmt.Sprintf("%d-entry reorder buffer; %d-wide issue/retire", m.ROBSize, m.IssueWidth))
	t.AddRow("L1 I-cache", fmt.Sprintf("%dKB, %d-way, %d-cycle", m.Caches.L1I.SizeBytes>>10, m.Caches.L1I.Ways, m.Caches.L1I.Latency))
	t.AddRow("L1 D-cache", fmt.Sprintf("%dKB, %d-way, %d-cycle", m.Caches.L1D.SizeBytes>>10, m.Caches.L1D.Ways, m.Caches.L1D.Latency))
	t.AddRow("L2 cache", fmt.Sprintf("%dMB, %d-way, %d banks, %d-cycle", m.Caches.L2.SizeBytes>>20, m.Caches.L2.Ways, m.Caches.L2.Banks, m.Caches.L2.Latency))
	t.AddRow("memory", "300-cycle minimum latency; 32 banks; 32B bus at 4:1 ratio")
	t.AddRow("predication", m.PredMech.String()+" (C-style conditional expressions)")
	t.AddRow("confidence", fmt.Sprintf("%d-entry tagged %d-way JRS, %d-bit history, threshold %d (1KB)",
		m.JRS.Entries, m.JRS.Ways, m.JRS.HistoryBits, m.JRS.Threshold))
	t.Fprint(w)
	return nil
}

// Table3 prints the five binary variants per benchmark with their
// static branch inventory, realizing the paper's Table 3 as a measured
// artifact.
func Table3(l *Lab, w io.Writer) error {
	t := stats.NewTable("Static conditional branches (wish branches in parentheses) per binary, input A",
		"benchmark", "normal", "base-def", "base-max", "wish-jj", "wish-jjl", "µops(jjl)")
	for _, b := range workload.All() {
		src, _ := b.Build(workload.InputA, l.Scale)
		row := []string{b.Name}
		var lastLen int
		for _, v := range compiler.Variants() {
			p, err := compiler.Compile(src, v)
			if err != nil {
				return err
			}
			cond, wish := p.StaticCondBranches()
			row = append(row, fmt.Sprintf("%d (%d)", cond, wish))
			lastLen = p.NumInsts()
		}
		row = append(row, fmt.Sprintf("%d", lastLen))
		t.AddRow(row...)
	}
	t.Fprint(w)
	return nil
}

// Table4 reproduces Table 4: dynamic µop counts, branch counts,
// misprediction rates, and wish branch populations.
func Table4(l *Lab, w io.Writer) error {
	m := config.DefaultMachine()
	t := stats.NewTable("Simulated benchmark characteristics (input A, baseline machine)",
		"benchmark", "dyn µops", "static br", "dyn br", "mispred/1Kµops",
		"static wish (%loop)", "dyn wish (%loop)")
	for _, b := range workload.All() {
		src, _ := b.Build(workload.InputA, l.Scale)
		normal, err := compiler.Compile(src, compiler.NormalBranch)
		if err != nil {
			return err
		}
		condStatic, _ := normal.StaticCondBranches()

		rn, err := l.Result(b.Name, workload.InputA, compiler.NormalBranch, m)
		if err != nil {
			return err
		}
		rw, err := l.Result(b.Name, workload.InputA, compiler.WishJumpJoinLoop, m)
		if err != nil {
			return err
		}
		jjl, err := compiler.Compile(src, compiler.WishJumpJoinLoop)
		if err != nil {
			return err
		}
		staticWish, staticLoops := 0, 0
		for _, in := range jjl.Code {
			if in.IsWish() {
				staticWish++
				if in.WType == isa.WLoop {
					staticLoops++
				}
			}
		}
		dynWish := rw.WishBranches()
		dynLoops := rw.WishLoop.Total()
		pct := func(part, whole uint64) string {
			if whole == 0 {
				return "0%"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
		}
		t.AddRow(b.Name,
			fmt.Sprintf("%d", rn.RetiredUops),
			fmt.Sprintf("%d", condStatic),
			fmt.Sprintf("%d", rn.CondBranches),
			fmt.Sprintf("%.1f", rn.MispredPer1K()),
			fmt.Sprintf("%d (%s)", staticWish, pctInt(staticLoops, staticWish)),
			fmt.Sprintf("%d (%s)", dynWish, pct(dynLoops, dynWish)),
		)
	}
	t.Fprint(w)
	return nil
}

func pctInt(part, whole int) string {
	if whole == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// Table5 reproduces Table 5: execution-time reduction of the wish
// jump/join/loop binary over (1) the normal binary, (2) the best
// predicated binary per benchmark, and (3) the best non-wish binary per
// benchmark — the last comparison being "unrealistic" in the paper's
// words, since no compiler can pick the best binary ahead of time.
func Table5(l *Lab, w io.Writer) error {
	m := config.DefaultMachine()
	t := stats.NewTable("Execution-time reduction of wish-jjl binary (real confidence, input A)",
		"benchmark", "vs normal", "vs best predicated", "vs best non-wish", "best binary")
	var vsN, vsP, vsB []float64
	for _, bench := range BenchNames() {
		cy := func(v compiler.Variant) (float64, error) {
			r, err := l.Result(bench, workload.InputA, v, m)
			if err != nil {
				return 0, err
			}
			return float64(r.Cycles), nil
		}
		normal, err := cy(compiler.NormalBranch)
		if err != nil {
			return err
		}
		def, err := cy(compiler.BaseDef)
		if err != nil {
			return err
		}
		max, err := cy(compiler.BaseMax)
		if err != nil {
			return err
		}
		wish, err := cy(compiler.WishJumpJoinLoop)
		if err != nil {
			return err
		}
		bestPred, bestPredName := def, "DEF"
		if max < def {
			bestPred, bestPredName = max, "MAX"
		}
		best, bestName := bestPred, bestPredName
		if normal < best {
			best, bestName = normal, "BR"
		}
		redN := 1 - wish/normal
		redP := 1 - wish/bestPred
		redB := 1 - wish/best
		vsN = append(vsN, redN)
		vsP = append(vsP, redP)
		vsB = append(vsB, redB)
		t.AddRow(bench, stats.Pct(redN), stats.Pct(redP)+" ("+bestPredName+")",
			stats.Pct(redB), bestName)
	}
	t.AddRow("AVG", stats.Pct(stats.Mean(vsN)), stats.Pct(stats.Mean(vsP)), stats.Pct(stats.Mean(vsB)), "")
	t.Fprint(w)
	return nil
}
