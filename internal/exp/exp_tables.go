package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/isa"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// table1 reproduces Table 1: the prediction each wish branch in the
// Figure 6 region receives for every combination of confidence
// estimates, per the cascade rule implemented in the front end (a wish
// join is forced not-taken if the wish jump, any earlier join, or the
// join itself is low-confidence).
func table1(l *Lab, w io.Writer) error {
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

// table2 prints the baseline machine configuration (the paper's
// Table 2), as actually instantiated by this simulator.
func table2(l *Lab, w io.Writer) error {
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

// table3 prints the five binary variants per benchmark with their
// static branch inventory, realizing the paper's Table 3 as a measured
// artifact.
func table3(l *Lab, w io.Writer) error {
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

// table4 reproduces Table 4: dynamic µop counts, branch counts,
// misprediction rates, and wish branch populations.
func table4(l *Lab) *report {
	r := &report{}
	m := config.DefaultMachine()
	var rows []row
	for _, b := range workload.All() {
		n := r.run(l.Spec(b.Name, workload.InputA, compiler.NormalBranch, m))
		w := r.run(l.Spec(b.Name, workload.InputA, compiler.WishJumpJoinLoop, m))
		rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
			src, _ := b.Build(workload.InputA, l.Scale)
			normal, err := compiler.Compile(src, compiler.NormalBranch)
			if err != nil {
				return nil, err
			}
			condStatic, _ := normal.StaticCondBranches()
			jjl, err := compiler.Compile(src, compiler.WishJumpJoinLoop)
			if err != nil {
				return nil, err
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
			rn, dynWish := rs[n], rs[w].WishBranches()
			return []string{b.Name,
				fmt.Sprintf("%d", rn.RetiredUops),
				fmt.Sprintf("%d", condStatic),
				fmt.Sprintf("%d", rn.CondBranches),
				fmt.Sprintf("%.1f", rn.MispredPer1K()),
				fmt.Sprintf("%d (%s)", staticWish, pct(uint64(staticLoops), uint64(staticWish))),
				fmt.Sprintf("%d (%s)", dynWish, pct(rs[w].WishLoop.Total(), dynWish)),
			}, nil
		})
	}
	r.table("Simulated benchmark characteristics (input A, baseline machine)",
		[]string{"benchmark", "dyn µops", "static br", "dyn br", "mispred/1Kµops",
			"static wish (%loop)", "dyn wish (%loop)"}, rows)
	return r
}

func pct(part, whole uint64) string {
	if whole == 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// table5 reproduces Table 5: execution-time reduction of the wish
// jump/join/loop binary over (1) the normal binary, (2) the best
// predicated binary per benchmark, and (3) the best non-wish binary per
// benchmark — the last comparison being "unrealistic" in the paper's
// words, since no compiler can pick the best binary ahead of time.
func table5(l *Lab) *report {
	r := &report{}
	m := config.DefaultMachine()
	var rows []row
	var benches [][4]int
	for _, bench := range BenchNames() {
		var runs [4]int
		for j, v := range []compiler.Variant{
			compiler.NormalBranch, compiler.BaseDef, compiler.BaseMax, compiler.WishJumpJoinLoop,
		} {
			runs[j] = r.run(l.Spec(bench, workload.InputA, v, m))
		}
		benches = append(benches, runs)
		rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
			red, bestPred, best := wishReductions(rs, runs)
			return []string{bench, stats.Pct(red[0]), stats.Pct(red[1]) + " (" + bestPred + ")",
				stats.Pct(red[2]), best}, nil
		})
	}
	rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
		var vs [3][]float64
		for _, runs := range benches {
			red, _, _ := wishReductions(rs, runs)
			for k := range vs {
				vs[k] = append(vs[k], red[k])
			}
		}
		return []string{"AVG", stats.Pct(stats.Mean(vs[0])), stats.Pct(stats.Mean(vs[1])),
			stats.Pct(stats.Mean(vs[2])), ""}, nil
	})
	r.table("Execution-time reduction of wish-jjl binary (real confidence, input A)",
		[]string{"benchmark", "vs normal", "vs best predicated", "vs best non-wish", "best binary"}, rows)
	return r
}

// wishReductions returns the wish-jjl binary's execution-time
// reductions over the normal, the best predicated and the best non-wish
// binary, and the names of the last two. runs holds the runs of the
// normal, BASE-DEF, BASE-MAX and wish-jjl binaries.
func wishReductions(rs []*cpu.Result, runs [4]int) (red [3]float64, bestPred, best string) {
	cy := func(j int) float64 { return float64(rs[runs[j]].Cycles) }
	normal, def, max, wish := cy(0), cy(1), cy(2), cy(3)
	bp, bestPred := def, "DEF"
	if max < def {
		bp, bestPred = max, "MAX"
	}
	b, best := bp, bestPred
	if normal < b {
		b, best = normal, "BR"
	}
	return [3]float64{1 - wish/normal, 1 - wish/bp, 1 - wish/b}, bestPred, best
}
