package exp

import (
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/workload"
)

// fig11 reproduces Figure 11: retired dynamic wish branches per one
// million retired µops in the wish jump/join binary, split by
// confidence estimate (low/high) and prediction outcome.
func fig11(l *Lab) *report {
	r := &report{}
	m := config.DefaultMachine()
	var rows []row
	for _, bench := range BenchNames() {
		i := r.run(l.Spec(bench, workload.InputA, compiler.WishJumpJoin, m))
		rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
			res := rs[i]
			var lm, lc, hm, hc uint64
			for _, wc := range []cpu.WishClass{res.WishJump, res.WishJoin, res.WishLoop} {
				lm += wc.LowMispred
				lc += wc.LowCorrect
				hm += wc.HighMispred
				hc += wc.HighCorrect
			}
			return []string{bench, per1M(res, lm), per1M(res, lc), per1M(res, hm), per1M(res, hc)}, nil
		})
	}
	r.table("Dynamic wish branches per 1M retired µops (wish-jj binary, input A)",
		[]string{"benchmark", "low (mispred)", "low (correct)", "high (mispred)", "high (correct)"}, rows,
		"\nIdeal: every mispredicted wish branch low-confidence, no mispredicted",
		"branch high-confidence. As in the paper, the second condition is much",
		"closer to holding than the first.")
	return r
}

// per1M formats a count of res's retired wish branches per million
// retired µops.
func per1M(res *cpu.Result, n uint64) string {
	return fmt.Sprintf("%.0f", res.WishPer1M(n))
}

// fig13 reproduces Figure 13: retired dynamic wish loops per million
// µops in the wish jump/join/loop binary, with the low-confidence
// mispredictions classified early-exit / late-exit / no-exit. Late-exit
// is the case where a wish loop beats a normal backward branch (§3.2).
func fig13(l *Lab) *report {
	r := &report{}
	m := config.DefaultMachine()
	var rows []row
	for _, bench := range BenchNames() {
		i := r.run(l.Spec(bench, workload.InputA, compiler.WishJumpJoinLoop, m))
		rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
			res := rs[i]
			wl := res.WishLoop
			return []string{bench,
				per1M(res, wl.LowNoExit), per1M(res, wl.LowLate), per1M(res, wl.LowEarly),
				per1M(res, wl.LowCorrect), per1M(res, wl.HighMispred), per1M(res, wl.HighCorrect)}, nil
		})
	}
	r.table("Dynamic wish loops per 1M retired µops (wish-jjl binary, input A)",
		[]string{"benchmark", "low no-exit", "low late-exit", "low early-exit", "low correct",
			"high mispred", "high correct"}, rows)
	return r
}

// fig14 reproduces Figure 14: sensitivity of the main comparison to the
// instruction window size (128, 256, 512 entries), reported as AVG and
// AVGnomcf of normalized execution time.
func fig14(l *Lab) *report {
	return sweep(l, "window", []int{128, 256, 512}, config.DefaultMachine().WithWindow)
}

// fig15 reproduces Figure 15: sensitivity to pipeline depth (10, 20, 30
// stages) on a 256-entry window.
func fig15(l *Lab) *report {
	return sweep(l, "depth", []int{10, 20, 30}, config.DefaultMachine().WithWindow(256).WithDepth)
}

// sweep declares the sweep series on machine mk(pt) for every point
// and prints one table of AVG and one of AVGnomcf, a row per point.
func sweep(l *Lab, dim string, points []int, mk func(int) *config.Machine) *report {
	r := &report{}
	var avg, nomcf []row
	for _, pt := range points {
		a, n := avgs(r.norms(l, sweepSeries, mk(pt)))
		label := fmt.Sprintf("%d", pt)
		avg, nomcf = append(avg, cells(label, a...)), append(nomcf, cells(label, n...))
	}
	cols := []string{dim}
	for _, s := range sweepSeries {
		cols = append(cols, s.name)
	}
	for _, t := range []struct {
		kind string
		rows []row
	}{{"AVG", avg}, {"AVGnomcf", nomcf}} {
		r.table(fmt.Sprintf("Normalized execution time (%s over benchmarks, input A)", t.kind),
			cols, t.rows, "")
	}
	return r
}
