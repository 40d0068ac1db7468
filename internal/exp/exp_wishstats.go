package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// Fig11 reproduces Figure 11: retired dynamic wish branches per one
// million retired µops in the wish jump/join binary, split by
// confidence estimate (low/high) and prediction outcome.
func Fig11(l *Lab, w io.Writer) error {
	m := config.DefaultMachine()
	t := stats.NewTable("Dynamic wish branches per 1M retired µops (wish-jj binary, input A)",
		"benchmark", "low (mispred)", "low (correct)", "high (mispred)", "high (correct)")
	for _, bench := range BenchNames() {
		r, err := l.Result(bench, workload.InputA, compiler.WishJumpJoin, m)
		if err != nil {
			return err
		}
		var lm, lc, hm, hc uint64
		for _, wc := range []cpu.WishClass{r.WishJump, r.WishJoin, r.WishLoop} {
			lm += wc.LowMispred
			lc += wc.LowCorrect
			hm += wc.HighMispred
			hc += wc.HighCorrect
		}
		t.AddRow(bench,
			fmt.Sprintf("%.0f", r.WishPer1M(lm)),
			fmt.Sprintf("%.0f", r.WishPer1M(lc)),
			fmt.Sprintf("%.0f", r.WishPer1M(hm)),
			fmt.Sprintf("%.0f", r.WishPer1M(hc)))
	}
	t.Fprint(w)
	fmt.Fprintln(w, "\nIdeal: every mispredicted wish branch low-confidence, no mispredicted")
	fmt.Fprintln(w, "branch high-confidence. As in the paper, the second condition is much")
	fmt.Fprintln(w, "closer to holding than the first.")
	return nil
}

// Fig13 reproduces Figure 13: retired dynamic wish loops per million
// µops in the wish jump/join/loop binary, with the low-confidence
// mispredictions classified early-exit / late-exit / no-exit. Late-exit
// is the case where a wish loop beats a normal backward branch (§3.2).
func Fig13(l *Lab, w io.Writer) error {
	m := config.DefaultMachine()
	t := stats.NewTable("Dynamic wish loops per 1M retired µops (wish-jjl binary, input A)",
		"benchmark", "low no-exit", "low late-exit", "low early-exit", "low correct",
		"high mispred", "high correct")
	for _, bench := range BenchNames() {
		r, err := l.Result(bench, workload.InputA, compiler.WishJumpJoinLoop, m)
		if err != nil {
			return err
		}
		wl := r.WishLoop
		t.AddRow(bench,
			fmt.Sprintf("%.0f", r.WishPer1M(wl.LowNoExit)),
			fmt.Sprintf("%.0f", r.WishPer1M(wl.LowLate)),
			fmt.Sprintf("%.0f", r.WishPer1M(wl.LowEarly)),
			fmt.Sprintf("%.0f", r.WishPer1M(wl.LowCorrect)),
			fmt.Sprintf("%.0f", r.WishPer1M(wl.HighMispred)),
			fmt.Sprintf("%.0f", r.WishPer1M(wl.HighCorrect)))
	}
	t.Fprint(w)
	return nil
}

// Fig14 reproduces Figure 14: sensitivity of the main comparison to the
// instruction window size (128, 256, 512 entries), reported as AVG and
// AVGnomcf of normalized execution time.
func Fig14(l *Lab, w io.Writer) error {
	return sweep(l, w, "window", []int{128, 256, 512},
		func(base *config.Machine, v int) *config.Machine { return base.WithWindow(v) })
}

// Fig15 reproduces Figure 15: sensitivity to pipeline depth (10, 20, 30
// stages) on a 256-entry window.
func Fig15(l *Lab, w io.Writer) error {
	base := config.DefaultMachine().WithWindow(256)
	return sweep(l, w, "depth", []int{10, 20, 30},
		func(_ *config.Machine, v int) *config.Machine { return base.WithDepth(v) })
}

func sweep(l *Lab, w io.Writer, dim string, points []int,
	mk func(*config.Machine, int) *config.Machine) error {
	base := config.DefaultMachine()
	ss := sweepSeries
	for _, avgKind := range []string{"AVG", "AVGnomcf"} {
		cols := []string{dim}
		for _, s := range ss {
			cols = append(cols, s.name)
		}
		t := stats.NewTable(
			fmt.Sprintf("Normalized execution time (%s over benchmarks, input A)", avgKind),
			cols...)
		for _, pt := range points {
			m := mk(base, pt)
			row := []string{fmt.Sprintf("%d", pt)}
			for _, s := range ss {
				mm := machineFor(s, m)
				var vals []float64
				for _, bench := range BenchNames() {
					if avgKind == "AVGnomcf" && bench == "mcf" {
						continue
					}
					n, err := l.Norm(bench, workload.InputA, s.variant, mm, m)
					if err != nil {
						return err
					}
					vals = append(vals, n)
				}
				row = append(row, stats.F(stats.Mean(vals)))
			}
			t.AddRow(row...)
		}
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	return nil
}
