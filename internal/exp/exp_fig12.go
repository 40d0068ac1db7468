package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// Fig1 reproduces Figure 1: execution time of the predicated binary
// normalized to the normal-branch binary, per benchmark and input set.
// The paper measured this on a real Itanium-II; here both binaries run
// on the baseline simulated machine. The shape to reproduce: predication
// usually helps, but for some (benchmark, input) pairs — mcf and bzip2
// on input A most prominently — it hurts, and the winner flips with the
// input set.
func Fig1(l *Lab, w io.Writer) error {
	t := stats.NewTable("Execution time of predicated (BASE-MAX) binary normalized to normal binary",
		"benchmark", "input-A", "input-B", "input-C")
	m := config.DefaultMachine()
	for _, bench := range BenchNames() {
		row := []string{bench}
		for _, in := range workload.Inputs() {
			n, err := l.Norm(bench, in, compiler.BaseMax, m, m)
			if err != nil {
				return err
			}
			row = append(row, stats.F(n))
		}
		t.AddRow(row...)
	}
	t.Fprint(w)
	return nil
}

// Fig2 reproduces Figure 2, the oracle decomposition of predication
// overhead: BASE-MAX as-is, with predicate dependencies ideally removed
// (NO-DEPEND), with predicated-false µops also removed (NO-DEPEND +
// NO-FETCH), and the normal binary under perfect conditional branch
// prediction (PERFECT-CBP). Normalized to the normal binary.
func Fig2(l *Lab, w io.Writer) error {
	base, noDep, noFetch, perfect := fig2Machines()

	t := stats.NewTable("Execution time normalized to normal binary (input A)",
		"benchmark", "BASE-MAX", "NO-DEPEND", "NO-DEPEND+NO-FETCH", "PERFECT-CBP")
	perBench := make(map[string][]float64)
	for _, bench := range BenchNames() {
		var vals []float64
		for _, run := range []struct {
			v compiler.Variant
			m *config.Machine
		}{
			{compiler.BaseMax, base},
			{compiler.BaseMax, noDep},
			{compiler.BaseMax, noFetch},
			{compiler.NormalBranch, perfect},
		} {
			n, err := l.Norm(bench, workload.InputA, run.v, run.m, base)
			if err != nil {
				return err
			}
			vals = append(vals, n)
		}
		perBench[bench] = vals
		t.AddRow(bench, stats.F(vals[0]), stats.F(vals[1]), stats.F(vals[2]), stats.F(vals[3]))
	}
	avgRows(perBench, 4, func(label string, v []float64) {
		t.AddRow(label, stats.F(v[0]), stats.F(v[1]), stats.F(v[2]), stats.F(v[3]))
	})
	t.Fprint(w)
	return nil
}

// Fig10 reproduces Figure 10: the wish jump/join binary against the two
// predicated baselines, with real (JRS) and perfect confidence.
func Fig10(l *Lab, w io.Writer) error {
	return mainComparison(l, w,
		"Execution time normalized to normal binary (input A)",
		fig10Series, config.DefaultMachine())
}

// Fig12 reproduces Figure 12: adds wish loops on top of wish
// jumps/joins.
func Fig12(l *Lab, w io.Writer) error {
	return mainComparison(l, w,
		"Execution time normalized to normal binary (input A)",
		fig12Series, config.DefaultMachine())
}

// Fig16 reproduces Figure 16: the same comparison on a processor that
// supports predication with select-µops instead of C-style conditional
// expressions.
func Fig16(l *Lab, w io.Writer) error {
	return mainComparison(l, w,
		"Execution time normalized to normal binary, select-µop predication (input A)",
		fig12Series, config.DefaultMachine().WithSelectUop())
}

type series struct {
	name    string
	variant compiler.Variant
	perfect bool
}

func mainComparison(l *Lab, w io.Writer, title string, ss []series, m *config.Machine) error {
	cols := []string{"benchmark"}
	for _, s := range ss {
		cols = append(cols, s.name)
	}
	t := stats.NewTable(title, cols...)
	perBench := make(map[string][]float64)
	for _, bench := range BenchNames() {
		var vals []float64
		for _, s := range ss {
			n, err := l.Norm(bench, workload.InputA, s.variant, machineFor(s, m), m)
			if err != nil {
				return err
			}
			vals = append(vals, n)
		}
		perBench[bench] = vals
		row := []string{bench}
		for _, v := range vals {
			row = append(row, stats.F(v))
		}
		t.AddRow(row...)
	}
	avgRows(perBench, len(ss), func(label string, v []float64) {
		row := []string{label}
		for _, x := range v {
			row = append(row, stats.F(x))
		}
		t.AddRow(row...)
	})
	t.Fprint(w)
	fmt.Fprintln(w)
	return nil
}
