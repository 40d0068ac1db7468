package exp

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

// fig1 reproduces Figure 1: execution time of the predicated binary
// normalized to the normal-branch binary, per benchmark and input set.
// The paper measured this on a real Itanium-II; here both binaries run
// on the baseline simulated machine. The shape to reproduce: predication
// usually helps, but for some (benchmark, input) pairs — mcf and bzip2
// on input A most prominently — it hurts, and the winner flips with the
// input set.
func fig1(l *Lab) *report {
	r := &report{}
	m := config.DefaultMachine()
	var rows []row
	for _, bench := range BenchNames() {
		var vs []value
		for _, in := range workload.Inputs() {
			i := r.run(l.Spec(bench, in, compiler.BaseMax, m))
			vs = append(vs, ratio(i, r.run(l.Spec(bench, in, compiler.NormalBranch, m))))
		}
		rows = append(rows, cells(bench, vs...))
	}
	r.table("Execution time of predicated (BASE-MAX) binary normalized to normal binary",
		[]string{"benchmark", "input-A", "input-B", "input-C"}, rows)
	return r
}

// fig2 reproduces Figure 2, the oracle decomposition of predication
// overhead: BASE-MAX as-is, with predicate dependencies ideally removed
// (NO-DEPEND), with predicated-false µops also removed (NO-DEPEND +
// NO-FETCH), and the normal binary under perfect conditional branch
// prediction (PERFECT-CBP). Normalized to the normal binary.
func fig2(l *Lab) *report {
	base := config.DefaultMachine()
	noDep := *base
	noDep.NoPredDepend = true
	noFetch := noDep
	noFetch.NoFalseFetch = true
	perfect := *base
	perfect.PerfectBP = true
	runs := []struct {
		v compiler.Variant
		m *config.Machine
	}{
		{compiler.BaseMax, base},
		{compiler.BaseMax, &noDep},
		{compiler.BaseMax, &noFetch},
		{compiler.NormalBranch, &perfect},
	}

	r := &report{}
	cols := make([][]value, len(runs))
	for _, bench := range BenchNames() {
		ref := r.run(l.Spec(bench, workload.InputA, compiler.NormalBranch, base))
		for j, run := range runs {
			cols[j] = append(cols[j], ratio(r.run(l.Spec(bench, workload.InputA, run.v, run.m)), ref))
		}
	}
	r.table("Execution time normalized to normal binary (input A)",
		[]string{"benchmark", "BASE-MAX", "NO-DEPEND", "NO-DEPEND+NO-FETCH", "PERFECT-CBP"},
		benchRows(cols))
	return r
}

// The series of the main-comparison figures (10, 12, 16) and the
// sensitivity sweeps (14, 15).
var (
	fig10Series = []series{
		{"BASE-DEF", compiler.BaseDef, false},
		{"BASE-MAX", compiler.BaseMax, false},
		{"wish-jj (real-conf)", compiler.WishJumpJoin, false},
		{"wish-jj (perf-conf)", compiler.WishJumpJoin, true},
	}
	fig12Series = []series{
		{"BASE-DEF", compiler.BaseDef, false},
		{"BASE-MAX", compiler.BaseMax, false},
		{"wish-jj (real-conf)", compiler.WishJumpJoin, false},
		{"wish-jjl (real-conf)", compiler.WishJumpJoinLoop, false},
		{"wish-jjl (perf-conf)", compiler.WishJumpJoinLoop, true},
	}
	sweepSeries = []series{
		{"BASE-DEF", compiler.BaseDef, false},
		{"BASE-MAX", compiler.BaseMax, false},
		{"wish-jjl (real-conf)", compiler.WishJumpJoinLoop, false},
		{"wish-jjl (perf-conf)", compiler.WishJumpJoinLoop, true},
	}
)

// fig10 reproduces Figure 10: the wish jump/join binary against the two
// predicated baselines, with real (JRS) and perfect confidence.
func fig10(l *Lab) *report {
	return mainComparison(l, "Execution time normalized to normal binary (input A)",
		fig10Series, config.DefaultMachine())
}

// fig12 reproduces Figure 12: adds wish loops on top of wish
// jumps/joins.
func fig12(l *Lab) *report {
	return mainComparison(l, "Execution time normalized to normal binary (input A)",
		fig12Series, config.DefaultMachine())
}

// fig16 reproduces Figure 16: the same comparison on a processor that
// supports predication with select-µops instead of C-style conditional
// expressions.
func fig16(l *Lab) *report {
	return mainComparison(l, "Execution time normalized to normal binary, select-µop predication (input A)",
		fig12Series, config.DefaultMachine().WithSelectUop())
}

func mainComparison(l *Lab, title string, ss []series, m *config.Machine) *report {
	r := &report{}
	cols := []string{"benchmark"}
	for _, s := range ss {
		cols = append(cols, s.name)
	}
	r.table(title, cols, benchRows(r.norms(l, ss, m)), "")
	return r
}
