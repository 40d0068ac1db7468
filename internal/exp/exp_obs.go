package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// The obs-stalls experiment renders the cycle-accounting view of the
// main comparison: where the cycles of each binary variant actually go,
// bucket by bucket, plus the top offending static branches of the wish
// binary. This is the observability companion to Figures 10/12/14: the
// normalized-execution-time deltas those figures report decompose here
// into flush recovery, predicate serialization, and wish-NOP overhead.

// obsVariants are the variants the stall decomposition compares: the
// normal binary (branch mispredictions dominate), full predication (NOP
// and serialization overhead dominate), and the wish binary (adaptive
// mix of both).
var obsVariants = []compiler.Variant{
	compiler.NormalBranch,
	compiler.BaseMax,
	compiler.WishJumpJoinLoop,
}

func obsRuns(l *Lab) []lab.Spec {
	m := config.DefaultMachine()
	var specs []lab.Spec
	for _, bench := range BenchNames() {
		for _, v := range obsVariants {
			specs = append(specs, l.Spec(bench, workload.InputA, v, m))
		}
	}
	return specs
}

// obsTopBranches is how many offending branches the per-benchmark
// attribution table shows.
const obsTopBranches = 3

// snapshot runs (or fetches) one simulation and returns its validated
// machine-readable snapshot — the experiment consumes the same export
// wishsim -stats-out emits, not ad-hoc result fields, so the rendered
// tables and the JSON artifact can never disagree.
func (l *Lab) snapshot(bench string, v compiler.Variant, m *config.Machine) (*obs.Snapshot, error) {
	spec := l.Spec(bench, workload.InputA, v, m)
	r, err := l.Sched.Result(spec)
	if err != nil {
		return nil, err
	}
	snap := spec.Snapshot(r)
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", spec, err)
	}
	return snap, nil
}

// ObsStalls renders the stall-taxonomy decomposition. For every
// variant, one table gives each benchmark's cycles split across the
// obs.Bucket taxonomy as percentages (rows sum to 100 by the
// accounting identity). A final table lists the wish binary's top
// offending branches per benchmark, ranked by attributed flush-recovery
// cycles.
func ObsStalls(l *Lab, w io.Writer) error {
	m := config.DefaultMachine()

	cols := []string{"benchmark"}
	for _, b := range obs.Buckets() {
		cols = append(cols, b.String())
	}
	for _, v := range obsVariants {
		t := stats.NewTable(
			fmt.Sprintf("Cycle accounting, %% of total cycles (%s, input A)", v),
			cols...)
		for _, bench := range BenchNames() {
			snap, err := l.snapshot(bench, v, m)
			if err != nil {
				return err
			}
			row := []string{bench}
			for _, st := range snap.Stalls {
				row = append(row, fmt.Sprintf("%.1f", 100*st.Share))
			}
			t.AddRow(row...)
		}
		t.Fprint(w)
		fmt.Fprintln(w)
	}

	t := stats.NewTable(
		fmt.Sprintf("Top offending branches (%s, input A), by attributed flush-recovery cycles",
			compiler.WishJumpJoinLoop),
		"benchmark", "pc", "retired", "mispredicts", "flushes",
		"flush-cycles", "% of cycles", "conf-high", "conf-low")
	for _, bench := range BenchNames() {
		snap, err := l.snapshot(bench, compiler.WishJumpJoinLoop, m)
		if err != nil {
			return err
		}
		for i, br := range snap.Branches {
			if i >= obsTopBranches || br.FlushCycles == 0 {
				break
			}
			t.AddRow(bench,
				fmt.Sprintf("%d", br.PC),
				fmt.Sprintf("%d", br.Retired),
				fmt.Sprintf("%d", br.Mispredicts),
				fmt.Sprintf("%d", br.Flushes),
				fmt.Sprintf("%d", br.FlushCycles),
				fmt.Sprintf("%.1f", 100*float64(br.FlushCycles)/float64(snap.Cycles)),
				fmt.Sprintf("%d", br.ConfHigh),
				fmt.Sprintf("%d", br.ConfLow))
		}
	}
	t.Fprint(w)
	return nil
}
