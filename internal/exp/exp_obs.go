package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
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
// mix of both), which comes last.
var obsVariants = []compiler.Variant{
	compiler.NormalBranch,
	compiler.BaseMax,
	compiler.WishJumpJoinLoop,
}

// obsTopBranches is how many offending branches the per-benchmark
// attribution table shows.
const obsTopBranches = 3

// obsStalls declares the stall-taxonomy decomposition. For every
// variant, one table gives each benchmark's cycles split across the
// obs.Bucket taxonomy as percentages (rows sum to 100 by the
// accounting identity). A final table lists the wish binary's top
// offending branches per benchmark, ranked by attributed flush-recovery
// cycles; its row count depends on the results, so it is its own part.
func obsStalls(l *Lab) *report {
	r := &report{}
	m := config.DefaultMachine()
	runs := make([][]int, len(obsVariants)) // [variant][bench]
	for _, bench := range BenchNames() {
		for j, v := range obsVariants {
			runs[j] = append(runs[j], r.run(l.Spec(bench, workload.InputA, v, m)))
		}
	}

	cols := []string{"benchmark"}
	for _, b := range obs.Buckets() {
		cols = append(cols, b.String())
	}
	for j, v := range obsVariants {
		var rows []row
		for i, bench := range BenchNames() {
			run := runs[j][i]
			rows = append(rows, func(rs []*cpu.Result) ([]string, error) {
				snap, err := r.snapshot(rs, run)
				if err != nil {
					return nil, err
				}
				row := []string{bench}
				for _, st := range snap.Stalls {
					row = append(row, fmt.Sprintf("%.1f", 100*st.Share))
				}
				return row, nil
			})
		}
		r.table(fmt.Sprintf("Cycle accounting, %% of total cycles (%s, input A)", v), cols, rows, "")
	}

	wish := runs[len(obsVariants)-1]
	r.parts = append(r.parts, func(w io.Writer, rs []*cpu.Result) error {
		t := stats.NewTable(
			fmt.Sprintf("Top offending branches (%s, input A), by attributed flush-recovery cycles",
				compiler.WishJumpJoinLoop),
			"benchmark", "pc", "retired", "mispredicts", "flushes",
			"flush-cycles", "% of cycles", "conf-high", "conf-low")
		for i, bench := range BenchNames() {
			snap, err := r.snapshot(rs, wish[i])
			if err != nil {
				return err
			}
			for k, br := range snap.Branches {
				if k >= obsTopBranches || br.FlushCycles == 0 {
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
	})
	return r
}
