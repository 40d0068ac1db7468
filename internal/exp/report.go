package exp

import (
	"fmt"
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// A report is one experiment's single declaration: the runs its tables
// read, in declaration order, and the parts that print them. A table
// cell keeps the index run returned for each spec it reads and
// computes its text from the results, so Experiment.Runs (the specs)
// and Experiment.Run (the parts) come from the same code and cannot
// drift.
type report struct {
	specs []lab.Spec
	parts []func(w io.Writer, rs []*cpu.Result) error
}

// simulated builds an experiment from its declaration: Runs lists the
// declared specs, and Run reads them in order through l.Sched (memo
// hits once Warm has run) and prints the parts. A failing run prints
// none of the experiment's tables.
func simulated(id, title string, declare func(l *Lab) *report) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Runs:  func(l *Lab) []lab.Spec { return declare(l).specs },
		Run: func(l *Lab, w io.Writer) error {
			r := declare(l)
			rs := make([]*cpu.Result, len(r.specs))
			for i, s := range r.specs {
				res, err := l.Sched.Result(s)
				if err != nil {
					return err
				}
				rs[i] = res
			}
			for _, p := range r.parts {
				if err := p(w, rs); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// run declares one simulation and returns its index into the results
// the parts are handed.
func (r *report) run(s lab.Spec) int {
	r.specs = append(r.specs, s)
	return len(r.specs) - 1
}

// A value is one number a cell computes from the results.
type value func(rs []*cpu.Result) float64

// A row is one table row computed from the results.
type row func(rs []*cpu.Result) ([]string, error)

// ratio is run i's execution time normalized to run ref's (the paper
// normalizes to the normal binary on the same machine).
func ratio(i, ref int) value {
	return func(rs []*cpu.Result) float64 {
		return float64(rs[i].Cycles) / float64(rs[ref].Cycles)
	}
}

// mean is the arithmetic mean of vs.
func mean(vs []value) value {
	return func(rs []*cpu.Result) float64 {
		xs := make([]float64, len(vs))
		for i, v := range vs {
			xs[i] = v(rs)
		}
		return stats.Mean(xs)
	}
}

// avgs returns the AVG and AVGnomcf of each column of one value per
// benchmark, in BenchNames order: the paper reports both because mcf
// skews the average (footnote 2).
func avgs(cols [][]value) (avg, nomcf []value) {
	for _, c := range cols {
		var rest []value
		for i, n := range BenchNames() {
			if n != "mcf" {
				rest = append(rest, c[i])
			}
		}
		avg, nomcf = append(avg, mean(c)), append(nomcf, mean(rest))
	}
	return avg, nomcf
}

// cells is a row of a label and values to three decimals.
func cells(label string, vs ...value) row {
	return func(rs []*cpu.Result) ([]string, error) {
		out := []string{label}
		for _, v := range vs {
			out = append(out, stats.F(v(rs)))
		}
		return out, nil
	}
}

// benchRows returns one row per benchmark, then the AVG and AVGnomcf
// rows, from columns of one value per benchmark.
func benchRows(cols [][]value) []row {
	var rows []row
	for i, bench := range BenchNames() {
		var vs []value
		for _, c := range cols {
			vs = append(vs, c[i])
		}
		rows = append(rows, cells(bench, vs...))
	}
	avg, nomcf := avgs(cols)
	return append(rows, cells("AVG", avg...), cells("AVGnomcf", nomcf...))
}

// table adds a part that prints one table, then each line of after.
func (r *report) table(title string, cols []string, rows []row, after ...string) {
	r.parts = append(r.parts, func(w io.Writer, rs []*cpu.Result) error {
		t := stats.NewTable(title, cols...)
		for _, row := range rows {
			cs, err := row(rs)
			if err != nil {
				return err
			}
			t.AddRow(cs...)
		}
		t.Fprint(w)
		for _, line := range after {
			fmt.Fprintln(w, line)
		}
		return nil
	})
}

// snapshot returns run i's validated machine-readable snapshot: the
// experiment consumes the same export wishsim -stats-out emits, so the
// rendered tables and the JSON artifact can never disagree.
func (r *report) snapshot(rs []*cpu.Result, i int) (*obs.Snapshot, error) {
	snap := r.specs[i].Snapshot(rs[i])
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", r.specs[i], err)
	}
	return snap, nil
}

// series is one column of the main comparison and the sweeps.
type series struct {
	name    string
	variant compiler.Variant
	perfect bool
}

// machineFor returns the machine a series runs on: the base machine,
// or a copy with perfect wish-branch confidence.
func machineFor(s series, m *config.Machine) *config.Machine {
	if !s.perfect {
		return m
	}
	c := *m
	c.PerfectConfidence = true
	return &c
}

// norms declares, for every benchmark, the normal binary on m once and
// then each series' run, and returns the runs' execution times
// normalized to that reference as columns, one per series.
func (r *report) norms(l *Lab, ss []series, m *config.Machine) [][]value {
	cols := make([][]value, len(ss))
	for _, bench := range BenchNames() {
		ref := r.run(l.Spec(bench, workload.InputA, compiler.NormalBranch, m))
		for j, s := range ss {
			i := r.run(l.Spec(bench, workload.InputA, s.variant, machineFor(s, m)))
			cols[j] = append(cols[j], ratio(i, ref))
		}
	}
	return cols
}

// avgJJL declares the wish jump/join/loop binary and the normal
// reference on m for every benchmark, and returns the AVG and AVGnomcf
// of its normalized execution time.
func (r *report) avgJJL(l *Lab, m *config.Machine) []value {
	var vs []value
	for _, bench := range BenchNames() {
		i := r.run(l.Spec(bench, workload.InputA, compiler.WishJumpJoinLoop, m))
		vs = append(vs, ratio(i, r.run(l.Spec(bench, workload.InputA, compiler.NormalBranch, m))))
	}
	avg, nomcf := avgs([][]value{vs})
	return append(avg, nomcf...)
}
