// Package exp reproduces the paper's evaluation: one runner per table
// and figure (see DESIGN.md's per-experiment index), scheduled through
// internal/lab. Each table cell declares the runs it reads (report.go),
// so an experiment's run-set (Experiment.Runs) comes from the code that
// renders it: whole campaigns are warmed in parallel and served from
// the persistent result store, then rendered serially from the warm
// cache, so the output is byte-identical regardless of the worker count.
package exp

import (
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

// Lab adapts the campaign scheduler to the experiments: it pins the
// cross-cutting simulation parameters (scale, compiler thresholds)
// that every run of a campaign shares, and builds full lab.Specs from
// the (bench, input, variant, machine) tuples the experiment code
// deals in.
type Lab struct {
	// Scale is the workload size multiplier for every run.
	Scale float64
	// Thresholds are the compiler's §4.2.2 conversion thresholds
	// (ext-thresholds sweeps them on copies of the lab).
	Thresholds compiler.Thresholds
	// Sched executes and caches the runs; configure Sched.Workers,
	// Sched.Store, and Sched.Log for parallelism, persistence, and
	// progress reporting.
	Sched *lab.Lab
}

// NewLab returns a lab with default scale and thresholds and a
// default scheduler (no persistent store).
func NewLab() *Lab {
	return &Lab{
		Scale:      workload.DefaultScale,
		Thresholds: compiler.DefaultThresholds(),
		Sched:      lab.New(),
	}
}

// Spec builds the full simulation spec for one run. Compiler
// thresholds only affect the wish variants, so non-wish specs are
// normalized to the defaults — a threshold sweep re-uses the cached
// baseline runs instead of re-simulating them per sweep point.
func (l *Lab) Spec(bench string, in workload.Input, v compiler.Variant, m *config.Machine) lab.Spec {
	thr := l.Thresholds
	if v != compiler.WishJumpJoin && v != compiler.WishJumpJoinLoop {
		thr = compiler.DefaultThresholds()
	}
	return lab.Spec{
		Bench:      bench,
		Input:      in,
		Variant:    v,
		Machine:    m,
		Scale:      l.Scale,
		Thresholds: thr,
	}
}

// Result simulates one (benchmark, input, variant, machine)
// combination or returns the cached result.
func (l *Lab) Result(bench string, in workload.Input, v compiler.Variant, m *config.Machine) (*cpu.Result, error) {
	return l.Sched.Result(l.Spec(bench, in, v, m))
}

// Warm acquires a batch of runs in parallel (bounded by
// Sched.Workers) before a serial render pass.
func (l *Lab) Warm(specs []lab.Spec) { l.Sched.Warm(specs) }

// Norm returns execution time of (v, m) normalized to the normal-branch
// binary on machine base (the paper normalizes everything to the normal
// binary of the same machine).
func (l *Lab) Norm(bench string, in workload.Input, v compiler.Variant, m, base *config.Machine) (float64, error) {
	r, err := l.Result(bench, in, v, m)
	if err != nil {
		return 0, err
	}
	ref, err := l.Result(bench, in, compiler.NormalBranch, base)
	if err != nil {
		return 0, err
	}
	return float64(r.Cycles) / float64(ref.Cycles), nil
}

// BenchNames returns the nine benchmark names in the paper's order.
func BenchNames() []string {
	var names []string
	for _, b := range workload.All() {
		names = append(names, b.Name)
	}
	return names
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Runs lists every run the experiment's tables read, so a scheduler
	// can batch it (or the union of several experiments) across
	// workers. Nil means the experiment needs no simulations.
	Runs func(l *Lab) []lab.Spec
	// Run renders the table or figure. It reads every simulation
	// through l serially, so its output does not depend on how Runs
	// was scheduled. It warms nothing itself: call the package-level
	// Run, which warms Runs in parallel first, or warm Runs yourself
	// (wishbench warms the union of a campaign's experiments once).
	Run func(l *Lab, w io.Writer) error
}

// Run warms the experiment's declared run-set and renders it.
func Run(e Experiment, l *Lab, w io.Writer) error {
	if e.Runs != nil {
		l.Warm(e.Runs(l))
	}
	return e.Run(l, w)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		simulated("fig1", "Figure 1: predicated vs non-predicated execution time across inputs", fig1),
		simulated("fig2", "Figure 2: overhead decomposition of predicated execution (oracle study)", fig2),
		{"table1", "Table 1: prediction of multiple wish branches in complex control flow", nil, table1},
		{"table2", "Table 2: baseline processor configuration", nil, table2},
		{"table3", "Table 3: binary variants per benchmark (static inventory)", nil, table3},
		simulated("table4", "Table 4: simulated benchmark characteristics", table4),
		simulated("fig10", "Figure 10: performance of wish jump/join binaries", fig10),
		simulated("fig11", "Figure 11: dynamic wish branches per 1M µops by confidence", fig11),
		simulated("fig12", "Figure 12: performance of wish jump/join/loop binaries", fig12),
		simulated("fig13", "Figure 13: dynamic wish loops per 1M µops by confidence and exit class", fig13),
		simulated("table5", "Table 5: wish binary vs best-performing binary per benchmark", table5),
		simulated("fig14", "Figure 14: sensitivity to instruction window size (128/256/512)", fig14),
		simulated("fig15", "Figure 15: sensitivity to pipeline depth (10/20/30)", fig15),
		simulated("fig16", "Figure 16: wish branches on a select-µop processor", fig16),
		simulated("ext-loop-pred", "Extension (§7 future work): biased trip-count wish-loop predictor", extLoopPredictor),
		simulated("ext-confidence", "Extension (§7 future work): confidence estimator design sweep", extConfidence),
		simulated("ext-thresholds", "Extension (§7 future work): compiler N/L threshold sweep", extThresholds),
		simulated("tune-sens", "Extension: per-workload single-axis tuning headroom (joint search: cmd/wishtune)", tuneSens),
		simulated("obs-stalls", "Observability: stall-taxonomy cycle accounting and top offending branches", obsStalls),
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted in run order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}
