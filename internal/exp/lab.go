// Package exp reproduces the paper's evaluation: one runner per table
// and figure (see DESIGN.md's per-experiment index). Simulations are
// scheduled through internal/lab: each experiment declares its run-set
// up front (Experiment.Runs) so whole figures — or whole campaigns —
// can be warmed in parallel and served from the persistent result
// store; rendering then proceeds serially from the warm cache, so the
// output is byte-identical regardless of the worker count.
package exp

import (
	"io"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/stats"
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
	// (swept by ext-thresholds).
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

// avgRows appends the AVG and AVGnomcf rows the paper reports (mcf
// skews the average, footnote 2).
func avgRows(perBench map[string][]float64, cols int, add func(label string, vals []float64)) {
	names := BenchNames()
	all := make([][]float64, cols)
	nomcf := make([][]float64, cols)
	for _, n := range names {
		vals := perBench[n]
		for i := 0; i < cols && i < len(vals); i++ {
			all[i] = append(all[i], vals[i])
			if n != "mcf" {
				nomcf[i] = append(nomcf[i], vals[i])
			}
		}
	}
	avg := make([]float64, cols)
	avgN := make([]float64, cols)
	for i := 0; i < cols; i++ {
		avg[i] = stats.Mean(all[i])
		avgN[i] = stats.Mean(nomcf[i])
	}
	add("AVG", avg)
	add("AVGnomcf", avgN)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	// Runs declares the experiment's full run-set up front, so a
	// scheduler can batch it (or the union of several experiments)
	// across workers. Nil means the experiment needs no simulations.
	Runs func(l *Lab) []lab.Spec
	// Run renders the table or figure. It reads every simulation
	// through l serially, so its output does not depend on how Runs
	// was scheduled. It warms nothing itself: call the package-level
	// Run, which warms Runs in parallel first.
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
		{"fig1", "Figure 1: predicated vs non-predicated execution time across inputs", fig1Runs, Fig1},
		{"fig2", "Figure 2: overhead decomposition of predicated execution (oracle study)", fig2Runs, Fig2},
		{"table1", "Table 1: prediction of multiple wish branches in complex control flow", nil, Table1},
		{"table2", "Table 2: baseline processor configuration", nil, Table2},
		{"table3", "Table 3: binary variants per benchmark (static inventory)", nil, Table3},
		{"table4", "Table 4: simulated benchmark characteristics", table4Runs, Table4},
		{"fig10", "Figure 10: performance of wish jump/join binaries", fig10Runs, Fig10},
		{"fig11", "Figure 11: dynamic wish branches per 1M µops by confidence", fig11Runs, Fig11},
		{"fig12", "Figure 12: performance of wish jump/join/loop binaries", fig12Runs, Fig12},
		{"fig13", "Figure 13: dynamic wish loops per 1M µops by confidence and exit class", fig13Runs, Fig13},
		{"table5", "Table 5: wish binary vs best-performing binary per benchmark", table5Runs, Table5},
		{"fig14", "Figure 14: sensitivity to instruction window size (128/256/512)", fig14Runs, Fig14},
		{"fig15", "Figure 15: sensitivity to pipeline depth (10/20/30)", fig15Runs, Fig15},
		{"fig16", "Figure 16: wish branches on a select-µop processor", fig16Runs, Fig16},
		{"ext-loop-pred", "Extension (§7 future work): biased trip-count wish-loop predictor", extLoopPredRuns, ExtLoopPredictor},
		{"ext-confidence", "Extension (§7 future work): confidence estimator design sweep", extConfidenceRuns, ExtConfidence},
		{"ext-thresholds", "Extension (§7 future work): compiler N/L threshold sweep", extThresholdRuns, ExtThresholds},
		{"tune-sens", "Extension: per-workload single-axis tuning headroom (joint search: cmd/wishtune)", tuneSensRuns, TuneSens},
		{"obs-stalls", "Observability: stall-taxonomy cycle accounting and top offending branches", obsRuns, ObsStalls},
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
