package tune

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"wishbranch/internal/stats"
	"wishbranch/internal/workload"
)

// TableSchema versions the tuned-policy table format. Bump it when a
// field is added, removed, or changes meaning; consumers reject tables
// whose schema they do not understand (Validate). The JSON key order
// is part of the format — fields marshal in declaration order, and
// TestTableGolden pins the exact bytes.
const TableSchema = 1

// Table is the tuner's output: one tuned policy per workload, with
// the provenance (seed, scale, population) needed to reproduce it.
type Table struct {
	Schema     int        `json:"schema"`
	Seed       uint64     `json:"seed"`
	Input      string     `json:"input"`
	Scale      float64    `json:"scale"`
	Candidates int        `json:"candidates"`
	Rungs      int        `json:"rungs"`
	Workloads  []Workload `json:"workloads"`
}

// Workload is one tuned row.
type Workload struct {
	Bench     string `json:"bench"`
	Policy    Policy `json:"policy"`
	PolicySig string `json:"policy_sig"`
	// Cycles is the tuned policy's full-scale cycle count;
	// DefaultCycles is the paper's default policy on the same spec.
	Cycles        uint64 `json:"cycles"`
	DefaultCycles uint64 `json:"default_cycles"`
	// Speedup is DefaultCycles/Cycles; always >= 1 (the tuner keeps
	// the default when the search fails to beat it).
	Speedup float64 `json:"speedup"`
	// Evals counts the unique simulations charged to this workload.
	Evals int `json:"evals"`
}

// Validate checks the table against the schema contract, including
// the tuner's non-regression guarantee (Speedup >= 1).
func (t *Table) Validate() error {
	if t.Schema != TableSchema {
		return fmt.Errorf("tune: table schema %d, want %d", t.Schema, TableSchema)
	}
	if len(t.Workloads) == 0 {
		return fmt.Errorf("tune: table has no workloads")
	}
	if err := workload.ValidateScale(t.Scale); err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	for _, w := range t.Workloads {
		if _, ok := workload.ByName(w.Bench); !ok {
			return fmt.Errorf("tune: unknown benchmark %q", w.Bench)
		}
		if err := w.Policy.Validate(); err != nil {
			return fmt.Errorf("tune: %s: %w", w.Bench, err)
		}
		if w.PolicySig != w.Policy.Sig() {
			return fmt.Errorf("tune: %s: signature %q does not match policy %q", w.Bench, w.PolicySig, w.Policy.Sig())
		}
		if w.Cycles == 0 || w.DefaultCycles == 0 {
			return fmt.Errorf("tune: %s: zero cycle count", w.Bench)
		}
		if w.Cycles > w.DefaultCycles {
			return fmt.Errorf("tune: %s: tuned policy regresses (%d > %d cycles)", w.Bench, w.Cycles, w.DefaultCycles)
		}
		if w.Speedup < 1 {
			return fmt.Errorf("tune: %s: speedup %v below 1", w.Bench, w.Speedup)
		}
	}
	return nil
}

// WriteReport renders the results.txt-style text report: one row per
// workload plus the improved count and geometric-mean speedup. The
// output is a pure function of the table.
func (t *Table) WriteReport(w io.Writer) {
	tb := stats.NewTable(
		fmt.Sprintf("Auto-tuned wish-branch policies (input %s, scale %g, seed %d, %d candidates, %d rungs)",
			t.Input, t.Scale, t.Seed, t.Candidates, t.Rungs),
		"bench", "policy", "cycles", "default", "speedup", "evals")
	improved := 0
	logSum := 0.0
	for _, wl := range t.Workloads {
		tb.AddRow(wl.Bench, wl.PolicySig,
			strconv.FormatUint(wl.Cycles, 10),
			strconv.FormatUint(wl.DefaultCycles, 10),
			stats.F(wl.Speedup)+"x",
			strconv.Itoa(wl.Evals))
		if wl.Cycles < wl.DefaultCycles {
			improved++
		}
		logSum += math.Log(wl.Speedup)
	}
	tb.Fprint(w)
	geo := math.Exp(logSum / float64(len(t.Workloads)))
	fmt.Fprintf(w, "\n%d of %d workloads improved over the paper's default policy; geomean speedup %s.\n",
		improved, len(t.Workloads), stats.F(geo))
}
