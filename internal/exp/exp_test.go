package exp

import (
	"bytes"
	"strings"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/obs"
	"wishbranch/internal/workload"
)

// testLab returns a lab running the workloads at a reduced scale so
// the suite stays fast.
func testLab(scale float64) *Lab {
	l := NewLab()
	l.Scale = scale
	return l
}

func TestLabCachesResults(t *testing.T) {
	l := testLab(0.05)
	m := config.DefaultMachine()
	r1, err := l.Result("gzip", workload.InputA, compiler.NormalBranch, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Result("gzip", workload.InputA, compiler.NormalBranch, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical runs not cached")
	}
	// A different machine config is a different cache entry.
	m2 := m.WithWindow(128)
	r3, err := l.Result("gzip", workload.InputA, compiler.NormalBranch, m2)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different configs shared a cache entry")
	}
}

func TestLabUnknownBenchmark(t *testing.T) {
	l := NewLab()
	if _, err := l.Result("nosuch", workload.InputA, compiler.NormalBranch, config.DefaultMachine()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNormIsRelative(t *testing.T) {
	l := testLab(0.05)
	m := config.DefaultMachine()
	n, err := l.Norm("parser", workload.InputA, compiler.NormalBranch, m, m)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1.0 {
		t.Errorf("normal binary normalized to itself = %v", n)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 19 {
		t.Errorf("%d experiments, want 19 (every paper table and figure + 4 extensions + obs-stalls)", len(ids))
	}
	for _, id := range []string{"fig1", "fig2", "table1", "table2", "table3",
		"table4", "fig10", "fig11", "fig12", "fig13", "table5", "fig14", "fig15", "fig16",
		"tune-sens", "obs-stalls"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("ByID accepted an unknown id")
	}
}

// TestFastExperimentsProduceOutput runs the cheap experiments end to end
// at a small scale and sanity-checks their rendered output.
func TestFastExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := testLab(0.05)
	for _, id := range []string{"table1", "table2", "table3", "fig2", "fig11", "fig13", "table5"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		var buf bytes.Buffer
		if err := Run(e, l, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if len(out) < 100 {
			t.Errorf("%s: suspiciously short output:\n%s", id, out)
		}
		switch id {
		case "table1":
			for _, want := range []string{"predictor", "not-taken"} {
				if !strings.Contains(out, want) {
					t.Errorf("table1 missing %q:\n%s", want, out)
				}
			}
		case "fig2":
			if !strings.Contains(out, "PERFECT-CBP") || !strings.Contains(out, "AVGnomcf") {
				t.Errorf("fig2 incomplete:\n%s", out)
			}
		case "table5":
			if !strings.Contains(out, "vs best predicated") {
				t.Errorf("table5 incomplete:\n%s", out)
			}
		}
	}
}

// TestObsStallsOutput runs the cycle-accounting experiment end to end
// at a small scale: every bucket of the taxonomy must appear as a
// column, and the per-benchmark shares must sum to ~100% (the rendered
// face of the accounting identity).
func TestObsStallsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := testLab(0.05)
	e, ok := ByID("obs-stalls")
	if !ok {
		t.Fatal("obs-stalls not registered")
	}
	var buf bytes.Buffer
	if err := Run(e, l, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, b := range obs.Buckets() {
		if !strings.Contains(out, b.String()) {
			t.Errorf("output missing bucket column %q", b)
		}
	}
	if !strings.Contains(out, "Top offending branches") {
		t.Error("output missing the branch attribution table")
	}
	// Spot-check the identity on one rendered run.
	r, err := l.Result("gzip", workload.InputA, compiler.WishJumpJoinLoop, config.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range obs.Buckets() {
		sum += r.Share(b)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("bucket shares sum to %v, want 1", sum)
	}
}

// TestFig2OrderingHolds: at a reduced scale, the oracle ordering of
// Figure 2 must hold on average: NO-DEPEND+NO-FETCH <= NO-DEPEND and
// PERFECT-CBP is the fastest configuration overall.
func TestFig2OrderingHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := testLab(0.05)
	base := config.DefaultMachine()
	noDep := *base
	noDep.NoPredDepend = true
	noFetch := noDep
	noFetch.NoFalseFetch = true
	perfect := *base
	perfect.PerfectBP = true

	var sumD, sumF, sumP, sumB float64
	for _, bench := range BenchNames() {
		b, err := l.Norm(bench, workload.InputA, compiler.BaseMax, base, base)
		if err != nil {
			t.Fatal(err)
		}
		d, err := l.Norm(bench, workload.InputA, compiler.BaseMax, &noDep, base)
		if err != nil {
			t.Fatal(err)
		}
		f, err := l.Norm(bench, workload.InputA, compiler.BaseMax, &noFetch, base)
		if err != nil {
			t.Fatal(err)
		}
		p, err := l.Norm(bench, workload.InputA, compiler.NormalBranch, &perfect, base)
		if err != nil {
			t.Fatal(err)
		}
		sumB += b
		sumD += d
		sumF += f
		sumP += p
	}
	if sumD > sumB {
		t.Errorf("NO-DEPEND (%.2f) slower than BASE-MAX (%.2f) on average", sumD, sumB)
	}
	if sumF > sumD*1.02 {
		t.Errorf("NO-FETCH (%.2f) slower than NO-DEPEND (%.2f) on average", sumF, sumD)
	}
	if sumP > sumF {
		t.Errorf("PERFECT-CBP (%.2f) slower than NO-DEPEND+NO-FETCH (%.2f)", sumP, sumF)
	}
}
