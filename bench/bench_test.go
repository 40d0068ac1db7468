package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestNearestRank(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 1}, {1, 1}, {50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 99); got != 7 {
		t.Errorf("nearestRank of one sample = %v, want 7", got)
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("nearestRank of no samples = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), which an outside script uses on the same
// numbers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 2, 3, 2},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5, 8}, 2, 5.5, 8, 5.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) || !near(median(c.xs), c.med) {
			t.Errorf("quartiles(%v) = %v %v %v, median %v; want %v %v %v, median %v",
				c.xs, q1, q2, q3, median(c.xs), c.q1, c.q2, c.q3, c.med)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, bench's default -seconds = %d", f.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		set  string
		got  []metricDef
		want []metricDef
		max  int
	}{{"end_to_end", f.EndToEnd, endToEnd, 16}, {"per_layer", f.PerLayer, perLayer, 128}} {
		if len(c.got) != len(c.want) || len(c.want) > c.max {
			t.Errorf("%s: BENCHMARK.json has %d metrics, bench reports %d (at most %d allowed)", c.set, len(c.got), len(c.want), c.max)
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, bench reports %+v", c.set, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range workloadNames {
		if !nameRE.MatchString(name) || len(name) > 64 || seen[name] {
			t.Errorf("bad or repeated workload name %q", name)
		}
		seen[name] = true
	}
	seen = map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, bad := range []string{"", "a b", "p99/s", "x\n"} {
		if nameRE.MatchString(bad) {
			t.Errorf("name regex accepts %q", bad)
		}
	}
	for _, d := range endToEnd {
		if d.Bound == 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
	}
	if setup := endToEnd[0]; setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", setup)
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

func TestCompareMetric(t *testing.T) {
	lower := metricDef{Name: "iter_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, scale(steady, 1.08), "ok"},
		{"slower", lower, steady, scale(steady, 1.2), "REGRESSED"},
		{"faster", lower, steady, scale(steady, 0.7), "ok"},
		{"higher-is-better drop", higher, steady, scale(steady, 0.8), "REGRESSED"},
		{"higher-is-better rise", higher, steady, scale(steady, 1.5), "ok"},
		{"noisy", lower, []float64{60, 100, 140, 80, 120}, steady, "unresolved"},
		{"per-layer", metricDef{Name: "cpu.run_s", Better: "lower"}, steady, scale(steady, 3), "-"},
	} {
		if got := compareMetric(c.d, c.a, c.b); got.status != c.want {
			t.Errorf("%s: status %q (delta %.3f, spread %.3f), want %q", c.name, got.status, got.delta, got.spread, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareFiles(t *testing.T) {
	run := func(seed int64, iter float64, digest string) runRecord {
		return runRecord{
			Workload: "warm-campaign", Seed: seed, Digests: map[string]string{"render_sha256": digest},
			Metrics: map[string]metricValue{"iter_p50_ms": {Value: iter, Unit: "ms"}},
		}
	}
	a := outFile{Runs: []runRecord{run(1, 40, "d"), run(2, 41, "d"), run(3, 40.5, "d")}}
	var out strings.Builder
	if !compareFiles(a, outFile{Runs: []runRecord{run(4, 40.2, "d"), run(5, 41, "d")}}, &out) {
		t.Errorf("equal runs compare as a regression:\n%s", out.String())
	}
	out.Reset()
	if compareFiles(a, outFile{Runs: []runRecord{run(4, 52, "d"), run(5, 53, "d")}}, &out) {
		t.Errorf("a 30%% slowdown passes:\n%s", out.String())
	}
	out.Reset()
	if compareFiles(a, outFile{Runs: []runRecord{run(4, 40, "e"), run(5, 40, "d")}}, &out) ||
		!strings.Contains(out.String(), "DIGEST MISMATCH") {
		t.Errorf("differing digests pass:\n%s", out.String())
	}
}

// A single run compares through its own samples; end-to-end metrics
// come only from untraced runs.
func TestValuesOfASingleRunAreItsSamples(t *testing.T) {
	iter := endToEnd[1]
	f := outFile{Runs: []runRecord{{Workload: "w", Metrics: map[string]metricValue{
		iter.Name: {Value: 2, Samples: []float64{1, 2, 3}},
	}}}}
	if got := f.values("w", iter); len(got) != 3 {
		t.Errorf("values = %v, want the run's three samples", got)
	}
	f.Runs = append(f.Runs, f.Runs[0])
	if got := f.values("w", iter); len(got) != 2 || got[0] != 2 {
		t.Errorf("values = %v, want one value per run", got)
	}
	traced := f.Runs[0]
	traced.Trace = true
	f.Runs = append(f.Runs, traced)
	if got := f.values("w", iter); len(got) != 2 {
		t.Errorf("values = %v, want the traced run left out", got)
	}
}

// TestSmokeEveryWorkload runs each workload at scale 0.02 for one
// untraced and one traced iteration, as -trace 1 does.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small campaigns")
	}
	renders := map[string]string{}
	for _, name := range workloadNames {
		cfg := runConfig{
			seed: 7, trace: true, campaignScale: 0.02, hotScale: 0.02,
			setupReps: 1, maxIters: 2,
		}
		var log strings.Builder
		rec, err := runWorkload(name, cfg, &log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed:\n%s", name, rec.Failed, rec.Attempted, log.String())
		}
		for _, set := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range set {
				if _, ok := rec.Metrics[d.Name]; !ok {
					t.Errorf("%s: metric %s missing", name, d.Name)
				}
			}
		}
		for _, d := range endToEnd {
			if rec.Metrics[d.Name].Value <= 0 && runtime.GOOS == "linux" { // CPU time and RSS are Linux-only
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, rec.Metrics[d.Name].Value)
			}
		}
		if d, ok := rec.Digests["render_sha256"]; ok {
			renders[name] = d
		}
		var out strings.Builder
		if err := printResult(&out, rec, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(renders) != 3 || renders["cold-campaign"] != renders["warm-campaign"] ||
		renders["cold-campaign"] != renders["remote-campaign"] {
		t.Errorf("cold, warm and remote campaigns rendered different bytes: %v", renders)
	}
}
