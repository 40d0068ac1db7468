package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testOptions is a deliberately small search so the whole suite stays
// in the seconds range: one bench, six candidates, two rungs, one
// climb round, half the default full scale.
func testOptions(l *lab.Lab) Options {
	return Options{
		Lab:        l,
		Benches:    []string{"gzip"},
		Input:      workload.InputA,
		Seed:       42,
		Candidates: 6,
		Rungs:      2,
		Scale:      0.5,
		Climb:      1,
	}
}

func TestAxesContainDefaults(t *testing.T) {
	ax := searchAxes()
	c := defaultCandidate(ax) // panics if any axis misses its default
	if got := policyAt(ax, c); got != DefaultPolicy() {
		t.Fatalf("defaultCandidate maps to %+v, want DefaultPolicy %+v", got, DefaultPolicy())
	}
	// Every grid value must be a legal policy: vary one axis at a time
	// over its full range from the default point.
	for i := range ax {
		for j := range ax[i].vals {
			p := c
			p[i] = j
			if err := policyAt(ax, p).Validate(); err != nil {
				t.Errorf("axis %s value %d: %v", ax[i].name, ax[i].vals[j], err)
			}
		}
	}
}

func TestPolicySig(t *testing.T) {
	if got, want := DefaultPolicy().Sig(), "N5-L30-jrs-e512w4h0c4t8-lpoff"; got != want {
		t.Fatalf("default policy sig %q, want %q", got, want)
	}
	p := DefaultPolicy()
	p.LoopPred = 2
	if !strings.HasSuffix(p.Sig(), "-lp2") {
		t.Fatalf("biased-loop-pred sig %q lacks -lp2 suffix", p.Sig())
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy invalid: %v", err)
	}
	p := DefaultPolicy()
	p.LoopPred = 99
	if err := p.Validate(); err == nil {
		t.Fatal("LoopPred=99 accepted")
	}
	p = DefaultPolicy()
	p.Thresholds.WishJump = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero thresholds accepted")
	}
	p = DefaultPolicy()
	p.JRS.Entries = 300
	if err := p.Validate(); err == nil {
		t.Fatal("non-power-of-two estimator accepted")
	}
}

func TestNeighborsStayOnGrid(t *testing.T) {
	ax := searchAxes()
	corner := candidate{} // all-zero indices: half the moves fall off
	for _, nb := range neighbors(ax, corner) {
		for i := range ax {
			if nb[i] < 0 || nb[i] >= len(ax[i].vals) {
				t.Fatalf("neighbor %v leaves axis %s", nb, ax[i].name)
			}
		}
	}
	mid := defaultCandidate(ax)
	if got := len(neighbors(ax, mid)); got == 0 {
		t.Fatal("default candidate has no neighbors")
	}
}

func TestSplitmixDeterministic(t *testing.T) {
	a, b := rng{s: 7}, rng{s: 7}
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("equal seeds diverged")
		}
	}
	// Pin the stream itself: a Go release must not change it.
	r := rng{s: 0}
	if got := r.next(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("splitmix64(0) first output %#x, want 0xe220a8397b1dcdaf", got)
	}
}

// TestTuneDeterministic runs the same search twice against independent
// schedulers and requires byte-identical tables — the contract that
// makes store-warm re-runs free and tables diffable.
func TestTuneDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full searches in -short mode")
	}
	var tables [][]byte
	for i := 0; i < 2; i++ {
		tab, err := Tune(context.Background(), testOptions(lab.New()))
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Validate(); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(tab, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, b)
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatalf("same seed produced different tables:\n%s\n---\n%s", tables[0], tables[1])
	}
}

// TestTuneNeverRegresses pins the fallback contract: every row's tuned
// cycles are at or below the default policy's cycles at full scale.
func TestTuneNeverRegresses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full search in -short mode")
	}
	tab, err := Tune(context.Background(), testOptions(lab.New()))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tab.Workloads {
		if w.Cycles > w.DefaultCycles {
			t.Errorf("%s: tuned %d cycles > default %d", w.Bench, w.Cycles, w.DefaultCycles)
		}
		if w.Evals == 0 {
			t.Errorf("%s: zero evaluations charged", w.Bench)
		}
	}
}

// TestTuneBatchesCampaigns pins the tuner's batching contract:
// evaluations reach the lab as whole batches that its workers run
// concurrently, never one spec at a time, and no spec is simulated
// twice. The backend records how many simulations overlap.
func TestTuneBatchesCampaigns(t *testing.T) {
	var (
		mu          sync.Mutex
		inFlight    int
		peak, calls int
		seen        = make(map[string]bool)
	)
	sched := lab.New()
	sched.Workers = 4
	sched.Backend = func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		mu.Lock()
		calls++
		if k := s.Key(); seen[k] {
			t.Errorf("%s simulated twice", s)
		} else {
			seen[k] = true
		}
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		return s.SimulateContext(ctx)
	}
	if _, err := Tune(context.Background(), testOptions(sched)); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("peak of %d concurrent simulations over %d calls; want batches run across the lab's workers", peak, calls)
	}
}

// TestTuneClimbZeroDoesNotClimb: a zero Climb is "off", as wishtune's
// -climb help says, not the default number of rounds.
func TestTuneClimbZeroDoesNotClimb(t *testing.T) {
	o := testOptions(lab.New())
	o.Scale = 0.05
	o.Climb = 0
	var log bytes.Buffer
	o.Log = &log
	if _, err := Tune(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "rung 2/2") {
		t.Fatalf("log lacks the last halving rung:\n%s", log.String())
	}
	if strings.Contains(log.String(), "climb round") {
		t.Fatalf("Climb 0 climbed:\n%s", log.String())
	}
}

// TestTuneWarmStoreRunsNothingFresh re-runs the search against a warm
// persistent store: determinism means every spec key recurs, so the
// second scheduler must serve everything from disk.
func TestTuneWarmStoreRunsNothingFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping two full searches in -short mode")
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		store, err := lab.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sched := lab.New()
		sched.Store = store
		_, err = Tune(context.Background(), testOptions(sched))
		store.Close()
		if err != nil {
			t.Fatal(err)
		}
		c := sched.Counters()
		if i == 0 && c.Fresh == 0 {
			t.Fatal("cold run simulated nothing")
		}
		if i == 1 && c.Fresh != 0 {
			t.Fatalf("store-warm re-run scheduled %d fresh simulations, want 0", c.Fresh)
		}
	}
}

// TestTableGolden pins the table's exact serialized bytes — field
// names, key order, and indentation are the schema-v1 wire format.
func TestTableGolden(t *testing.T) {
	p := DefaultPolicy()
	p.Thresholds.WishJump = 8
	p.JRS.Threshold = 10
	p.LoopPred = 1
	tab := &Table{
		Schema: TableSchema, Seed: 42, Input: "A", Scale: 1,
		Candidates: 12, Rungs: 3,
		Workloads: []Workload{{
			Bench: "gzip", Policy: p, PolicySig: p.Sig(),
			Cycles: 90000, DefaultCycles: 100000, Speedup: float64(100000) / 90000, Evals: 17,
		}},
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "table.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("table serialization changed; if intentional, bump TableSchema and regenerate with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableValidateRejects(t *testing.T) {
	good := func() *Table {
		p := DefaultPolicy()
		return &Table{
			Schema: TableSchema, Seed: 1, Input: "A", Scale: 1, Candidates: 2, Rungs: 1,
			Workloads: []Workload{{Bench: "gzip", Policy: p, PolicySig: p.Sig(),
				Cycles: 10, DefaultCycles: 10, Speedup: 1, Evals: 1}},
		}
	}
	cases := []struct {
		name   string
		break_ func(*Table)
	}{
		{"wrong schema", func(t *Table) { t.Schema = TableSchema + 1 }},
		{"no workloads", func(t *Table) { t.Workloads = nil }},
		{"unknown bench", func(t *Table) { t.Workloads[0].Bench = "nope" }},
		{"sig mismatch", func(t *Table) { t.Workloads[0].PolicySig = "N1-bogus" }},
		{"regression", func(t *Table) { t.Workloads[0].Cycles = 11 }},
		{"zero cycles", func(t *Table) { t.Workloads[0].Cycles = 0 }},
		{"bad policy", func(t *Table) {
			t.Workloads[0].Policy.JRS.Entries = 7
			t.Workloads[0].PolicySig = t.Workloads[0].Policy.Sig()
		}},
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline table invalid: %v", err)
	}
	for _, tc := range cases {
		tab := good()
		tc.break_(tab)
		if err := tab.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestWriteReport(t *testing.T) {
	p := DefaultPolicy()
	tab := &Table{
		Schema: TableSchema, Seed: 1, Input: "A", Scale: 1, Candidates: 2, Rungs: 1,
		Workloads: []Workload{
			{Bench: "gzip", Policy: p, PolicySig: p.Sig(), Cycles: 90, DefaultCycles: 100, Speedup: 100.0 / 90, Evals: 3},
			{Bench: "mcf", Policy: p, PolicySig: p.Sig(), Cycles: 100, DefaultCycles: 100, Speedup: 1, Evals: 3},
		},
	}
	var buf bytes.Buffer
	tab.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"gzip", "mcf", p.Sig(), "1 of 2 workloads improved", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
