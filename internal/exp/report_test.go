package exp

import (
	"context"
	"io"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

// TestRunsCoverRender checks that every simulating experiment renders
// from exactly the runs it declares: after Warm(e.Runs(l)), e.Run must
// not acquire a single further result. The lab's Backend answers every
// spec with one real pre-simulated result, which passes snapshot
// validation, so the test needs no campaign. It also pins each
// experiment's number of distinct runs and the campaign's, and how
// many of the campaign's runs a Warm shares rather than simulates. A
// declared run is acquired either fresh or as a shared twin of another
// (lab.Lab.Warm), so both count: a render that read an undeclared twin
// of a declared run would still be an acquisition after the Warm.
func TestRunsCoverRender(t *testing.T) {
	src := testLab(0.02)
	res, err := src.Result("gzip", workload.InputA, compiler.WishJumpJoinLoop, config.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"fig1": 54, "fig2": 45, "table4": 18, "fig10": 45, "fig11": 9, "fig12": 54,
		"fig13": 9, "table5": 36, "fig14": 135, "fig15": 135, "fig16": 54,
		"ext-loop-pred": 72, "ext-confidence": 126, "ext-thresholds": 63,
		"tune-sens": 63, "obs-stalls": 27,
	}
	stub := func(context.Context, lab.Spec) (*cpu.Result, error) { return res, nil }
	acquired := func(l *Lab) uint64 { c := l.Sched.Counters(); return c.Fresh + c.Shared }
	campaign := map[string]bool{}
	var all []lab.Spec
	for _, e := range All() {
		if e.Runs == nil {
			continue
		}
		l := testLab(0.02)
		l.Sched.Backend = stub
		specs := e.Runs(l)
		for _, s := range specs {
			campaign[s.Key()] = true
		}
		all = append(all, specs...)
		l.Warm(specs)
		warmed := acquired(l)
		if n, ok := want[e.ID]; !ok || warmed != n {
			t.Errorf("%s declares %d distinct runs, want %d", e.ID, warmed, n)
		}
		delete(want, e.ID)
		if err := e.Run(l, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if n, errs := acquired(l), l.Sched.Counters().Errors; n != warmed || errs != 0 {
			t.Errorf("%s: render acquired %d runs it did not declare (%d errors)", e.ID, n-warmed, errs)
		}
	}
	for id := range want {
		t.Errorf("%s declares no runs", id)
	}
	if len(campaign) != 594 {
		t.Errorf("campaign declares %d distinct runs, want 594", len(campaign))
	}
	l := testLab(0.02)
	l.Sched.Backend = stub
	l.Warm(all)
	if c := l.Sched.Counters(); c.Fresh != 456 || c.Shared != 138 || c.Errors != 0 {
		t.Errorf("the campaign's Warm ran %d and shared %d of its runs (%d errors), want 456 and 138",
			c.Fresh, c.Shared, c.Errors)
	}
}
