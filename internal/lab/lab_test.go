package lab

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wishbranch/internal/compiler"
	"wishbranch/internal/cpu"
	"wishbranch/internal/workload"
)

// cheapSpec is small enough that the scheduler tests stay fast even
// when they run it several times.
func cheapSpec() Spec {
	s := testSpec()
	s.Scale = 0.02
	return s
}

func TestLabMemoizes(t *testing.T) {
	l := New()
	r1, err := l.Result(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Result(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical specs were simulated twice")
	}
	c := l.Counters()
	if c.Fresh != 1 || c.MemHits != 1 {
		t.Errorf("counters = %+v, want 1 fresh + 1 memo hit", c)
	}
}

// TestMemoizedResultsStaySmall: the memo table holds results, not
// simulators. Warm a campaign's worth of specs, collect, and bound the
// heap each memoized result keeps live. A result that kept its CPU
// reachable would cost about 3 MB here.
func TestMemoizedResultsStaySmall(t *testing.T) {
	var specs []Spec
	for _, b := range workload.All() {
		for _, v := range []compiler.Variant{compiler.NormalBranch, compiler.BaseMax, compiler.WishJumpJoinLoop} {
			s := cheapSpec()
			s.Bench, s.Variant = b.Name, v
			specs = append(specs, s)
		}
	}
	// Build every artifact and data image first: they belong to the
	// process-wide artifact cache, not to the memo table.
	warmup := New()
	warmup.Workers = 1
	warmup.Warm(specs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	l := New()
	l.Workers = 1
	l.Warm(specs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c := l.Counters(); c.Fresh != uint64(len(specs)) || c.Errors != 0 {
		t.Fatalf("counters = %+v, want %d fresh simulations", c, len(specs))
	}
	perResult := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(specs))
	runtime.KeepAlive(l)
	t.Logf("%d specs, %d bytes of live heap per memoized result", len(specs), perResult)
	const bound = 64 << 10
	if perResult > bound {
		t.Errorf("each memoized result keeps %d KiB of heap live, want at most %d KiB", perResult>>10, bound>>10)
	}
}

func TestLabWarmDeduplicates(t *testing.T) {
	l := New()
	l.Workers = 4
	s := cheapSpec()
	l.Warm([]Spec{s, s, s, s, s})
	if c := l.Counters(); c.Fresh != 1 {
		t.Errorf("warm of 5 duplicate specs ran %d simulations, want 1", c.Fresh)
	}
}

func TestLabErrorsAreMemoizedAndCounted(t *testing.T) {
	l := New()
	bad := cheapSpec()
	bad.Bench = "nosuch"
	if _, err := l.Result(bad); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := l.Result(bad); err == nil {
		t.Fatal("memoized error lost")
	}
	if c := l.Counters(); c.Errors != 1 {
		t.Errorf("errors = %d, want the failure counted once", c.Errors)
	}
	// Warm must swallow the error (the render pass re-surfaces it).
	l2 := New()
	l2.Warm([]Spec{bad})
	if c := l2.Counters(); c.Errors != 1 {
		t.Errorf("warm errors = %d, want 1", c.Errors)
	}
}

// TestLabContainsPanickingProducer: a Backend that panics fails its
// key, not the process. The panic comes back as the key's error, which
// is memoized and counted; a second request returns it at once instead
// of blocking on an orphaned memo entry; the in-flight gauge is back
// at zero.
func TestLabContainsPanickingProducer(t *testing.T) {
	l := New()
	var calls int
	l.Backend = func(context.Context, Spec) (*cpu.Result, error) {
		calls++
		panic("poison spec")
	}
	s := cheapSpec()
	if _, err := l.ResultContext(context.Background(), s); err == nil || !strings.Contains(err.Error(), "poison spec") {
		t.Fatalf("err = %v, want the panic as the key's error", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := l.ResultContext(ctx, s); err == nil || ctx.Err() != nil {
		t.Fatalf("second request: err = %v (ctx %v), want the memoized error at once", err, ctx.Err())
	}
	if calls != 1 || l.InFlight() != 0 {
		t.Errorf("backend calls = %d, in flight = %d; want 1 and 0", calls, l.InFlight())
	}
	if c := l.Counters(); c.Errors != 1 || c.MemHits != 1 {
		t.Errorf("counters = %+v, want 1 error and 1 memo hit", c)
	}
}

// TestLabWarmStoreServesSecondCampaign is the warm-cache acceptance
// check: a second lab sharing the store directory performs zero fresh
// simulations.
func TestLabWarmStoreServesSecondCampaign(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	specs := []Spec{cheapSpec()}
	{
		s := cheapSpec()
		s.Variant = 2 // BaseDef-class variant; any distinct value works
		specs = append(specs, s)
	}

	l1 := New()
	l1.Store = st
	l1.Workers = 2
	l1.Warm(specs)
	if c := l1.Counters(); c.Fresh != uint64(len(specs)) || c.DiskHits != 0 {
		t.Fatalf("cold campaign counters = %+v, want %d fresh", c, len(specs))
	}

	st2 := openStore(t, dir)
	l2 := New()
	l2.Store = st2
	l2.Warm(specs)
	if c := l2.Counters(); c.Fresh != 0 || c.DiskHits != uint64(len(specs)) {
		t.Errorf("warm campaign counters = %+v, want zero fresh and %d disk hits", c, len(specs))
	}
	// And the served results agree with the cold run's.
	r1, err := l1.Result(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l2.Result(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.RetiredUops != r2.RetiredUops {
		t.Errorf("store round trip changed the result: %d/%d vs %d/%d cycles/µops",
			r1.Cycles, r1.RetiredUops, r2.Cycles, r2.RetiredUops)
	}
}

// TestLabSingleflight: concurrent requests for the same key share one
// simulation.
func TestLabSingleflight(t *testing.T) {
	l := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Result(cheapSpec()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c := l.Counters(); c.Fresh != 1 {
		t.Errorf("%d fresh simulations for one key under concurrency, want 1", c.Fresh)
	}
}

func TestLabProgressLog(t *testing.T) {
	var buf bytes.Buffer
	l := New()
	l.Log = &buf
	if _, err := l.Result(cheapSpec()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1 runs (1 fresh, 0 shared, 0 cached)", "sims/s", "ran", "gzip", "cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line missing %q:\n%s", want, out)
		}
	}
	if s := l.Summary(); !strings.Contains(s, "1 fresh simulations") {
		t.Errorf("summary = %q", s)
	}
}

// TestLabResultsDeterministic: cpu.Result carries no host-side
// measurements (wall-clock moved to the callers), so two fresh runs of
// the same spec must be deeply identical — the property that lets the
// store persist results without any sanitization step.
func TestLabResultsDeterministic(t *testing.T) {
	r1, err := New().Result(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New().Result(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("fresh results differ across runs:\n%+v\nvs\n%+v", r1, r2)
	}
}
