package lab

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"wishbranch/internal/artifact"
	"wishbranch/internal/cpu"
	"wishbranch/internal/workload"
)

// twin returns a spec of the same run as s under another key: a normal
// binary observes neither the NO-DEPEND oracle nor the machine's name.
func twin(s Spec, name string) Spec {
	m := *s.Machine
	m.Name, m.NoPredDepend = name, !m.NoPredDepend
	s.Machine = &m
	return s
}

// TestWarmSharesOneRun: two keys of one run are simulated once, and
// the second still gets its own memo entry, store record and OnResult
// call.
func TestWarmSharesOneRun(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	var mu sync.Mutex
	observed := map[string]*cpu.Result{}
	l := New()
	l.Workers, l.Store, l.Log = 2, st, &log
	l.OnResult = func(k Keyed, r *cpu.Result) {
		mu.Lock()
		defer mu.Unlock()
		if observed[k.Key] != nil {
			t.Errorf("OnResult fired twice for %s", k.Spec)
		}
		observed[k.Key] = r
	}
	a := cheapSpec()
	b := twin(a, "twin")
	if a.Key() == b.Key() {
		t.Fatal("twin has the same key")
	}
	l.Warm([]Spec{a, b})
	if c := l.Counters(); c.Fresh != 1 || c.Shared != 1 || c.Errors != 0 {
		t.Fatalf("counters = %+v, want 1 fresh and 1 shared", c)
	}
	if len(observed) != 2 || observed[a.Key()] == nil || observed[a.Key()] != observed[b.Key()] {
		t.Fatalf("OnResult saw %d keys, want both keys with one result", len(observed))
	}
	ra, _ := l.Result(a)
	rb, _ := l.Result(b)
	if ra == nil || ra != rb {
		t.Fatal("the two keys do not share one memoized result")
	}
	for _, s := range []Spec{a, b} {
		if r := st.Get(s.Key()); r == nil || !bytes.Equal(cpu.AppendResult(nil, r), cpu.AppendResult(nil, ra)) {
			t.Errorf("%s: no store record of the shared result", s)
		}
	}
	if !strings.Contains(log.String(), "shared gzip/input-A/normal/twin") || !strings.Contains(l.Summary(), "1 fresh simulations, 1 shared") {
		t.Errorf("progress or summary does not report the shared run:\n%s%s", log.String(), l.Summary())
	}
}

// TestWarmOwnerIsFirstInBatchOrder: whichever key reaches a worker
// first, the key a Backend is asked for is the first of its run in
// the batch.
func TestWarmOwnerIsFirstInBatchOrder(t *testing.T) {
	var batch []Spec
	for _, b := range workload.All() {
		s := cheapSpec()
		s.Bench = b.Name
		batch = append(batch, s, twin(s, "second"), twin(twin(s, "third"), "third"))
	}
	for round := 0; round < 4; round++ {
		var mu sync.Mutex
		var asked []string
		l := New()
		l.Workers = 8
		l.Backend = func(_ context.Context, s Spec) (*cpu.Result, error) {
			mu.Lock()
			asked = append(asked, s.String())
			mu.Unlock()
			return &cpu.Result{Cycles: 1}, nil
		}
		l.Warm(batch)
		if c := l.Counters(); c.Fresh != 9 || c.Shared != 18 {
			t.Fatalf("round %d: counters = %+v, want 9 fresh and 18 shared", round, c)
		}
		for _, s := range asked {
			if !strings.HasSuffix(s, "/base-512-d30") {
				t.Fatalf("round %d: the backend was asked for %s, not the first key of its run", round, s)
			}
		}
	}
}

// TestWarmFailedOwnerLeavesFollowerAlone: a failed result is not
// shared; the follower is acquired on its own.
func TestWarmFailedOwnerLeavesFollowerAlone(t *testing.T) {
	a := cheapSpec()
	b := twin(a, "twin")
	l := New()
	l.Backend = func(_ context.Context, s Spec) (*cpu.Result, error) {
		if s.Machine.Name != "twin" {
			return nil, errors.New("owner fails")
		}
		return &cpu.Result{Cycles: 1}, nil
	}
	l.Warm([]Spec{a, b})
	if c := l.Counters(); c.Fresh != 1 || c.Shared != 0 || c.Errors != 1 {
		t.Fatalf("counters = %+v, want the owner failed and the follower fresh", c)
	}
	if _, err := l.Result(a); err == nil {
		t.Error("the owner's failure was not memoized")
	}
	if r, err := l.Result(b); err != nil || r.Cycles != 1 {
		t.Errorf("follower: %v, %v; want its own result", r, err)
	}
}

// TestWarmFromFullStoreBuildsNoArtifact: run identities are derived
// only for keys that miss the store, so re-warming a filled store
// compiles nothing.
func TestWarmFromFullStoreBuildsNoArtifact(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := cheapSpec()
	specs := []Spec{a, twin(a, "twin")}
	fill := New()
	fill.Store = st
	fill.Warm(specs)
	artifact.Reset()
	before := artifact.Len()
	l := New()
	l.Store = st
	l.Warm(specs)
	if c := l.Counters(); c.DiskHits != 2 || c.Fresh != 0 || c.Shared != 0 {
		t.Fatalf("counters = %+v, want 2 store hits", c)
	}
	if n := artifact.Len(); n != before {
		t.Errorf("warming a full store built %d artifacts", n-before)
	}
}
