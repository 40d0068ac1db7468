package lab

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wishbranch/internal/cpu"
)

// TestLabConcurrentMixedSpecSingleflight: N goroutines hammering an
// overlapping set of specs must produce exactly one fresh simulation
// per unique key — the singleflight property under real contention,
// not just for a single key.
func TestLabConcurrentMixedSpecSingleflight(t *testing.T) {
	specs := []Spec{cheapSpec(), cheapSpec(), cheapSpec()}
	specs[1].Variant = 2  // distinct binary variant
	specs[2].Scale = 0.03 // distinct workload size
	const goroutines = 12
	const rounds = 4

	l := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := specs[(g+r)%len(specs)]
				if _, err := l.Result(s); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	c := l.Counters()
	if c.Fresh != uint64(len(specs)) {
		t.Errorf("%d fresh simulations for %d unique keys, want exactly one each", c.Fresh, len(specs))
	}
	if want := uint64(goroutines*rounds - len(specs)); c.MemHits != want {
		t.Errorf("memo hits = %d, want %d (every non-first request)", c.MemHits, want)
	}
	if l.InFlight() != 0 {
		t.Errorf("in-flight gauge = %d after the campaign, want 0", l.InFlight())
	}
}

// TestLabStoreWriteFailureKeepsResult: a forced store write failure
// (deterministic fault injection, one key only) must not fail the run —
// the result is served from memory — and the unwritten key must be the
// only fresh simulation of a second campaign over the same store.
func TestLabStoreWriteFailureKeepsResult(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	good, bad := cheapSpec(), cheapSpec()
	bad.Variant = 2
	badKey := bad.Key()
	var faults atomic.Uint64
	st.FaultPut = func(key string) error {
		if key == badKey {
			faults.Add(1)
			return errors.New("injected write failure")
		}
		return nil
	}

	l := New()
	l.Store = st
	l.Workers = 2
	l.Warm([]Spec{good, bad})
	if c := l.Counters(); c.Fresh != 2 || c.Errors != 0 {
		t.Fatalf("counters = %+v, want 2 fresh and no errors despite the write fault", c)
	}
	if got := faults.Load(); got != 1 {
		t.Fatalf("fault hook fired %d times, want 1", got)
	}
	// Served from memory within this process.
	if r, err := l.Result(bad); err != nil || r == nil {
		t.Fatalf("faulted result not kept in memory: %v", err)
	}

	// A second campaign over the same store: only the unwritten key is
	// re-simulated.
	st2 := openStore(t, dir)
	l2 := New()
	l2.Store = st2
	l2.Warm([]Spec{good, bad})
	if c := l2.Counters(); c.Fresh != 1 || c.DiskHits != 1 {
		t.Errorf("second campaign counters = %+v, want 1 fresh (the faulted key) + 1 disk hit", c)
	}
}

// blockingBackend returns a Lab backend that parks every call until
// release is closed (or the caller's context fires), so tests can hold
// a producer in flight deterministically.
func blockingBackend(release <-chan struct{}, res *cpu.Result) func(context.Context, Spec) (*cpu.Result, error) {
	return func(ctx context.Context, s Spec) (*cpu.Result, error) {
		select {
		case <-release:
			return res, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("backend: %w", ctx.Err())
		}
	}
}

// TestLabResultContextCancelNotMemoized: a cancelled production is
// counted, not memoized — the next request for the same key runs
// fresh and succeeds.
func TestLabResultContextCancelNotMemoized(t *testing.T) {
	release := make(chan struct{})
	want := &cpu.Result{Cycles: 42, Halted: true}
	l := New()
	l.Backend = blockingBackend(release, want)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.ResultContext(ctx, cheapSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := l.Counters(); c.Canceled != 1 || c.Errors != 0 {
		t.Fatalf("counters = %+v, want the cancellation counted as Canceled, not Errors", c)
	}

	close(release)
	r, err := l.Result(cheapSpec())
	if err != nil {
		t.Fatalf("request after cancellation failed: %v", err)
	}
	if r != want {
		t.Error("retry did not reach the backend")
	}
	if c := l.Counters(); c.Fresh != 1 {
		t.Errorf("counters = %+v, want 1 fresh after the retry", c)
	}
}

// TestLabWaiterSurvivesProducerCancel: a waiter with a live context
// attached to a producer that gets cancelled must retry as the new
// producer and return a real result, not inherit the cancellation.
func TestLabWaiterSurvivesProducerCancel(t *testing.T) {
	release := make(chan struct{})
	want := &cpu.Result{Cycles: 7, Halted: true}
	l := New()
	l.Backend = blockingBackend(release, want)

	prodCtx, cancelProd := context.WithCancel(context.Background())
	prodErr := make(chan error, 1)
	go func() {
		_, err := l.ResultContext(prodCtx, cheapSpec())
		prodErr <- err
	}()
	waitFor(t, func() bool { return l.InFlight() == 1 })

	waiterRes := make(chan *cpu.Result, 1)
	go func() {
		r, err := l.ResultContext(context.Background(), cheapSpec())
		if err != nil {
			t.Errorf("waiter inherited the producer's fate: %v", err)
		}
		waiterRes <- r
	}()
	waitFor(t, func() bool {
		c := l.Counters()
		return c.MemHits >= 1
	})

	cancelProd()
	if err := <-prodErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("producer err = %v, want context.Canceled", err)
	}
	// The waiter retries; release lets its own production complete.
	close(release)
	select {
	case r := <-waiterRes:
		if r != want {
			t.Error("waiter's retry returned the wrong result")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never completed after the producer was cancelled")
	}
}

// TestLabWaiterOwnCancel: a waiter whose own context fires while the
// producer is still running returns promptly with the context error;
// the producer is unaffected.
func TestLabWaiterOwnCancel(t *testing.T) {
	release := make(chan struct{})
	want := &cpu.Result{Cycles: 9, Halted: true}
	l := New()
	l.Backend = blockingBackend(release, want)

	prodDone := make(chan *cpu.Result, 1)
	go func() {
		r, err := l.Result(cheapSpec())
		if err != nil {
			t.Error(err)
		}
		prodDone <- r
	}()
	waitFor(t, func() bool { return l.InFlight() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.ResultContext(ctx, cheapSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(release)
	select {
	case r := <-prodDone:
		if r != want {
			t.Error("producer result corrupted by the waiter's cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer never completed")
	}
}

// TestLabBackendPersistsToStore: results acquired through a backend are
// written to the store like local ones, so a remote campaign still
// warms the local cache.
func TestLabBackendPersistsToStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	want := &cpu.Result{Cycles: 11, Halted: true}
	l := New()
	l.Store = st
	l.Backend = func(ctx context.Context, s Spec) (*cpu.Result, error) { return want, nil }
	if _, err := l.Result(cheapSpec()); err != nil {
		t.Fatal(err)
	}
	got := st.Get(cheapSpec().Key())
	if got == nil || got.Cycles != want.Cycles {
		t.Errorf("backend result not persisted: %+v", got)
	}
}

// TestLabBackendUnavailableIsRetried: a Backend error that wraps
// ErrUnavailable says nothing about the spec, so the next request for
// the key calls the backend again; any other Backend error is the
// spec's answer and stays memoized.
func TestLabBackendUnavailableIsRetried(t *testing.T) {
	for _, tc := range []struct {
		name      string
		err       error
		wantCalls int
	}{
		{"unavailable", fmt.Errorf("%w: no live workers", ErrUnavailable), 2},
		{"other", errors.New("spec rejected"), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			l := New()
			l.Backend = func(ctx context.Context, s Spec) (*cpu.Result, error) {
				calls++
				return nil, tc.err
			}
			for i := 0; i < 2; i++ {
				if _, err := l.Result(cheapSpec()); !errors.Is(err, tc.err) {
					t.Fatalf("request %d: err = %v, want %v", i, err, tc.err)
				}
			}
			if calls != tc.wantCalls {
				t.Errorf("backend called %d times for two requests, want %d", calls, tc.wantCalls)
			}
			if c := l.Counters(); c.Errors != uint64(tc.wantCalls) || c.Canceled != 0 {
				t.Errorf("counters = %+v, want %d errors and no cancellations", c, tc.wantCalls)
			}
		})
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
