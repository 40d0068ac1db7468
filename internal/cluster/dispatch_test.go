package cluster

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"wishbranch/internal/cpu"
	"wishbranch/internal/serve"
)

// dispatchCoordinator builds a coordinator over fake (never-dialed)
// workers for route-level tests: fn is stubbed, so no HTTP happens.
func dispatchCoordinator(tune func(*Coordinator)) *Coordinator {
	reg := NewRegistry([]string{"http://w1", "http://w2", "http://w3"})
	co := &Coordinator{Registry: reg, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	if tune != nil {
		tune(co)
	}
	return co
}

// TestRouteFailoverMarksDeadAndRehomes: a transport failure at the
// home worker demotes it and lands the retry on the worker that ranks
// next for the key.
func TestRouteFailoverMarksDeadAndRehomes(t *testing.T) {
	co := dispatchCoordinator(nil)
	const key = "shard-key"
	cands := ranked(co.Registry, key)
	home, successor := cands[0], cands[1]

	var tried []string
	var served *Worker
	_, err := co.route(context.Background(), key, func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		tried = append(tried, w.URL)
		if w == home {
			return nil, errors.New("connection refused")
		}
		served = w
		return &cpu.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if served != successor {
		t.Errorf("re-homed to %v, want the next-ranked %s (tried %v)", served, successor.URL, tried)
	}
	if home.Alive() {
		t.Error("failed home worker was not marked dead")
	}
	if co.reroutes.Load() == 0 {
		t.Error("reroute counter did not move")
	}
	if home.errs.Load() != 1 {
		t.Errorf("home worker error counter = %d, want 1", home.errs.Load())
	}
}

// TestRoutePermanent4xxIsNotRetried: a 4xx means the request is wrong;
// the worker stays alive and no retry is burned.
func TestRoutePermanent4xxIsNotRetried(t *testing.T) {
	co := dispatchCoordinator(nil)
	calls := 0
	_, err := co.route(context.Background(), "k", func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		calls++
		return nil, &serve.StatusError{Status: http.StatusUnprocessableEntity, Msg: "bad spec"}
	})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want the 422 back verbatim", err)
	}
	if calls != 1 {
		t.Errorf("fn called %d times for a permanent error, want 1", calls)
	}
	if len(co.Registry.Live()) != 3 {
		t.Error("a permanent request error demoted a worker")
	}
}

// TestRouteBusyAggregatesRetryAfter: 429s are retried in place — the
// worker stays alive and home — and the final error is a 429 carrying
// the maximum Retry-After seen across attempts.
func TestRouteBusyAggregatesRetryAfter(t *testing.T) {
	co := dispatchCoordinator(func(c *Coordinator) { c.Retries = 2 })
	hints := []time.Duration{3 * time.Second, 9 * time.Second, 5 * time.Second}
	calls := 0
	_, err := co.route(context.Background(), "k", func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		h := hints[calls]
		calls++
		return nil, &serve.StatusError{Status: http.StatusTooManyRequests, Msg: "full", RetryAfter: h}
	})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want an aggregated 429", err)
	}
	if se.RetryAfter != 9*time.Second {
		t.Errorf("Retry-After = %v, want the 9s maximum across attempts", se.RetryAfter)
	}
	if calls != 3 {
		t.Errorf("fn called %d times with Retries=2, want 3", calls)
	}
	if len(co.Registry.Live()) != 3 {
		t.Error("a busy worker was demoted — 429 must not mean dead")
	}
}

// TestRouteCancelledAttemptKeepsWorkerLive: a home worker that is
// merely slow holds the request until the caller gives up; the
// cancelled attempt returns the context error and the worker stays
// live (slow is not dead) with no re-route burned.
func TestRouteCancelledAttemptKeepsWorkerLive(t *testing.T) {
	co := dispatchCoordinator(nil)
	const key = "straggler"
	home := co.Registry.home(key)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := co.route(ctx, key, func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		<-ctx.Done() // stalls until the caller's deadline
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context deadline", err)
	}
	if !home.Alive() {
		t.Error("a merely slow worker was marked dead")
	}
	if co.reroutes.Load() != 0 {
		t.Errorf("reroutes = %d, want 0 — a dead request context must not retry", co.reroutes.Load())
	}
}

// TestRouteSlowHomeGetsOneAttempt: a home worker that answers late
// still owns its shard — route keeps exactly one attempt in flight, so
// the next-ranked worker never sees the request.
func TestRouteSlowHomeGetsOneAttempt(t *testing.T) {
	co := dispatchCoordinator(nil)
	const key = "slow-but-answering"
	cands := ranked(co.Registry, key)
	home, successor := cands[0], cands[1]

	want := &cpu.Result{Cycles: 42}
	res, err := co.route(context.Background(), key, func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		if w != home {
			return nil, errors.New("a second attempt ran against the successor")
		}
		time.Sleep(20 * time.Millisecond)
		return want, nil
	})
	if err != nil || res != want {
		t.Fatalf("route = %v, %v, want the home answer", res, err)
	}
	if home.reqs.Load() != 1 || successor.reqs.Load() != 0 {
		t.Errorf("requests: home %d, successor %d — want 1 and 0", home.reqs.Load(), successor.reqs.Load())
	}
}

// TestRouteNoLiveWorkers: no live worker reports ErrNoWorkers.
func TestRouteNoLiveWorkers(t *testing.T) {
	co := dispatchCoordinator(nil)
	for _, w := range co.Registry.Workers() {
		co.Registry.MarkDead(w)
	}
	_, err := co.route(context.Background(), "k", func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		t.Fatal("fn ran with no live workers")
		return nil, nil
	})
	if !errors.Is(err, ErrNoWorkers) {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

// TestRouteExhaustionDrainsRing: every worker fails; route demotes
// them one by one and reports the last failure once none is live.
func TestRouteExhaustionDrainsRing(t *testing.T) {
	co := dispatchCoordinator(func(c *Coordinator) { c.Retries = 10 })
	_, err := co.route(context.Background(), "k", func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		return nil, errors.New("kaboom")
	})
	if err == nil || err.Error() != "kaboom" {
		t.Errorf("err = %v, want the final kaboom", err)
	}
	if live := len(co.Registry.Live()); live != 0 {
		t.Errorf("%d workers still live after total failure, want 0", live)
	}
}

// TestRouteDeadlineAbortsBackoff: a dead request context aborts the
// retry loop mid-backoff instead of burning the whole budget.
func TestRouteDeadlineAbortsBackoff(t *testing.T) {
	co := dispatchCoordinator(func(c *Coordinator) {
		c.Retries = 100
		c.Backoff = 100 * time.Millisecond
		c.MaxBackoff = 100 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := co.route(ctx, "k", func(ctx context.Context, w *Worker) (*cpu.Result, error) {
		return nil, &serve.StatusError{Status: http.StatusTooManyRequests, Msg: "full"}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want the context deadline", err)
	}
}
