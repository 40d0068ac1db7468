package cluster

import (
	"context"
	"errors"
	"net/http"
	"time"

	"wishbranch/internal/cpu"
	"wishbranch/internal/serve"
)

// ErrNoWorkers is returned when no worker is live to route to; the
// coordinator answers it with 503 and a Retry-After of one probe
// interval plus a second (the soonest membership can improve).
var ErrNoWorkers = errors.New("cluster: no live workers")

// routable reports whether a failure indicts the worker rather than
// the request: transport errors and 5xx mean "route around this node",
// while 429 means "the node is healthy but full" (back off, stay
// home — moving the run would just cold-miss another cache) and
// other 4xx mean the request itself is wrong.
func routable(err error) bool {
	var se *serve.StatusError
	if !errors.As(err, &se) {
		return true // transport-level: connection refused, reset, dropped
	}
	return se.Status >= 500
}

// route executes fn against key's home worker with the robustness
// ladder: one attempt in flight at a time, the failed worker marked
// dead on a routable failure, and a bounded backoff-retry loop that
// asks Registry.home again each attempt — so a key whose home died
// lands on the live worker that ranks next for it, and goes back once
// the probe resurrects its home.
//
// 429s are aggregated, not routed around: if every attempt ends busy,
// route returns a single 429 carrying the maximum Retry-After seen, so
// the caller propagates honest backpressure instead of masking it.
func (co *Coordinator) route(ctx context.Context, key string, fn func(context.Context, *Worker) (*cpu.Result, error)) (*cpu.Result, error) {
	var lastErr error
	var maxRetryAfter time.Duration
	sawBusy := false
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			co.reroutes.Add(1)
			select {
			case <-time.After(co.backoff(attempt - 1)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		w := co.Registry.home(key)
		if w == nil {
			if sawBusy {
				lastErr = busyErr(maxRetryAfter)
			} else if lastErr == nil {
				lastErr = ErrNoWorkers
			}
			return nil, lastErr
		}
		w.reqs.Add(1)
		res, err := fn(ctx, w)
		if err == nil {
			return res, nil
		}
		w.errs.Add(1)
		if ctx.Err() == nil && routable(err) {
			co.Registry.MarkDead(w)
		}
		lastErr = err
		var se *serve.StatusError
		if errors.As(err, &se) {
			switch {
			case se.Status == http.StatusTooManyRequests:
				sawBusy = true
				if se.RetryAfter > maxRetryAfter {
					maxRetryAfter = se.RetryAfter
				}
			case se.Status < 500:
				// The request is wrong, not the worker: permanent.
				return nil, err
			}
		}
		if attempt >= co.retries() || ctx.Err() != nil {
			break
		}
	}
	if sawBusy {
		return nil, busyErr(maxRetryAfter)
	}
	return nil, lastErr
}

func busyErr(retryAfter time.Duration) error {
	return &serve.StatusError{
		Status:     http.StatusTooManyRequests,
		Msg:        "cluster: every route for this run is at capacity",
		RetryAfter: retryAfter,
	}
}

func (co *Coordinator) retries() int {
	switch {
	case co.Retries < 0:
		return 0
	case co.Retries == 0:
		return DefaultRetries
	}
	return co.Retries
}

// backoff is the re-route wait schedule: exponential from Backoff,
// capped at MaxBackoff. No jitter — a coordinator retries against the
// live set as it stands, not a thundering herd of identical clients.
func (co *Coordinator) backoff(attempt int) time.Duration {
	first, ceiling := co.Backoff, co.MaxBackoff
	if first <= 0 {
		first = DefaultBackoff
	}
	if ceiling <= 0 {
		ceiling = DefaultMaxBackoff
	}
	d := first << attempt
	if d > ceiling || d <= 0 {
		d = ceiling
	}
	return d
}
