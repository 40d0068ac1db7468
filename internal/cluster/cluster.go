// Package cluster scales the simulation service out. A coordinator is
// a serve.Server whose lab simulates on a set of wishsimd workers: it
// speaks the exact /v1/run and /v1/campaign wire API of a single
// worker because it is one, so every existing client — `wishbench
// -server URL` first among them — points at the coordinator and gets a
// cluster without changing a byte. Admission, deadlines, drain, the
// memo table and both response encodings are the single-node code;
// this package owns only key placement, the registry, the route
// ladder, and the cluster views of /healthz and /metrics.
//
// The design leans on one invariant: a simulation result is a pure
// function of its lab.Spec key. That makes sharding an affinity
// optimization rather than a correctness concern — any worker can
// serve any spec, but routing a key to the same worker every time
// keeps that worker's singleflight memo table and persistent store hot
// for its shard. The coordinator therefore places each lab cache key
// on a home worker by rendezvous hashing over the live workers
// (Registry.home) and tracks membership with generation-numbered
// liveness (Registry). Every run, each campaign item included, goes to
// its home worker as one /v1/run, and the server assembles campaign
// answers in request order, so cluster output is byte-identical to a
// single-node run at any worker count and under any failover history.
//
// Robustness is the point:
//
//   - Failover: a worker that fails a request with a transport error
//     or 5xx is marked dead on the spot; the run retries with backoff
//     against the remaining live workers, landing on the one that
//     ranks next for its key. Periodic /healthz probes resurrect
//     workers that heal (and demote ones that die quietly or start
//     draining).
//   - Backpressure: a run whose every route answers 429 is reported as
//     429 with the maximum Retry-After seen — the cluster propagates
//     honest backpressure instead of absorbing it into an unbounded
//     queue.
//   - Healing: routing failures wrap lab.ErrUnavailable, so the
//     coordinator's memo table forgets them and the next request for
//     the key is routed again.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// Defaults for Coordinator knobs left zero.
const (
	DefaultRetries    = 3
	DefaultBackoff    = 50 * time.Millisecond
	DefaultMaxBackoff = 2 * time.Second
)

// Coordinator routes a serve.Server's simulations to a cluster of
// wishsimd workers. Build it with NewCoordinator and configure the
// exported fields before the first request. 429 backpressure from the
// workers passes through. The server's own admission (its Workers and
// QueueDepth) bounds routed runs only when Workers is positive; a
// coordinator's CPU count says nothing about its fleet's capacity, so
// wishsimd leaves it unbounded unless -j is given.
type Coordinator struct {
	// Registry tracks the worker set and its liveness. Required.
	Registry *Registry
	// Retries bounds per-run re-dispatches after the first attempt
	// (< 0 = none, 0 = DefaultRetries).
	Retries int
	// Backoff is the first re-dispatch wait; it doubles per attempt up
	// to MaxBackoff (zero values = 50ms / 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration

	srv      *serve.Server // the front end; its lab's Backend is Run
	reroutes atomic.Uint64
}

// NewCoordinator makes srv a coordinator over reg: it installs Run as
// srv.Lab.Backend, so every result srv's lab does not already hold is
// acquired from the spec's home worker.
func NewCoordinator(reg *Registry, srv *serve.Server) *Coordinator {
	co := &Coordinator{Registry: reg, srv: srv}
	srv.Lab.Backend = co.Run
	return co
}

// Run executes one spec on its home worker through the route ladder;
// it has the lab.Lab.Backend signature. A routing failure comes back
// as the *serve.StatusError the server answers with: a worker's status
// passes through (an exhausted 429 with the largest Retry-After seen),
// no live worker is 503 with a Retry-After of one probe interval plus
// a second, and a ladder that exhausted every route is 502. Each of
// these except a worker's 4xx verdict on the spec also wraps
// lab.ErrUnavailable, so the failure is not memoized. A dead request
// context comes back as is.
func (co *Coordinator) Run(ctx context.Context, spec lab.Spec) (*cpu.Result, error) {
	res, err := co.route(ctx, spec.Key(), func(ctx context.Context, wk *Worker) (*cpu.Result, error) {
		return wk.Client.Run(ctx, spec)
	})
	var se *serve.StatusError
	switch {
	case err == nil:
		return res, nil
	case errors.Is(err, ErrNoWorkers):
		se = &serve.StatusError{
			Status:     http.StatusServiceUnavailable,
			Msg:        err.Error(),
			RetryAfter: co.Registry.probeInterval().Truncate(time.Second) + time.Second,
		}
	case errors.As(err, &se):
		if se.Status < 500 && se.Status != http.StatusTooManyRequests {
			return nil, err // the worker's verdict on the spec
		}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return nil, err
	default:
		se = &serve.StatusError{Status: http.StatusBadGateway, Msg: err.Error()}
	}
	return nil, fmt.Errorf("%w: %w", lab.ErrUnavailable, se)
}

// Handler returns the coordinator's HTTP handler — the same endpoint
// set as a single worker:
//
//	POST /v1/run       one simulation, routed to its home worker
//	POST /v1/campaign  a batch, each item routed to its home worker
//	GET  /healthz      cluster liveness (api.ClusterHealth)
//	GET  /metrics      membership + per-worker counters (api.ClusterMetrics)
//
// The POST endpoints are the server's own handler.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/", co.srv.Handler())
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	return mux
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sm := co.srv.Metrics()
	live := len(co.Registry.Live())
	h := api.ClusterHealth{
		Status:       "ok",
		UptimeSecs:   sm.UptimeSecs,
		Generation:   co.Registry.Generation(),
		LiveWorkers:  live,
		TotalWorkers: len(co.Registry.Workers()),
	}
	status := http.StatusOK
	switch {
	case sm.Draining:
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case live == 0:
		h.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, h)
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sm := co.srv.Metrics()
	workers := co.Registry.Workers()
	m := api.ClusterMetrics{
		Schema:         api.Version,
		UptimeSecs:     sm.UptimeSecs,
		Draining:       sm.Draining,
		Generation:     co.Registry.Generation(),
		LiveWorkers:    len(co.Registry.Live()),
		TotalWorkers:   len(workers),
		Reroutes:       co.reroutes.Load(),
		CheckpointHits: sm.Lab.MemHits,
		Requests:       sm.Requests,
		Responses:      sm.Responses,
	}
	for _, wk := range workers {
		m.Workers = append(m.Workers, api.WorkerStatus{
			URL:      wk.URL,
			Alive:    wk.Alive(),
			Requests: wk.reqs.Load(),
			Errors:   wk.errs.Load(),
		})
	}
	api.WriteJSON(w, http.StatusOK, m)
}
