// Package cluster scales the simulation service out: a coordinator
// that shards work across N wishsimd workers and speaks the exact
// /v1/run and /v1/campaign wire API of a single worker, so every
// existing client — `wishbench -server URL` first among them — points
// at the coordinator and gets a cluster without changing a byte.
//
// The design leans on one invariant: a simulation result is a pure
// function of its lab.Spec key. That makes sharding an affinity
// optimization rather than a correctness concern — any worker can
// serve any spec, but routing a key to the same worker every time
// keeps that worker's singleflight memo table and persistent store hot
// for its shard. The coordinator therefore consistent-hashes the lab
// cache key onto a ring of workers (Ring), tracks membership with
// generation-numbered liveness (Registry), and merges campaign
// responses back into the original request order, so cluster output is
// byte-identical to a single-node run at any worker count and under
// any failover history.
//
// Robustness is the point:
//
//   - Failover: a worker that fails a request with a transport error
//     or 5xx is marked dead on the spot; the shard retries with
//     backoff against a freshly-resolved ring, landing on the next
//     live node clockwise. Periodic /healthz probes resurrect workers
//     that heal (and demote ones that die quietly or start draining).
//   - Backpressure: a shard whose every route answers 429 is reported
//     as 429 with the maximum Retry-After across shards — the cluster
//     propagates honest backpressure instead of absorbing it into an
//     unbounded queue.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/journal"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// Defaults for Coordinator knobs left zero.
const (
	DefaultRetries    = 3
	DefaultBackoff    = 50 * time.Millisecond
	DefaultMaxBackoff = 2 * time.Second
)

// Coordinator fronts a cluster of wishsimd workers behind the
// single-node wire API. Configure the exported fields before the first
// request. The coordinator itself holds no queue — admission control
// and 429 backpressure live at the workers, and the coordinator
// propagates them — so it stays a thin, stateless router that can
// itself be replicated.
type Coordinator struct {
	// Registry tracks the worker set and its liveness. Required.
	Registry *Registry
	// Retries bounds per-shard re-dispatches after the first attempt
	// (< 0 = none, 0 = DefaultRetries).
	Retries int
	// Backoff is the first re-dispatch wait; it doubles per attempt up
	// to MaxBackoff (zero values = 50ms / 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxTimeout caps the per-request deadline a client may ask for
	// and is the default when a request carries none (<= 0 means
	// serve.DefaultMaxTimeout).
	MaxTimeout time.Duration
	// Log, when non-nil, receives one line per rejection and per
	// checkpoint write failure.
	Log io.Writer
	// Journal, when non-nil, checkpoints merge progress: every result
	// merged from a worker is journaled (fsync'd) before the response
	// carries it, and a restarted coordinator seeded from the replayed
	// journal (SeedCheckpoint) answers those items from the checkpoint
	// and re-dispatches only the unfinished remainder of a re-submitted
	// campaign. Results being pure functions of their keys is what makes
	// a checkpointed answer indistinguishable from a re-dispatched one.
	Journal *journal.Journal

	once     sync.Once
	started  time.Time
	draining atomic.Bool
	inflight sync.WaitGroup
	reroutes atomic.Uint64
	ckptHits atomic.Uint64

	ckptMu sync.Mutex
	ckpt   map[string]*cpu.Result

	mu    sync.Mutex
	reqs  map[string]uint64
	resps map[string]uint64
}

func (co *Coordinator) init() {
	co.once.Do(func() {
		if co.Retries == 0 {
			co.Retries = DefaultRetries
		}
		if co.Backoff <= 0 {
			co.Backoff = DefaultBackoff
		}
		if co.MaxBackoff <= 0 {
			co.MaxBackoff = DefaultMaxBackoff
		}
		if co.MaxTimeout <= 0 {
			co.MaxTimeout = serve.DefaultMaxTimeout
		}
		co.started = time.Now()
		co.reqs = make(map[string]uint64)
		co.resps = make(map[string]uint64)
		co.ckpt = make(map[string]*cpu.Result)
	})
}

// SeedCheckpoint pre-populates the merge checkpoint with a result
// replayed from the coordinator's journal. Call before serving.
func (co *Coordinator) SeedCheckpoint(key string, r *cpu.Result) {
	co.init()
	co.ckptMu.Lock()
	co.ckpt[key] = r
	co.ckptMu.Unlock()
}

// checkpointGet returns the checkpointed result for key, nil when the
// coordinator runs without a journal or has not merged key yet.
func (co *Coordinator) checkpointGet(key string) *cpu.Result {
	if co.Journal == nil {
		return nil
	}
	co.ckptMu.Lock()
	defer co.ckptMu.Unlock()
	return co.ckpt[key]
}

// checkpointPut journals a freshly merged result and adds it to the
// in-memory checkpoint. Journal failures are logged, not fatal — the
// campaign still completes, it just stops being resumable from here.
func (co *Coordinator) checkpointPut(key string, r *cpu.Result) {
	if co.Journal == nil {
		return
	}
	if err := co.Journal.Append(key, r); err != nil {
		co.logf("cluster: checkpoint: %v", err)
	}
	co.ckptMu.Lock()
	co.ckpt[key] = r
	co.ckptMu.Unlock()
}

func (co *Coordinator) retries() int {
	if co.Retries < 0 {
		return 0
	}
	return co.Retries
}

// Handler returns the coordinator's HTTP handler — the same endpoint
// set as a single worker:
//
//	POST /v1/run       one simulation, routed to its home worker
//	POST /v1/campaign  a batch, split into per-worker shards and merged
//	GET  /healthz      cluster liveness (Health)
//	GET  /metrics      ring state + per-worker counters (Metrics)
func (co *Coordinator) Handler() http.Handler {
	co.init()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", co.handleRun)
	mux.HandleFunc("POST /v1/campaign", co.handleCampaign)
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	return mux
}

// Drain refuses new requests with 503 and waits for in-flight ones,
// bounded by ctx. Same contract as serve.Server.Drain.
func (co *Coordinator) Drain(ctx context.Context) error {
	co.init()
	co.draining.Store(true)
	done := make(chan struct{})
	go func() {
		co.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain deadline passed with requests still in flight: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (co *Coordinator) Draining() bool { return co.draining.Load() }

// admit registers a request with the drain tracker (Add before the
// draining check, same race-closing order as serve.Server.admit).
func (co *Coordinator) admit() (release func(), ok bool) {
	co.inflight.Add(1)
	if co.draining.Load() {
		co.inflight.Done()
		return nil, false
	}
	return func() { co.inflight.Done() }, true
}

func (co *Coordinator) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > co.MaxTimeout {
		return co.MaxTimeout
	}
	return d
}

func (co *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	co.count("run")
	var req api.RunRequest
	if err := api.DecodeRequest(w, r, &req, &req.Schema); err != nil {
		co.reject(w, http.StatusBadRequest, "cluster: "+err.Error())
		return
	}
	if err := req.Spec.Validate(); err != nil {
		co.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	release, ok := co.admit()
	if !ok {
		co.rejectDraining(w)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), co.timeout(req.TimeoutMs))
	defer cancel()

	res, err := co.run(ctx, req.Spec)
	if err != nil {
		co.rejectErr(w, err)
		return
	}
	co.writeJSON(w, http.StatusOK, api.RunResponse{Key: req.Spec.Key(), Result: res})
}

// run executes one spec through the cluster: checkpoint first, then
// routed to the spec's home worker with the usual retry ladder.
func (co *Coordinator) run(ctx context.Context, spec lab.Spec) (*cpu.Result, error) {
	k := spec.Keyed()
	if res := co.checkpointGet(k.Key); res != nil {
		co.ckptHits.Add(1)
		return res, nil
	}
	v, err := co.route(ctx, k.Key, func(ctx context.Context, wk *Worker) (any, error) {
		res, rerr := wk.Client.Run(ctx, spec)
		if rerr != nil {
			return nil, rerr
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	res := v.(*cpu.Result)
	co.checkpointPut(k.Key, res)
	return res, nil
}

func (co *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	co.count("campaign")
	var req api.CampaignRequest
	if err := api.DecodeRequest(w, r, &req, &req.Schema); err != nil {
		co.reject(w, http.StatusBadRequest, "cluster: "+err.Error())
		return
	}
	if len(req.Specs) == 0 {
		co.reject(w, http.StatusBadRequest, "cluster: empty campaign")
		return
	}
	for i, spec := range req.Specs {
		if err := spec.Validate(); err != nil {
			co.reject(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
	}
	release, ok := co.admit()
	if !ok {
		co.rejectDraining(w)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), co.timeout(req.TimeoutMs))
	defer cancel()

	items, err := co.campaign(ctx, req.Specs)
	if err != nil {
		co.rejectErr(w, err)
		return
	}
	co.writeJSON(w, http.StatusOK, api.CampaignResponse{Items: items})
}

// campaign splits the batch into per-worker shards by each spec's home
// on the ring, dispatches the shards concurrently (each with its own
// retry ladder), and merges the answers back into request order.
// The merge is positional — shard results carry their original
// indices — so the response is byte-identical to a single worker's
// regardless of sharding, membership changes, or failover history.
//
// A shard that exhausts its routes leaves per-item errors (a failed
// shard does not fail the batch, matching single-worker campaign
// semantics), with one exception: a shard shed with 429 rejects the
// whole batch with 429 and the maximum Retry-After across shards,
// because the batch-admitted-whole contract means "come back later",
// not "here is half your campaign".
func (co *Coordinator) campaign(ctx context.Context, specs []lab.Spec) ([]api.CampaignItem, error) {
	items := make([]api.CampaignItem, len(specs))
	keyed := make([]lab.Keyed, len(specs))
	for i := range specs {
		// One key computation per campaign item: the ring placement,
		// the shard's worker-side key cross-check, and the response all
		// reuse the cached form.
		keyed[i] = specs[i].Keyed()
		items[i].Key = keyed[i].Key
	}

	// Checkpointed items answer from the merge journal without touching
	// a worker: after a coordinator restart, a re-submitted campaign
	// re-dispatches only its unfinished suffix.
	done := make([]bool, len(specs))
	remaining := 0
	for i := range keyed {
		if res := co.checkpointGet(keyed[i].Key); res != nil {
			items[i].Result = res
			done[i] = true
			co.ckptHits.Add(1)
		} else {
			remaining++
		}
	}
	if remaining == 0 {
		return items, nil
	}

	ring := co.Registry.Ring()
	if ring.Empty() {
		return nil, ErrNoWorkers
	}
	shards := make(map[*Worker][]int)
	for i := range keyed {
		if done[i] {
			continue
		}
		home := ring.Lookup(keyed[i].Key, 1)[0]
		shards[home] = append(shards[home], i)
	}

	var (
		wg            sync.WaitGroup
		mu            sync.Mutex
		maxRetryAfter time.Duration
		anyBusy       bool
	)
	for _, idxs := range shards {
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			sub := make([]lab.Spec, len(idxs))
			for j, idx := range idxs {
				sub[j] = specs[idx]
			}
			// The shard goes out as a streaming campaign: the worker's
			// items arrive (and merge client-side into shard order) as
			// each simulation finishes instead of after the whole shard.
			v, err := co.route(ctx, keyed[idxs[0]].Key, func(ctx context.Context, wk *Worker) (any, error) {
				return wk.Client.Campaign(ctx, sub)
			})
			if err != nil {
				var se *serve.StatusError
				if errors.As(err, &se) && se.Status == http.StatusTooManyRequests {
					mu.Lock()
					anyBusy = true
					if se.RetryAfter > maxRetryAfter {
						maxRetryAfter = se.RetryAfter
					}
					mu.Unlock()
					return
				}
				for _, idx := range idxs {
					items[idx].Err = err.Error()
				}
				return
			}
			got := v.([]api.CampaignItem)
			for j, idx := range idxs {
				if got[j].Key != keyed[idx].Key {
					items[idx].Err = fmt.Sprintf(
						"cluster: worker computed key %q for a spec with key %q (wire-format skew?)",
						got[j].Key, keyed[idx].Key)
					continue
				}
				items[idx] = got[j]
				if got[j].Result != nil && got[j].Err == "" {
					co.checkpointPut(keyed[idx].Key, got[j].Result)
				}
			}
		}(idxs)
	}
	wg.Wait()
	if anyBusy {
		return nil, busyErr(maxRetryAfter)
	}
	return items, nil
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	co.count("healthz")
	live := len(co.Registry.Live())
	h := api.ClusterHealth{
		Status:       "ok",
		UptimeSecs:   time.Since(co.started).Seconds(),
		Generation:   co.Registry.Generation(),
		LiveWorkers:  live,
		TotalWorkers: len(co.Registry.Workers()),
	}
	status := http.StatusOK
	switch {
	case co.draining.Load():
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	case live == 0:
		h.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	co.writeJSON(w, status, h)
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	co.count("metrics")
	workers := co.Registry.Workers()
	m := api.ClusterMetrics{
		Schema:         api.Version,
		UptimeSecs:     time.Since(co.started).Seconds(),
		Draining:       co.draining.Load(),
		Generation:     co.Registry.Generation(),
		Replicas:       co.Registry.Replicas,
		LiveWorkers:    len(co.Registry.Live()),
		TotalWorkers:   len(workers),
		Reroutes:       co.reroutes.Load(),
		CheckpointHits: co.ckptHits.Load(),
		Requests:       make(map[string]uint64),
		Responses:      make(map[string]uint64),
	}
	if co.Journal != nil {
		frames, resumed := co.Journal.Stats()
		m.Journal = &api.JournalMetrics{Frames: frames, Resumed: resumed}
	}
	if m.Replicas == 0 {
		m.Replicas = DefaultReplicas
	}
	for _, wk := range workers {
		m.Workers = append(m.Workers, api.WorkerStatus{
			URL:      wk.URL,
			Alive:    wk.Alive(),
			Requests: wk.reqs.Load(),
			Errors:   wk.errs.Load(),
		})
	}
	co.mu.Lock()
	for k, v := range co.reqs {
		m.Requests[k] = v
	}
	for k, v := range co.resps {
		m.Responses[k] = v
	}
	co.mu.Unlock()
	co.writeJSON(w, http.StatusOK, m)
}

// rejectErr maps a routing failure to the status the wire API
// promises: worker-reported statuses pass through (with Retry-After
// re-attached to 429/503), an empty ring is 503 with a Retry-After of
// one probe interval, a dead request context is 504, and anything else
// — a shard that exhausted every route — is 502.
func (co *Coordinator) rejectErr(w http.ResponseWriter, err error) {
	var se *serve.StatusError
	switch {
	case errors.Is(err, ErrNoWorkers):
		w.Header().Set("Retry-After", strconv.Itoa(int(co.Registry.probeInterval()/time.Second)+1))
		co.reject(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &se):
		if se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable {
			secs := int(math.Ceil(se.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		co.reject(w, se.Status, se.Msg)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		co.reject(w, http.StatusGatewayTimeout, err.Error())
	default:
		co.reject(w, http.StatusBadGateway, err.Error())
	}
}

func (co *Coordinator) rejectDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	co.reject(w, http.StatusServiceUnavailable, "cluster: draining, not accepting new work")
}

func (co *Coordinator) reject(w http.ResponseWriter, status int, msg string) {
	co.logf("cluster: %d %s", status, msg)
	co.writeJSON(w, status, api.ErrorResponse{Error: msg})
}

func (co *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	co.countResp(status)
	api.WriteJSON(w, status, v)
}

func (co *Coordinator) count(endpoint string) {
	co.mu.Lock()
	co.reqs[endpoint]++
	co.mu.Unlock()
}

func (co *Coordinator) countResp(status int) {
	co.mu.Lock()
	co.resps[strconv.Itoa(status)]++
	co.mu.Unlock()
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.Log == nil {
		return
	}
	co.mu.Lock()
	fmt.Fprintf(co.Log, format+"\n", args...)
	co.mu.Unlock()
}
