// Package serve turns the simulator into a long-lived service: an HTTP
// daemon (cmd/wishsimd) that executes simulation and campaign requests
// through one shared lab.Lab, so the singleflight memo table and the
// persistent result store finally outlive a single CLI invocation and
// are shared across every client.
//
// The robustness surface is the point of the package:
//
//   - Admission control: a bounded worker pool with a bounded queue.
//     Work beyond workers+queue is rejected immediately with 429 and a
//     Retry-After hint — the server sheds load instead of building an
//     unbounded backlog.
//   - Deadlines: each request carries an optional timeout, capped by
//     the server; the deadline propagates via context through
//     lab.ResultContext into the simulator's cycle loop
//     (cpu.RunContext), so an abandoned request stops burning CPU.
//   - Graceful drain: Drain flips the server into a mode where new
//     simulations are refused with 503 while every admitted request
//     runs to completion, bounded by a drain deadline. /healthz
//     reports "draining" so load balancers stop routing first.
//   - Observability: /metrics exports request/response counts, queue
//     occupancy, the lab's cache counters (hit ratio included), and
//     per-bucket stall-cycle totals aggregated over served results.
//   - Deterministic fault injection: an optional hook fails, drops, or
//     delays exactly the Nth request, so retry and drain paths are
//     testable without flakes (see Fault).
//
// serve.Client is the matching client: retries with exponential
// backoff and seeded jitter on transport errors, 429, and 5xx, honours
// Retry-After, and plugs directly into lab.Lab.Backend so wishbench
// can run whole campaigns against a remote server (-server URL).
//
// A cluster coordinator (internal/cluster) is this same Server: its
// lab's Backend routes each run to a worker, and a Backend's
// *StatusError sets the status the server answers with.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
)

// Defaults for Server knobs left zero.
const (
	DefaultQueueDepth = 256
	DefaultMaxTimeout = 10 * time.Minute
	defaultRetryAfter = 1  // seconds, the hint when no latency has been observed yet
	maxRetryAfter     = 60 // seconds, ceiling of the queue-drain estimate
	// latencyWindow is how many recent run latencies feed the
	// Retry-After estimator.
	latencyWindow = 32
)

// Server executes simulation requests through one shared lab.Lab.
// Configure the exported fields before the first request; the zero
// values give NumCPU workers, a 256-deep queue, and a 10-minute
// per-request ceiling.
type Server struct {
	// Lab executes and caches runs. Required. Configure Lab.Store for
	// persistence; the memo table and store are shared by all clients
	// of this server — that sharing is the reason the daemon exists.
	Lab *lab.Lab
	// Workers bounds concurrently executing simulations (0 means
	// runtime.NumCPU()). Negative means no bound: every admitted run
	// executes at once and QueueDepth is moot. That is a coordinator's
	// default, whose runs execute on workers that shed their own load.
	Workers int
	// QueueDepth bounds admitted-but-not-yet-running work beyond the
	// worker pool. Admissions past Workers+QueueDepth answer 429
	// with a Retry-After hint (0 means DefaultQueueDepth, negative
	// means no queue at all; campaign batches count one admission per
	// spec, so the queue must be at least as deep as the largest batch).
	QueueDepth int
	// MaxTimeout caps the per-request deadline a client may ask for
	// and is the default when a request carries none (<= 0 means
	// DefaultMaxTimeout).
	MaxTimeout time.Duration
	// Fault, when non-nil, is the deterministic fault-injection hook.
	Fault *Fault
	// Log, when non-nil, receives one line per rejected or faulted
	// request.
	Log io.Writer

	once     sync.Once
	slots    chan struct{}
	pending  atomic.Int64
	draining atomic.Bool
	inflight sync.WaitGroup
	started  time.Time

	mu     sync.Mutex
	reqs   map[string]uint64
	resps  map[string]uint64
	stalls [obs.NumBuckets]uint64
	// lat is a ring of the most recent run latencies (memo hits
	// included — a mostly-cached workload drains its queue fast, and
	// the Retry-After estimate should say so).
	lat    [latencyWindow]time.Duration
	latN   int // occupied entries of lat
	latIdx int // next write position
}

func (s *Server) init() {
	s.once.Do(func() {
		if s.Workers == 0 {
			s.Workers = runtime.NumCPU()
		}
		if s.QueueDepth == 0 {
			s.QueueDepth = DefaultQueueDepth
		} else if s.QueueDepth < 0 {
			s.QueueDepth = 0
		}
		if s.MaxTimeout <= 0 {
			s.MaxTimeout = DefaultMaxTimeout
		}
		if s.Workers > 0 {
			s.slots = make(chan struct{}, s.Workers)
		}
		s.started = time.Now()
		s.reqs = make(map[string]uint64)
		s.resps = make(map[string]uint64)
	})
}

// Handler returns the daemon's HTTP handler:
//
//	POST /v1/run       one simulation        (RunRequest → RunResponse)
//	POST /v1/campaign  a batch               (CampaignRequest → CampaignResponse)
//	GET  /healthz      liveness + drain state (Health)
//	GET  /metrics      counters               (Metrics)
func (s *Server) Handler() http.Handler {
	s.init()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Drain puts the server into drain mode — new simulation requests are
// refused with 503, /healthz flips to "draining" — and waits until
// every admitted request has completed, or ctx expires (the drain
// deadline), whichever comes first. It is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.init()
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain deadline passed with %d requests still pending: %w",
			s.pending.Load(), ctx.Err())
	}
}

// admit reserves n units of queue capacity and registers the request
// with the drain tracker. It returns a release func on success, or an
// HTTP status (429 or 503) on rejection. The order — inflight.Add,
// then the draining check — closes the race against Drain: a request
// that saw draining==false has its Add sequenced before Drain's Wait,
// so drain never abandons an admitted request.
func (s *Server) admit(n int) (release func(), status int) {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		return nil, http.StatusServiceUnavailable
	}
	if p := s.pending.Add(int64(n)); s.Workers > 0 && p > int64(s.Workers+s.QueueDepth) {
		s.pending.Add(int64(-n))
		s.inflight.Done()
		return nil, http.StatusTooManyRequests
	}
	return func() {
		s.pending.Add(int64(-n))
		s.inflight.Done()
	}, 0
}

// execute runs one keyed spec through the worker pool under ctx. The
// caller computes the Keyed form once per request item; every memo and
// store probe downstream reuses it.
func (s *Server) execute(ctx context.Context, k lab.Keyed) (*cpu.Result, error) {
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		defer func() { <-s.slots }()
	}
	t0 := time.Now()
	res, err := s.Lab.ResultKeyed(ctx, k)
	if err == nil {
		s.mu.Lock()
		for b, n := range res.Acct.Buckets {
			s.stalls[b] += n
		}
		s.lat[s.latIdx] = time.Since(t0)
		s.latIdx = (s.latIdx + 1) % latencyWindow
		if s.latN < latencyWindow {
			s.latN++
		}
		s.mu.Unlock()
	}
	return res, err
}

// meanRunLatency averages the recent-latency ring (zero before the
// first completed run).
func (s *Server) meanRunLatency() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latN == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.lat[:s.latN] {
		sum += d
	}
	return sum / time.Duration(s.latN)
}

// retryAfterHint estimates, in whole seconds, how long a shed client
// should wait before retrying: the time for the current backlog to
// drain through the worker pool (pending runs × recent mean run
// latency ÷ workers; one mean latency when nothing bounds the pool),
// clamped to [defaultRetryAfter, maxRetryAfter].
// Before any run has completed there is no latency signal and the
// hint falls back to defaultRetryAfter.
func (s *Server) retryAfterHint() int {
	mean := s.meanRunLatency()
	if mean <= 0 {
		return defaultRetryAfter
	}
	drain := mean
	if s.Workers > 0 {
		drain = time.Duration(s.pending.Load()) * mean / time.Duration(s.Workers)
	}
	secs := int((drain + time.Second - 1) / time.Second)
	if secs < defaultRetryAfter {
		return defaultRetryAfter
	}
	if secs > maxRetryAfter {
		return maxRetryAfter
	}
	return secs
}

// timeout resolves a request's deadline: the client's ask, capped by
// the server's ceiling; the ceiling itself when the client asked for
// nothing.
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > s.MaxTimeout {
		return s.MaxTimeout
	}
	return d
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.count("run")
	var req api.RunRequest
	if err := api.DecodeRequest(w, r, &req, &req.Schema); err != nil {
		s.reject(w, http.StatusBadRequest, "serve: "+err.Error())
		return
	}
	if err := req.Spec.Validate(); err != nil {
		s.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	release, status := s.admit(1)
	if status != 0 {
		s.rejectBusy(w, status)
		return
	}
	defer release()
	if !s.injectFault(w) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()
	k := req.Spec.Keyed()
	res, err := s.execute(ctx, k)
	if err != nil {
		s.rejectRun(w, err)
		return
	}
	if api.AcceptsType(r, api.BinaryContentType) {
		s.writeBinary(w, api.BinaryContentType, api.AppendRunResponse(nil, k.Key, res))
		return
	}
	s.writeJSON(w, http.StatusOK, api.RunResponse{Key: k.Key, Result: res})
}

// writeBinary writes a 200 with a negotiated binary body. Only success
// bodies are ever binary — every rejection stays JSON so clients never
// sniff an error.
func (s *Server) writeBinary(w http.ResponseWriter, contentType string, body []byte) {
	s.countResp(http.StatusOK)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // nothing to do about a dead client
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.count("campaign")
	var req api.CampaignRequest
	if err := api.DecodeRequest(w, r, &req, &req.Schema); err != nil {
		s.reject(w, http.StatusBadRequest, "serve: "+err.Error())
		return
	}
	if len(req.Specs) == 0 {
		s.reject(w, http.StatusBadRequest, "serve: empty campaign")
		return
	}
	keyed := make([]lab.Keyed, len(req.Specs))
	for i, spec := range req.Specs {
		if err := spec.Validate(); err != nil {
			s.reject(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		keyed[i] = spec.Keyed()
	}
	release, status := s.admit(len(req.Specs))
	if status != 0 {
		s.rejectBusy(w, status)
		return
	}
	defer release()
	if !s.injectFault(w) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMs))
	defer cancel()

	// Everything that can reject the whole batch — bad specs, a full
	// queue, drain, an injected fault — has happened above, so a
	// streaming client is past the point where a status code could
	// change. From here every item completes (possibly with a per-item
	// error), and the only remaining batch-level failure is the
	// connection itself dying.
	if api.AcceptsType(r, api.StreamContentType) {
		s.streamCampaign(w, ctx, keyed)
		return
	}

	items := make([]api.CampaignItem, len(keyed))
	s.fanOut(ctx, keyed, func(i int, item *api.CampaignItem) { items[i] = *item })
	s.writeJSON(w, http.StatusOK, api.CampaignResponse{Items: items})
}

// fanOut executes every item of a campaign concurrently (the worker
// slots bound how many simulate at once) and hands each finished item
// to emit with its request index, in completion order. emit runs on
// the item's goroutine. A failed item carries the text /v1/run would
// answer for it: a Backend's *StatusError contributes its message, so
// a coordinator's item says what the worker's item would have said.
func (s *Server) fanOut(ctx context.Context, keyed []lab.Keyed, emit func(i int, item *api.CampaignItem)) {
	var wg sync.WaitGroup
	for i, k := range keyed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			item := api.CampaignItem{Key: k.Key}
			res, err := s.execute(ctx, k)
			var se *StatusError
			switch {
			case errors.As(err, &se):
				item.Err = se.Msg
			case err != nil:
				item.Err = err.Error()
			default:
				item.Result = res
			}
			emit(i, &item)
		}()
	}
	wg.Wait()
}

// streamCampaign answers a campaign with the negotiated stream wire:
// one length-prefixed item frame per simulation, written (and flushed)
// the moment that item completes, in completion order, then the
// terminal count frame. The client reassembles request order from the
// frame indices, so the merged response is byte-identical to the
// buffered JSON path; what changes is latency — the first result
// reaches the client while the slowest is still simulating.
func (s *Server) streamCampaign(w http.ResponseWriter, ctx context.Context, keyed []lab.Keyed) {
	s.countResp(http.StatusOK)
	w.Header().Set("Content-Type", api.StreamContentType)
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var (
		wmu sync.Mutex // serializes frame writes; frames are atomic on the wire
		buf []byte     // frame scratch, reused across items under wmu
	)
	s.fanOut(ctx, keyed, func(i int, item *api.CampaignItem) {
		wmu.Lock()
		defer wmu.Unlock()
		buf = api.AppendStreamItemFrame(buf[:0], i, item)
		w.Write(buf) //nolint:errcheck // a dead client surfaces as stream-cut on its side
		if flusher != nil {
			flusher.Flush()
		}
	})
	w.Write(api.AppendStreamEndFrame(nil, len(keyed))) //nolint:errcheck // see above
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.count("healthz")
	h := api.Health{
		Status:     "ok",
		UptimeSecs: time.Since(s.started).Seconds(),
		Pending:    s.pending.Load(),
		InFlight:   s.Lab.InFlight(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.count("metrics")
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

// Metrics snapshots the /metrics body. A cluster coordinator reads it
// for its own /healthz and /metrics views.
func (s *Server) Metrics() api.Metrics {
	s.init()
	c := s.Lab.Counters()
	m := api.Metrics{
		Schema:         api.Version,
		UptimeSecs:     time.Since(s.started).Seconds(),
		Draining:       s.draining.Load(),
		Workers:        s.Workers,
		QueueDepth:     s.QueueDepth,
		Pending:        s.pending.Load(),
		InFlight:       s.Lab.InFlight(),
		MeanRunMs:      float64(s.meanRunLatency()) / float64(time.Millisecond),
		RetryAfterSecs: s.retryAfterHint(),
		Requests:       make(map[string]uint64),
		Responses:      make(map[string]uint64),
		Lab: api.LabMetrics{
			Fresh:    c.Fresh,
			DiskHits: c.DiskHits,
			MemHits:  c.MemHits,
			Errors:   c.Errors,
			Canceled: c.Canceled,
			HitRatio: c.HitRatio(),
		},
		Stalls: make(map[string]uint64),
	}
	if st := s.Lab.Store; st != nil && st.MaxBytes() > 0 {
		m.Store = &api.StoreMetrics{
			Bytes:     st.Bytes(),
			MaxBytes:  st.MaxBytes(),
			Evictions: st.Evictions(),
		}
	}
	s.mu.Lock()
	for k, v := range s.reqs {
		m.Requests[k] = v
	}
	for k, v := range s.resps {
		m.Responses[k] = v
	}
	for b, n := range s.stalls {
		m.Stalls[obs.Bucket(b).String()] = n
	}
	s.mu.Unlock()
	return m
}

// injectFault applies the configured fault if this admission is the
// chosen one. It reports whether the request should proceed.
func (s *Server) injectFault(w http.ResponseWriter) bool {
	if !s.Fault.hit() {
		return true
	}
	s.logf("serve: injecting fault %s", s.Fault)
	switch s.Fault.Mode {
	case "error":
		s.reject(w, http.StatusInternalServerError, "serve: injected fault")
		return false
	case "drop":
		s.countResp(0) // recorded as "dropped" in metrics
		panic(http.ErrAbortHandler)
	case "delay":
		time.Sleep(s.Fault.Delay)
	}
	return true
}

// rejectRun answers a failed run. A *StatusError from the lab's
// Backend (a coordinator's routing verdict) keeps its status, and on
// 429 and 503 its Retry-After, at least 1 s. Deadline or cancellation
// is 504: the request's time budget ran out. Anything else is 422: the
// spec was well-formed but the simulation failed, e.g. a cycle limit.
func (s *Server) rejectRun(w http.ResponseWriter, err error) {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		if se.Status == http.StatusTooManyRequests || se.Status == http.StatusServiceUnavailable {
			secs := max(1, int(math.Ceil(se.RetryAfter.Seconds())))
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		s.reject(w, se.Status, se.Msg)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.reject(w, http.StatusGatewayTimeout, err.Error())
	default:
		s.reject(w, http.StatusUnprocessableEntity, err.Error())
	}
}

func (s *Server) reject(w http.ResponseWriter, status int, msg string) {
	s.logf("serve: %d %s", status, msg)
	s.writeJSON(w, status, api.ErrorResponse{Error: msg})
}

// rejectBusy answers an admission rejection (429 queue full, 503
// draining) with a Retry-After hint. The 429 hint is the queue-drain
// estimate — how long the current backlog takes to clear — so clients
// back off proportionally to the actual overload instead of hammering
// a fixed one-second cadence. A draining server keeps the minimal
// hint: it is going away, and the client's next try should land on
// whoever replaces it.
func (s *Server) rejectBusy(w http.ResponseWriter, status int) {
	hint := defaultRetryAfter
	if status == http.StatusTooManyRequests {
		hint = s.retryAfterHint()
	}
	w.Header().Set("Retry-After", strconv.Itoa(hint))
	msg := "serve: draining, not accepting new work"
	if status == http.StatusTooManyRequests {
		msg = fmt.Sprintf("serve: queue full (%d pending, capacity %d)",
			s.pending.Load(), s.Workers+s.QueueDepth)
	}
	s.reject(w, status, msg)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.countResp(status)
	api.WriteJSON(w, status, v)
}

func (s *Server) count(endpoint string) {
	s.mu.Lock()
	s.reqs[endpoint]++
	s.mu.Unlock()
}

func (s *Server) countResp(status int) {
	key := "dropped"
	if status != 0 {
		key = strconv.Itoa(status)
	}
	s.mu.Lock()
	s.resps[key]++
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.mu.Lock()
	fmt.Fprintf(s.Log, format+"\n", args...)
	s.mu.Unlock()
}
