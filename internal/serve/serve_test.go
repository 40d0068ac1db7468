package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

// cheapSpec is a real, fast simulation (gzip at 2% scale) for tests
// that need actual results rather than a scripted backend.
func cheapSpec() lab.Spec {
	return lab.Spec{
		Bench:      "gzip",
		Input:      workload.InputA,
		Variant:    compiler.NormalBranch,
		Machine:    config.DefaultMachine(),
		Scale:      0.02,
		Thresholds: compiler.DefaultThresholds(),
	}
}

// newTestServer wires a Server around l and serves it over httptest.
func newTestServer(t *testing.T, s *Server) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, &Client{Base: ts.URL, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}
}

// scripted returns a backend whose behaviour is keyed by spec scale:
// it parks until release is closed when block is true, errors on
// errScale, and otherwise returns a result derived from the scale so
// ordering is checkable.
func scriptedBackend(block <-chan struct{}, errScale float64) func(context.Context, lab.Spec) (*cpu.Result, error) {
	return func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		if block != nil {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, fmt.Errorf("backend: %w", ctx.Err())
			}
		}
		if errScale != 0 && s.Scale == errScale {
			return nil, errors.New("injected backend failure")
		}
		return &cpu.Result{Cycles: uint64(s.Scale * 1000), Halted: true}, nil
	}
}

// TestServeGoldenByteIdentical is the acceptance golden test: a result
// served over HTTP must be byte-identical (as JSON) to the result of a
// local lab run of the same spec.
func TestServeGoldenByteIdentical(t *testing.T) {
	local, err := lab.New().Result(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, cl := newTestServer(t, &Server{Lab: lab.New()})
	remote, err := cl.Run(context.Background(), cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	lb, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, rb) {
		t.Errorf("remote result differs from local:\n--- local ---\n%s\n--- remote ---\n%s", lb, rb)
	}
}

// TestServeSharedCacheAndMetrics: the second request for a spec is a
// memo hit on the server's shared lab, visible in /metrics as a
// non-zero hit ratio; stall-cycle totals accumulate.
func TestServeSharedCacheAndMetrics(t *testing.T) {
	_, cl := newTestServer(t, &Server{Lab: lab.New()})
	for i := 0; i < 2; i++ {
		if _, err := cl.Run(context.Background(), cheapSpec()); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Lab.Fresh != 1 || m.Lab.MemHits != 1 {
		t.Errorf("lab metrics = %+v, want 1 fresh + 1 memo hit", m.Lab)
	}
	if m.Lab.HitRatio <= 0 {
		t.Errorf("hit ratio = %v, want > 0 after a repeat request", m.Lab.HitRatio)
	}
	if m.Requests["run"] != 2 {
		t.Errorf("request counts = %v, want run=2", m.Requests)
	}
	if m.Responses["200"] != 2 {
		t.Errorf("response counts = %v, want 200=2", m.Responses)
	}
	var stallSum uint64
	for _, n := range m.Stalls {
		stallSum += n
	}
	if stallSum == 0 {
		t.Error("per-bucket stall totals are all zero after two served runs")
	}
}

// TestServeBackpressure: with one worker and a zero-depth queue, a
// second concurrent request is shed with 429 and a Retry-After hint
// instead of queueing unboundedly.
func TestServeBackpressure(t *testing.T) {
	release := make(chan struct{})
	l := lab.New()
	l.Backend = scriptedBackend(release, 0)
	srv := &Server{Lab: l, Workers: 1, QueueDepth: -1}
	ts, cl := newTestServer(t, srv)

	first := make(chan error, 1)
	go func() {
		_, err := cl.Run(context.Background(), cheapSpec())
		first <- err
	}()
	waitFor(t, func() bool { return srv.pending.Load() == 1 })

	body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: cheapSpec()})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 when the queue is full", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After hint")
	}

	close(release)
	if err := <-first; err != nil {
		t.Errorf("admitted request failed: %v", err)
	}
}

// TestServeUnboundedWorkers: with Workers negative nothing is shed or
// queued, even with no queue at all, so every admitted run executes at
// once. A cluster coordinator runs this way: its runs execute on
// workers that shed their own load.
func TestServeUnboundedWorkers(t *testing.T) {
	release := make(chan struct{})
	l := lab.New()
	l.Backend = scriptedBackend(release, 0)
	srv := &Server{Lab: l, Workers: -1, QueueDepth: -1}
	_, cl := newTestServer(t, srv)

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		spec := cheapSpec()
		spec.Scale = 0.02 + 0.001*float64(i)
		go func() {
			_, err := cl.Run(context.Background(), spec)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return l.InFlight() == n })
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Errorf("run failed on an unbounded server: %v", err)
		}
	}
}

// TestServeGracefulDrain is the acceptance drain test: under load,
// Drain completes every admitted request, refuses new ones with 503,
// and returns within the drain deadline.
func TestServeGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	l := lab.New()
	l.Backend = scriptedBackend(release, 0)
	srv := &Server{Lab: l, Workers: 2}
	ts, cl := newTestServer(t, srv)

	inFlight := make(chan error, 1)
	go func() {
		_, err := cl.Run(context.Background(), cheapSpec())
		inFlight <- err
	}()
	waitFor(t, func() bool { return srv.pending.Load() == 1 })

	drainDone := make(chan error, 1)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainDone <- srv.Drain(drainCtx) }()
	waitFor(t, srv.draining.Load)

	// New work is refused with 503 (no retries: we want the raw answer).
	spec := cheapSpec()
	spec.Scale = 0.03
	body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: spec})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while draining", resp.StatusCode)
	}

	// /healthz reports draining with 503 so load balancers stop routing.
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}

	// The admitted request still completes, then the drain finishes.
	close(release)
	if err := <-inFlight; err != nil {
		t.Errorf("admitted request failed during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Errorf("drain did not complete cleanly: %v", err)
	}
}

// TestServeDrainDeadline: a drain that cannot finish in time reports
// it instead of hanging forever.
func TestServeDrainDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	l := lab.New()
	l.Backend = scriptedBackend(release, 0)
	srv := &Server{Lab: l, Workers: 1}
	_, cl := newTestServer(t, srv)

	go cl.Run(context.Background(), cheapSpec()) //nolint:errcheck // released at cleanup
	waitFor(t, func() bool { return srv.pending.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain err = %v, want wrapped DeadlineExceeded", err)
	}
}

// TestServeRequestTimeout: a request deadline propagates into the run
// and comes back as 504; the abandoned run is counted, not cached.
func TestServeRequestTimeout(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(make(chan struct{}), 0) // never released
	srv := &Server{Lab: l}
	_, cl := newTestServer(t, srv)
	cl.Retries = -1

	req := api.RunRequest{Schema: api.Version, Spec: cheapSpec(), TimeoutMs: 50}
	var resp api.RunResponse
	err := cl.do(context.Background(), "/v1/run", req, &resp)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGatewayTimeout {
		t.Fatalf("err = %v, want a 504", err)
	}
	waitFor(t, func() bool { return l.Counters().Canceled == 1 })
}

// TestServeBackendStatusPassesThrough: a Backend's *StatusError keeps
// its status across the hop, with Retry-After (at least 1 s) on 429
// and 503; any other Backend error is the spec's failure, 422.
func TestServeBackendStatusPassesThrough(t *testing.T) {
	for _, tc := range []struct {
		err        error
		status     int
		retryAfter string
	}{
		{&StatusError{Status: http.StatusServiceUnavailable, Msg: "no workers", RetryAfter: 1500 * time.Millisecond}, 503, "2"},
		{&StatusError{Status: http.StatusTooManyRequests, Msg: "full"}, 429, "1"},
		{fmt.Errorf("routed: %w", &StatusError{Status: http.StatusBadGateway, Msg: "gone"}), 502, ""},
		{errors.New("cycle limit"), 422, ""},
	} {
		l := lab.New()
		l.Backend = func(context.Context, lab.Spec) (*cpu.Result, error) { return nil, tc.err }
		ts, _ := newTestServer(t, &Server{Lab: l})
		body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: cheapSpec()})
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || resp.Header.Get("Retry-After") != tc.retryAfter {
			t.Errorf("backend error %v: answered %d (Retry-After %q), want %d (%q)",
				tc.err, resp.StatusCode, resp.Header.Get("Retry-After"), tc.status, tc.retryAfter)
		}
	}
}

// TestServeCampaign: a batch comes back in request order with per-item
// errors that do not fail the batch.
func TestServeCampaign(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0.04)
	_, cl := newTestServer(t, &Server{Lab: l, Workers: 2})

	scales := []float64{0.05, 0.04, 0.03}
	var specs []lab.Spec
	for _, sc := range scales {
		s := cheapSpec()
		s.Scale = sc
		specs = append(specs, s)
	}
	items, err := cl.Campaign(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Key != specs[i].Key() {
			t.Errorf("item %d out of order: key %q", i, it.Key)
		}
	}
	if items[0].Result == nil || items[0].Result.Cycles != 50 {
		t.Errorf("item 0 = %+v, want 50 cycles", items[0])
	}
	if items[1].Err == "" || items[1].Result != nil {
		t.Errorf("item 1 = %+v, want the injected failure, no result", items[1])
	}
	if items[2].Result == nil || items[2].Result.Cycles != 30 {
		t.Errorf("item 2 = %+v, want 30 cycles", items[2])
	}
}

// TestServeCampaignRejectedWhole: a batch that does not fit the queue
// is rejected as a unit with 429.
func TestServeCampaignRejectedWhole(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0)
	srv := &Server{Lab: l, Workers: 1, QueueDepth: 1} // capacity 2 total
	ts, _ := newTestServer(t, srv)

	var specs []lab.Spec
	for i := 0; i < 3; i++ {
		s := cheapSpec()
		s.Scale = 0.01 * float64(i+1)
		specs = append(specs, s)
	}
	body, _ := json.Marshal(api.CampaignRequest{Schema: api.Version, Specs: specs})
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429 for a batch beyond capacity", resp.StatusCode)
	}
}

// TestServeBadRequests: malformed bodies, unknown benchmarks, schema
// skew, and wrong methods are rejected with 4xx, never executed.
func TestServeBadRequests(t *testing.T) {
	l := lab.New()
	ts, _ := newTestServer(t, &Server{Lab: l})

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/v1/run", "{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", got)
	}
	bad := cheapSpec()
	bad.Bench = "nosuch"
	body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: bad})
	if got := post("/v1/run", string(body)); got != http.StatusBadRequest {
		t.Errorf("unknown bench: status %d, want 400", got)
	}
	body, _ = json.Marshal(api.RunRequest{Schema: 99, Spec: cheapSpec()})
	if got := post("/v1/run", string(body)); got != http.StatusBadRequest {
		t.Errorf("schema skew: status %d, want 400", got)
	}
	if got := post("/v1/campaign", `{"schema":1,"specs":[]}`); got != http.StatusBadRequest {
		t.Errorf("empty campaign: status %d, want 400", got)
	}
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on /v1/run: status %d, want 405", resp.StatusCode)
	}
	if c := l.Counters(); c.Fresh != 0 && c.Errors != 0 {
		t.Errorf("a rejected request reached the lab: %+v", c)
	}
}

// poisonSpecs are well-formed requests whose machines the simulator
// cannot build: a BTB geometry NewBTB panics on, and a window whose
// allocation no host can satisfy.
func poisonSpecs() []lab.Spec {
	btb, rob := cheapSpec(), cheapSpec()
	btb.Machine.BTBEntries = 3
	rob.Machine.ROBSize = 1 << 40
	return []lab.Spec{btb, rob}
}

// TestServeRejectsPoisonSpecs: each poison spec is a 400 on /v1/run and
// /v1/campaign before any work starts, and the same server then serves
// a good spec.
func TestServeRejectsPoisonSpecs(t *testing.T) {
	l := lab.New()
	ts, cl := newTestServer(t, &Server{Lab: l})
	for i, spec := range poisonSpecs() {
		run, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: spec})
		campaign, _ := json.Marshal(api.CampaignRequest{Schema: api.Version, Specs: []lab.Spec{spec}})
		for _, req := range []struct{ path, body string }{{"/v1/run", string(run)}, {"/v1/campaign", string(campaign)}} {
			resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatalf("poison spec %d on %s: %v", i, req.path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("poison spec %d on %s: status %d, want 400", i, req.path, resp.StatusCode)
			}
		}
	}
	if c := l.Counters(); c.Fresh != 0 || c.Errors != 0 {
		t.Errorf("a poison spec reached the lab: %+v", c)
	}
	if _, err := cl.Run(context.Background(), cheapSpec()); err != nil {
		t.Fatalf("good spec after the poison ones: %v", err)
	}
}

// TestServeContainsPanickingBackend: a backend that panics on one spec
// fails that campaign item, and that run, instead of killing the
// server: the campaign answers 200 with the other items intact, and
// /v1/run answers at once instead of blocking on an orphaned memo
// entry.
func TestServeContainsPanickingBackend(t *testing.T) {
	l := lab.New()
	ok := scriptedBackend(nil, 0)
	l.Backend = func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		if s.Scale == 0.04 {
			panic("poison spec")
		}
		return ok(ctx, s)
	}
	_, cl := newTestServer(t, &Server{Lab: l, Workers: 2})
	var specs []lab.Spec
	for _, sc := range []float64{0.05, 0.04, 0.03} {
		s := cheapSpec()
		s.Scale = sc
		specs = append(specs, s)
	}
	items, err := cl.Campaign(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if items[1].Result != nil || !strings.Contains(items[1].Err, "poison spec") {
		t.Errorf("item 1 = %+v, want the panic as its error", items[1])
	}
	if items[0].Result == nil || items[2].Result == nil {
		t.Errorf("items 0 and 2 = %+v, %+v, want results", items[0], items[2])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Run(ctx, specs[1]); err == nil || ctx.Err() != nil {
		t.Errorf("run of the panicking spec: err = %v (ctx %v), want a prompt failure", err, ctx.Err())
	}
	if l.InFlight() != 0 {
		t.Errorf("in flight = %d after every run finished, want 0", l.InFlight())
	}
}

// TestWireSpecKeyRoundTrip: decode(encode(spec)) must have the same
// cache key as the original for every machine shape the experiments
// use — the property that makes HTTP results byte-identical to local
// ones.
func TestWireSpecKeyRoundTrip(t *testing.T) {
	base := config.DefaultMachine()
	machines := []*config.Machine{
		base,
		base.WithWindow(128),
		base.WithDepth(10),
		base.WithSelectUop(),
	}
	for _, m := range machines {
		s := cheapSpec()
		s.Machine = m
		s.MaxCycles = 12345
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got lab.Spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Key() != s.Key() {
			t.Errorf("machine %s: wire round trip changed the key:\n%s\nvs\n%s",
				m.Name, s.Key(), got.Key())
		}
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
