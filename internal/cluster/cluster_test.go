package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
	"wishbranch/internal/workload"
)

// testSpec is a valid spec whose scale doubles as its identity: the
// scripted backend fabricates the result from the scale, so routing
// and merge logic are checkable without real simulations.
func testSpec(scale float64) lab.Spec {
	return lab.Spec{
		Bench:      "gzip",
		Input:      workload.InputA,
		Variant:    compiler.NormalBranch,
		Machine:    config.DefaultMachine(),
		Scale:      scale,
		Thresholds: compiler.DefaultThresholds(),
	}
}

// failScale is the scale at which a scripted simulation fails, the
// way a run that hits its cycle limit does.
const (
	failScale = 0.77777
	failMsg   = "cpu: scripted cycle limit"
)

// scriptedLab fabricates deterministic results from the spec scale;
// when block is non-nil every fresh production parks until it closes.
func scriptedLab(block <-chan struct{}) *lab.Lab {
	l := lab.New()
	l.Backend = func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		if block != nil {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if s.Scale == failScale {
			return nil, errors.New(failMsg)
		}
		return &cpu.Result{Cycles: uint64(s.Scale * 100000), Halted: true}, nil
	}
	return l
}

// startWorker runs a real serve.Server (the actual single-node wire
// implementation) over the given lab.
func startWorker(t *testing.T, l *lab.Lab) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer((&serve.Server{Lab: l, Workers: 4}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startCluster runs a coordinator over the URLs, unbounded as wishsimd
// builds one without -j, and returns a wire client pointed at it — the
// same client wishbench uses.
func startCluster(t *testing.T, urls []string, tune func(*Coordinator)) (*Coordinator, *serve.Client, *httptest.Server) {
	t.Helper()
	co := NewCoordinator(NewRegistry(urls), &serve.Server{Lab: lab.New(), Workers: -1})
	co.Backoff = time.Millisecond
	if tune != nil {
		tune(co)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return co, &serve.Client{Base: ts.URL, Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond}, ts
}

// specHomedAt finds a spec whose cache key homes at the given worker.
func specHomedAt(t *testing.T, co *Coordinator, w *Worker) lab.Spec {
	t.Helper()
	for i := 1; i < 10000; i++ {
		s := testSpec(0.0001 * float64(i))
		if co.Registry.home(s.Key()) == w {
			return s
		}
	}
	t.Fatal("no spec homes at the worker")
	panic("unreachable")
}

// specsCoveringAllWorkers builds a batch guaranteed to include at
// least one spec homed at every worker.
func specsCoveringAllWorkers(t *testing.T, co *Coordinator, extra int) []lab.Spec {
	t.Helper()
	var specs []lab.Spec
	for _, w := range co.Registry.Workers() {
		specs = append(specs, specHomedAt(t, co, w))
	}
	for i := 0; i < extra; i++ {
		specs = append(specs, testSpec(0.5+0.001*float64(i)))
	}
	return specs
}

// TestClusterRunShardAffinity: the coordinator is a drop-in for a
// single worker on /v1/run, and repeat requests for a key land on the
// same worker — whose singleflight memo table turns them into memory
// hits instead of fresh simulations. Each repeat goes through a fresh
// coordinator, whose own memo table would otherwise answer it.
func TestClusterRunShardAffinity(t *testing.T) {
	labs := []*lab.Lab{scriptedLab(nil), scriptedLab(nil), scriptedLab(nil)}
	var urls []string
	for _, l := range labs {
		urls = append(urls, startWorker(t, l).URL)
	}

	spec := testSpec(0.07)
	for i := 0; i < 3; i++ {
		_, cl, _ := startCluster(t, urls, nil)
		res, err := cl.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != 7000 {
			t.Fatalf("result = %+v, want the scripted 7000 cycles", res)
		}
	}
	var fresh, mem uint64
	for _, l := range labs {
		c := l.Counters()
		fresh += c.Fresh
		mem += c.MemHits
	}
	if fresh != 1 || mem != 2 {
		t.Errorf("cluster-wide counters: %d fresh, %d memo hits for 3 identical runs — want 1 and 2 (shard affinity broken)", fresh, mem)
	}
}

// TestClusterCampaignByteIdenticalToSingleNode is the acceptance merge
// test: a campaign through a 3-worker cluster must produce a response
// byte-identical (as JSON) to the same campaign on one plain worker,
// failed items included, and a failed run must answer the same error.
func TestClusterCampaignByteIdenticalToSingleNode(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startWorker(t, scriptedLab(nil)).URL)
	}
	co, cl, _ := startCluster(t, urls, nil)
	specs := append(specsCoveringAllWorkers(t, co, 9), testSpec(failScale))

	clustered, err := cl.Campaign(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	single := startWorker(t, scriptedLab(nil))
	scl := &serve.Client{Base: single.URL}
	reference, err := scl.Campaign(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := clustered[len(specs)-1].Err; got != failMsg {
		t.Errorf("failed item's error through the cluster = %q, want %q", got, failMsg)
	}
	_, cerr := cl.Run(context.Background(), testSpec(failScale))
	_, serr := scl.Run(context.Background(), testSpec(failScale))
	if cerr == nil || serr == nil || cerr.Error() != serr.Error() {
		t.Errorf("failed run through the cluster = %v, single node = %v, want the same error", cerr, serr)
	}

	cb, err := json.Marshal(clustered)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(reference)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, rb) {
		t.Errorf("clustered campaign differs from single-node:\n--- cluster ---\n%s\n--- single ---\n%s", cb, rb)
	}
}

// TestClusterWorkerDeathFailover: killing a worker mid-life re-homes
// its shard to the next live node; the campaign still completes with
// every item intact and the registry records the death.
func TestClusterWorkerDeathFailover(t *testing.T) {
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		s := startWorker(t, scriptedLab(nil))
		servers = append(servers, s)
		urls = append(urls, s.URL)
	}
	co, cl, _ := startCluster(t, urls, nil)
	specs := specsCoveringAllWorkers(t, co, 9)

	// Kill the worker that owns the first spec — its shard must fail
	// over. (Close is the in-process SIGKILL: connections refuse.)
	victim := co.Registry.home(specs[0].Key())
	for i, s := range servers {
		if s.URL == victim.URL {
			servers[i].Close()
		}
	}

	items, err := cl.Campaign(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != "" || it.Result == nil {
			t.Errorf("item %d lost to the failover: %+v", i, it)
		}
		if want := uint64(specs[i].Scale * 100000); it.Result != nil && it.Result.Cycles != want {
			t.Errorf("item %d = %d cycles, want %d (merge order broken?)", i, it.Result.Cycles, want)
		}
	}
	if victim.Alive() {
		t.Error("killed worker still marked live")
	}
	if co.Registry.Generation() == 0 {
		t.Error("membership generation did not move on a death")
	}
	if co.reroutes.Load() == 0 {
		t.Error("no reroute was recorded for the dead worker's shard")
	}
}

// TestClusterStragglerIsNotDemoted: a worker that stalls (without
// dying) still answers its shard, and the coordinator neither re-routes
// it nor marks it dead — slow is not dead.
func TestClusterStragglerIsNotDemoted(t *testing.T) {
	block := make(chan struct{})
	slow := scriptedLab(block)
	slowTS := startWorker(t, slow)
	urls := []string{slowTS.URL, startWorker(t, scriptedLab(nil)).URL, startWorker(t, scriptedLab(nil)).URL}
	co, cl, _ := startCluster(t, urls, nil)

	spec := specHomedAt(t, co, co.Registry.Workers()[0]) // homed at the straggler
	time.AfterFunc(20*time.Millisecond, func() { close(block) })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(spec.Scale * 100000); res.Cycles != want {
		t.Errorf("straggler result = %d cycles, want %d", res.Cycles, want)
	}
	if co.reroutes.Load() != 0 {
		t.Errorf("reroutes = %d, want 0 for a slow but healthy worker", co.reroutes.Load())
	}
	if !co.Registry.Workers()[0].Alive() {
		t.Error("straggler was marked dead — slow is not dead")
	}
	if c := slow.Counters(); c.Fresh != 1 {
		t.Errorf("straggler ran %d fresh simulations, want 1", c.Fresh)
	}
}

// TestCluster429Propagation: a run whose home worker is at capacity
// answers 429 with that worker's Retry-After — honest backpressure,
// not an absorbed queue.
func TestCluster429Propagation(t *testing.T) {
	busy := func(retryAfter int) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			api.WriteJSON(w, http.StatusTooManyRequests, api.ErrorResponse{Error: "queue full"})
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := busy(3), busy(7)
	co, _, ts := startCluster(t, []string{a.URL, b.URL}, func(c *Coordinator) {
		c.Retries = -1 // no retry layering: the propagation itself is under test
	})

	for _, tc := range []struct {
		home *Worker
		want string
	}{{co.Registry.Workers()[0], "3"}, {co.Registry.Workers()[1], "7"}} {
		body, err := json.Marshal(api.RunRequest{Schema: api.Version, Spec: specHomedAt(t, co, tc.home)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429 propagated from the home worker", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != tc.want {
			t.Errorf("Retry-After = %q, want the home worker's %ss", got, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("Content-Type = %q, want explicit JSON on cluster errors too", ct)
		}
	}
	if live := len(co.Registry.Live()); live != 2 {
		t.Errorf("%d workers live after 429s, want 2 — busy is not dead", live)
	}
}

// TestClusterHealthAndMetrics: /healthz degrades when the last worker
// dies, and /metrics exposes membership and per-worker counters.
func TestClusterHealthAndMetrics(t *testing.T) {
	w1 := startWorker(t, scriptedLab(nil))
	co, cl, ts := startCluster(t, []string{w1.URL}, nil)

	if _, err := cl.Run(context.Background(), testSpec(0.05)); err != nil {
		t.Fatal(err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %q with a live worker, want ok", h.Status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m api.ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.TotalWorkers != 1 || m.LiveWorkers != 1 || m.Replicas != 0 {
		t.Errorf("metrics membership = %+v, want 1/1 workers and replicas 0", m)
	}
	if len(m.Workers) != 1 || m.Workers[0].Requests == 0 {
		t.Errorf("per-worker counters = %+v, want a request recorded", m.Workers)
	}
	if m.Requests["run"] != 1 || m.Responses["200"] == 0 {
		t.Errorf("endpoint counters = %v / %v, want run=1 and a 200", m.Requests, m.Responses)
	}

	// Kill the only worker: health must degrade to 503.
	w1.Close()
	co.Registry.ProbeOnce(context.Background())
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d with no live workers, want 503", hresp.StatusCode)
	}
	var dh api.ClusterHealth
	if err := json.NewDecoder(hresp.Body).Decode(&dh); err != nil {
		t.Fatal(err)
	}
	if dh.Status != "degraded" || dh.LiveWorkers != 0 {
		t.Errorf("health body = %+v, want degraded with 0 live", dh)
	}

	// And a run against the dead cluster is shed with 503+Retry-After.
	// (A key the coordinator has not seen: its memo table answers the
	// one it routed above.)
	body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: testSpec(0.06)})
	rresp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || rresp.Header.Get("Retry-After") == "" {
		t.Errorf("run against a dead cluster = %d (Retry-After %q), want 503 with a hint",
			rresp.StatusCode, rresp.Header.Get("Retry-After"))
	}
}

// TestClusterDrain: a draining coordinator sheds new work with 503 and
// flips /healthz, same contract as a single worker.
func TestClusterDrain(t *testing.T) {
	w1 := startWorker(t, scriptedLab(nil))
	srv := &serve.Server{Lab: lab.New(), Workers: -1}
	ts := httptest.NewServer(NewCoordinator(NewRegistry([]string{w1.URL}), srv).Handler())
	defer ts.Close()
	cl := &serve.Client{Base: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: testSpec(0.05)})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d while draining, want 503", resp.StatusCode)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health = %q, want draining", h.Status)
	}
}

// TestClusterBadRequests: malformed bodies, schema skew, invalid
// specs, and empty campaigns die at the coordinator with 4xx — they
// never reach a worker.
func TestClusterBadRequests(t *testing.T) {
	var hits int
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		api.WriteJSON(w, http.StatusOK, api.ErrorResponse{})
	}))
	t.Cleanup(stub.Close)
	_, _, ts := startCluster(t, []string{stub.URL}, nil)

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/v1/run", "{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", got)
	}
	bad, _ := json.Marshal(api.RunRequest{Schema: 99, Spec: testSpec(0.05)})
	if got := post("/v1/run", string(bad)); got != http.StatusBadRequest {
		t.Errorf("schema skew: %d, want 400", got)
	}
	invalid := testSpec(0.05)
	invalid.Bench = "nosuch"
	badSpec, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: invalid})
	if got := post("/v1/run", string(badSpec)); got != http.StatusBadRequest {
		t.Errorf("invalid spec: %d, want 400", got)
	}
	if got := post("/v1/campaign", fmt.Sprintf(`{"schema":%d,"specs":[]}`, api.Version)); got != http.StatusBadRequest {
		t.Errorf("empty campaign: %d, want 400", got)
	}
	if hits != 0 {
		t.Errorf("%d bad requests leaked through to a worker", hits)
	}
}

// TestClusterSurvivesPoisonSpec: a spec whose machine the simulator
// cannot build (a BTB geometry NewBTB panics on) is a 400 at the
// coordinator on both endpoints. It must not be routed: a worker
// that died of it would read as a transport error and the spec would be
// rerouted until every worker was dead. Afterwards all three workers
// are live and the cluster serves a real simulation.
func TestClusterSurvivesPoisonSpec(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		urls = append(urls, startWorker(t, lab.New()).URL)
	}
	_, cl, ts := startCluster(t, urls, nil)
	poison := testSpec(0.02)
	poison.Machine.BTBEntries = 3
	run, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: poison})
	campaign, _ := json.Marshal(api.CampaignRequest{Schema: api.Version, Specs: []lab.Spec{poison}})
	for _, req := range []struct{ path, body string }{{"/v1/run", string(run)}, {"/v1/campaign", string(campaign)}} {
		resp, err := http.Post(ts.URL+req.path, "application/json", bytes.NewReader([]byte(req.body)))
		if err != nil {
			t.Fatalf("poison spec on %s: %v", req.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("poison spec on %s: status %d, want 400", req.path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m api.ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.LiveWorkers != 3 {
		t.Errorf("live_workers = %d after the poison spec, want 3", m.LiveWorkers)
	}
	if _, err := cl.Run(context.Background(), testSpec(0.02)); err != nil {
		t.Fatalf("good spec after the poison one: %v", err)
	}
}

// TestClusterRecoversHealedWorker: a worker that answers 500 is marked
// dead and the run fails; once it heals and a probe sees it, the same
// spec succeeds. The failure must not be memoized by the coordinator's
// lab — a routing error says nothing about the spec.
func TestClusterRecoversHealedWorker(t *testing.T) {
	var broken atomic.Bool
	broken.Store(true)
	inner := (&serve.Server{Lab: scriptedLab(nil), Workers: 2}).Handler()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			api.WriteJSON(w, http.StatusInternalServerError, api.ErrorResponse{Error: "broken"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	co, _, ts := startCluster(t, []string{worker.URL}, nil)
	cl := &serve.Client{Base: ts.URL, Retries: -1}
	spec := testSpec(0.03)

	_, err := cl.Run(context.Background(), spec)
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Fatalf("run against a broken worker: %v, want its 500 passed through", err)
	}
	if co.Registry.Workers()[0].Alive() {
		t.Fatal("worker answering 500 still marked live")
	}

	broken.Store(false)
	co.Registry.ProbeOnce(context.Background())
	if !co.Registry.Workers()[0].Alive() {
		t.Fatal("healed worker not resurrected by the probe")
	}
	res, err := cl.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after the worker healed: %v (routing failure memoized?)", err)
	}
	if res.Cycles != 3000 {
		t.Errorf("result = %+v, want the scripted 3000 cycles", res)
	}
}

// TestClusterNegotiatesEncodings: the coordinator is a serve.Server, so
// its /v1/run answers the binary result and its /v1/campaign streams
// to a client that asks, exactly as a worker's do.
func TestClusterNegotiatesEncodings(t *testing.T) {
	w1 := startWorker(t, scriptedLab(nil))
	_, _, ts := startCluster(t, []string{w1.URL}, nil)

	post := func(path, accept string, req any) *http.Response {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		return resp
	}

	spec := testSpec(0.04)
	resp := post("/v1/run", api.BinaryContentType, api.RunRequest{Schema: api.Version, Spec: spec})
	if ct := resp.Header.Get("Content-Type"); !api.IsContentType(ct, api.BinaryContentType) {
		t.Fatalf("/v1/run content type %q, want %q", ct, api.BinaryContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rr api.RunResponse
	if err := api.DecodeRunResponse(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Key != spec.Key() || rr.Result == nil || rr.Result.Cycles != 4000 {
		t.Errorf("binary run response = %+v, want key %q and 4000 cycles", rr, spec.Key())
	}

	specs := []lab.Spec{testSpec(0.04), testSpec(0.05)}
	resp = post("/v1/campaign", api.StreamContentType, api.CampaignRequest{Schema: api.Version, Specs: specs})
	if ct := resp.Header.Get("Content-Type"); !api.IsContentType(ct, api.StreamContentType) {
		t.Fatalf("/v1/campaign content type %q, want %q", ct, api.StreamContentType)
	}
	items, err := api.ReadCampaignStream(resp.Body, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Key != specs[i].Key() || it.Result == nil || it.Err != "" {
			t.Errorf("streamed item %d = %+v, want a result for %q", i, it, specs[i].Key())
		}
	}
}

// TestClusterRoutedRunsFollowTheClient: a coordinator built as
// wishsimd builds one without -j caps nothing itself, so a campaign
// wider than this host's CPU count has every item in flight on the
// fleet at once. The worker's backend releases nobody until all have
// arrived; a coordinator that capped routed runs at NumCPU would stall
// here until the deadline.
func TestClusterRoutedRunsFollowTheClient(t *testing.T) {
	want := runtime.NumCPU() + 2
	var arrived atomic.Int32
	all := make(chan struct{})
	l := lab.New()
	l.Backend = func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		if int(arrived.Add(1)) == want {
			close(all)
		}
		select {
		case <-all:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &cpu.Result{Cycles: uint64(s.Scale * 100000), Halted: true}, nil
	}
	worker := httptest.NewServer((&serve.Server{Lab: l, Workers: want}).Handler())
	defer worker.Close()
	_, cl, _ := startCluster(t, []string{worker.URL}, nil)

	specs := make([]lab.Spec, want)
	for i := range specs {
		specs[i] = testSpec(0.1 + 0.001*float64(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	items, err := cl.Campaign(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != "" || it.Result == nil {
			t.Fatalf("item %d = %+v with %d of %d runs in flight, want every run routed at once",
				i, it, arrived.Load(), want)
		}
	}
}
