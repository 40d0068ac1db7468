package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/exp"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// parentHeader carries the client span id to the server's handler span
// within the benchmark process.
const parentHeader = "X-Bench-Parent-Span"

// remoteCampaign sends the campaign to an in-process wishsimd server
// over 127.0.0.1 in two ways each iteration: first as wishbench -server
// does (a lab whose Backend is Client.Run: one /v1/run per distinct
// spec, then rendering), then as wishtune and -stats-out do (one
// /v1/campaign batch per experiment, both as the binary stream and as
// JSON). The server's memo table is warm, so no iteration simulates.
type remoteCampaign struct {
	scale float64
	dir   string
	specs []lab.Spec
	uniq  []lab.Spec
	ref   map[string][]byte
	// batches are the experiments' distinct run-sets.
	batches [][]lab.Spec

	srvLab    *exp.Lab
	httpSrv   *http.Server
	served    chan error
	transport *http.Transport
	tt        *tracingTransport
	client    *serve.Client
	hc        *http.Client // the client's HTTP client, for the JSON batches
	base      string
	retries   atomic.Int64
	rejected  uint64 // non-200 answers counted by the server so far

	// The last iteration's state, for verify.
	l        *exp.Lab
	counters lab.Counters
	render   string
	stream   [][]api.CampaignItem
	json     [][]api.CampaignItem
}

// setup fills a fresh store and the server's memo table by simulating
// the run-set, then starts the server and its client.
func (c *remoteCampaign) setup(r *runner) error {
	c.close()
	dir, err := os.MkdirTemp(r.base, "remote-")
	if err != nil {
		return err
	}
	c.dir = dir
	c.srvLab, _, err = filledLab(dir, c.scale, r.cal)
	if err != nil {
		return err
	}

	srv := &serve.Server{Lab: c.srvLab.Sched, Workers: workers}
	var handler http.Handler = srv.Handler()
	c.transport = &http.Transport{MaxIdleConnsPerHost: workers}
	var rt http.RoundTripper = c.transport
	if r.cfg.trace {
		handler = tracedHandler(r.tr, handler)
		c.tt = &tracingTransport{base: c.transport}
		rt = c.tt
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: time.Minute}
	c.served = make(chan error, 1)
	go func() { c.served <- c.httpSrv.Serve(ln) }()
	c.base = "http://" + ln.Addr().String()
	c.hc = &http.Client{Transport: rt, Timeout: 5 * time.Minute}
	c.client = &serve.Client{Base: c.base, HTTP: c.hc, Seed: r.cfg.seed, Log: lineCounter{&c.retries}}
	return nil
}

func (c *remoteCampaign) verifySetup(r *runner) {
	c.specs, c.uniq, c.ref = references(r, c.srvLab)
	c.batches = nil
	for _, e := range exp.All() {
		if e.Runs != nil {
			batch, _ := unique(e.Runs(c.srvLab))
			c.batches = append(c.batches, batch)
		}
	}
}

func (c *remoteCampaign) iterate(r *runner, tr *tracer) error {
	ctx := context.Background()
	l := exp.NewLab()
	l.Scale = c.scale
	l.Sched.Workers = workers
	l.Sched.Backend = func(ctx context.Context, s lab.Spec) (*cpu.Result, error) {
		if tr != nil {
			id := tr.begin("api.run", r.warmSpan)
			defer tr.end(id)
			return c.client.Run(withSpan(ctx, id), s)
		}
		t0 := time.Now()
		res, err := c.client.Run(ctx, s)
		r.sample("api.run", time.Since(t0))
		return res, err
	}
	c.l = l
	specs := permuted(r, runSet(l, tr, r.root))
	r.warmSpan = tr.begin("lab.warm", r.root)
	l.Warm(specs)
	tr.end(r.warmSpan)
	// Calibration samples go where only this goroutine runs: after the
	// /v1/run pass and before every fourth batch.
	r.cal.sampleInside(1)
	var err error
	c.render, err = renderDigest(l, tr, r.root)
	c.counters = l.Sched.Counters()

	c.stream = make([][]api.CampaignItem, len(c.batches))
	c.json = make([][]api.CampaignItem, len(c.batches))
	for i, b := range r.perm(len(c.batches)) {
		if i%4 == 0 {
			r.cal.sampleInside(1)
		}
		specs := c.batches[b]
		id := tr.begin("api.campaign_stream", r.root)
		t0 := time.Now()
		items, serr := c.client.Campaign(withSpan(ctx, id), specs)
		if tr == nil {
			r.sample("api.batch", time.Since(t0))
		}
		tr.end(id)
		id = tr.begin("api.campaign_json", r.root)
		jitems, jerr := c.postJSON(withSpan(ctx, id), specs)
		tr.end(id)
		c.stream[b], c.json[b] = items, jitems
		err = errors.Join(err, serr, jerr)
	}
	return err
}

// postJSON sends a batch as a client that does not negotiate the
// binary stream would, and decodes the JSON answer.
func (c *remoteCampaign) postJSON(ctx context.Context, specs []lab.Spec) ([]api.CampaignItem, error) {
	body, err := json.Marshal(api.CampaignRequest{Schema: api.Version, Specs: specs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/campaign", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("JSON campaign: status %d", resp.StatusCode)
	}
	var cr api.CampaignResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining only lets the connection be reused
	return cr.Items, err
}

func (c *remoteCampaign) verify(r *runner, m map[string]float64) {
	if c.l == nil {
		return
	}
	r.checkRender(c.render, c.scale)
	results := checkAgainst(r, c.l, c.uniq, c.ref)
	for b, specs := range c.batches {
		for name, items := range map[string][]api.CampaignItem{"stream": c.stream[b], "JSON": c.json[b]} {
			r.check(len(items) == len(specs), "%s batch %d: %d items for %d specs", name, b, len(items), len(specs))
			for i := 0; i < len(items) && i < len(specs); i++ {
				key := specs[i].Key()
				it := items[i]
				r.check(it.Err == "" && it.Key == key && r.sameFrame(it.Result, c.ref[key]),
					"%s batch %d item %d (%s): differs from the /v1/run result (err %q)", name, b, i, specs[i], it.Err)
			}
		}
	}
	r.check(c.counters.Errors == 0, "remote-campaign: %d runs failed", c.counters.Errors)
	// A refused request is a failed operation even when a retry succeeds.
	rejected, err := c.rejectedSoFar()
	r.checkErr(err, "remote-campaign: /metrics")
	newlyRejected := rejected - c.rejected
	c.rejected = rejected
	r.check(newlyRejected == 0, "remote-campaign: the server refused %d requests", newlyRejected)
	retries := c.retries.Swap(0)
	c.l, c.stream, c.json = nil, nil, nil
	if m == nil {
		return
	}
	m["lab.fresh"] = float64(c.counters.Fresh) // results fetched from the server
	m["lab.mem_hits"] = float64(c.counters.MemHits)
	if total := float64(c.counters.Fresh + c.counters.MemHits); total > 0 {
		m["lab.hit_ratio"] = float64(c.counters.MemHits) / total
	}
	m["lab.key_s"] = replayKeying(c.specs)
	// Every result crosses the wire as a /v1/run body and a stream frame:
	// the server encodes it and the client decodes it, twice.
	codecCounts(m, results, 2, 2)
	m["serve.rejected"] = float64(newlyRejected)
	m["api.retries"] = float64(retries)
	m["api.stream_bytes"] = float64(c.tt.streamBytes.Swap(0))
	m["api.json_bytes"] = float64(c.tt.jsonBytes.Swap(0))
}

// rejectedSoFar is how many requests the server has answered with
// anything but 200.
func (c *remoteCampaign) rejectedSoFar() (uint64, error) {
	met, err := c.client.Metrics(context.Background())
	if err != nil {
		return 0, err
	}
	var n uint64
	for status, count := range met.Responses {
		if status != strconv.Itoa(http.StatusOK) {
			n += count
		}
	}
	return n, nil
}

func (c *remoteCampaign) digests() map[string]string {
	return map[string]string{"render_sha256": c.render}
}

// close stops the server and waits for it to exit.
func (c *remoteCampaign) close() {
	c.srvLab, c.rejected = nil, 0
	if c.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		c.httpSrv.Shutdown(ctx) //nolint:errcheck // Serve's return below reports how it ended
		cancel()
		<-c.served
		c.transport.CloseIdleConnections()
		c.httpSrv = nil
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
}

// tracingTransport forwards the caller's span id to the server and
// counts campaign response bytes by encoding.
type tracingTransport struct {
	base                   http.RoundTripper
	streamBytes, jsonBytes atomic.Int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := spanFrom(req.Context())
	if !ok {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.Itoa(int(id)))
	resp, err := t.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/v1/campaign" {
		n := &t.jsonBytes
		if api.IsContentType(resp.Header.Get("Content-Type"), api.StreamContentType) {
			n = &t.streamBytes
		}
		resp.Body = countingBody{resp.Body, n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedHandler records a serve.handler span for each request that
// names its client span.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(parentHeader))
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		id := tr.begin("serve.handler", int32(parent))
		defer tr.end(id)
		h.ServeHTTP(w, req)
	})
}

// lineCounter counts the lines serve.Client logs: one per retry.
type lineCounter struct{ n *atomic.Int64 }

func (c lineCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte("\n"))))
	return len(p), nil
}
