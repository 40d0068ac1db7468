package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/lab"
)

// TestResponseHeadersEveryEndpoint is the header-contract regression
// test: every endpoint of the wire API — successes, rejections, and
// errors alike — must carry an explicit JSON Content-Type and nosniff,
// and every admission rejection must carry a Retry-After hint. A
// client should never have to sniff a body to know what it got.
func TestResponseHeadersEveryEndpoint(t *testing.T) {
	assertJSON := func(t *testing.T, resp *http.Response, wantStatus int) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/json; charset=utf-8" {
			t.Errorf("Content-Type = %q, want explicit JSON", got)
		}
		if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
			t.Errorf("X-Content-Type-Options = %q, want nosniff", got)
		}
	}
	assertRetryAfter := func(t *testing.T, resp *http.Response) {
		t.Helper()
		if resp.Header.Get("Retry-After") == "" {
			t.Error("admission rejection carried no Retry-After hint")
		}
	}
	runBody := func(spec lab.Spec) *bytes.Reader {
		b, err := json.Marshal(api.RunRequest{Schema: api.Version, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(b)
	}

	l := lab.New()
	l.Backend = scriptedBackend(nil, 0.04)
	ts, _ := newTestServer(t, &Server{Lab: l, Workers: 1})

	t.Run("healthz 200", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusOK)
	})
	t.Run("metrics 200", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusOK)
	})
	t.Run("run 200", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", runBody(cheapSpec()))
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusOK)
	})
	t.Run("run 400 bad body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusBadRequest)
	})
	t.Run("run 422 failed simulation", func(t *testing.T) {
		spec := cheapSpec()
		spec.Scale = 0.04 // scriptedBackend's injected failure
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", runBody(spec))
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusUnprocessableEntity)
	})
	t.Run("campaign 200", func(t *testing.T) {
		b, err := json.Marshal(api.CampaignRequest{Schema: api.Version, Specs: []lab.Spec{cheapSpec()}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusOK)
	})

	t.Run("run 429 queue full", func(t *testing.T) {
		block := make(chan struct{})
		defer close(block)
		bl := lab.New()
		bl.Backend = scriptedBackend(block, 0)
		srv := &Server{Lab: bl, Workers: 1, QueueDepth: -1}
		bts, cl := newTestServer(t, srv)
		go cl.Run(context.Background(), cheapSpec()) //nolint:errcheck // released at cleanup
		waitFor(t, func() bool { return srv.pending.Load() == 1 })
		resp, err := http.Post(bts.URL+"/v1/run", "application/json", runBody(cheapSpec()))
		if err != nil {
			t.Fatal(err)
		}
		assertRetryAfter(t, resp)
		assertJSON(t, resp, http.StatusTooManyRequests)
	})

	t.Run("run 503 draining and healthz 503", func(t *testing.T) {
		dl := lab.New()
		dl.Backend = scriptedBackend(nil, 0)
		srv := &Server{Lab: dl}
		dts, _ := newTestServer(t, srv)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(dts.URL+"/v1/run", "application/json", runBody(cheapSpec()))
		if err != nil {
			t.Fatal(err)
		}
		assertRetryAfter(t, resp)
		assertJSON(t, resp, http.StatusServiceUnavailable)
		resp, err = http.Get(dts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		assertJSON(t, resp, http.StatusServiceUnavailable)
	})
}
