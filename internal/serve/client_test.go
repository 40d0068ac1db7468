package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// TestClientRetriesInjectedError: a server with an "error on the 1st
// request" fault answers 500 once; the client retries and succeeds —
// the exact path a transient server failure takes in production.
func TestClientRetriesInjectedError(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0)
	srv := &Server{Lab: l, Fault: &Fault{Mode: "error", Nth: 1}}
	_, cl := newTestServer(t, srv)

	res, err := cl.Run(context.Background(), cheapSpec())
	if err != nil {
		t.Fatalf("client did not recover from the injected 500: %v", err)
	}
	if res.Cycles != 20 {
		t.Errorf("result = %+v, want the scripted 20 cycles", res)
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Responses["500"] != 1 || m.Responses["200"] == 0 {
		t.Errorf("responses = %v, want exactly one 500 then a 200", m.Responses)
	}
}

// TestClientRetriesDroppedConnection: a "drop the 1st request" fault
// aborts the connection mid-exchange; the client sees a transport
// error and retries.
func TestClientRetriesDroppedConnection(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0)
	_, cl := newTestServer(t, &Server{Lab: l, Fault: &Fault{Mode: "drop", Nth: 1}})

	if _, err := cl.Run(context.Background(), cheapSpec()); err != nil {
		t.Fatalf("client did not recover from the dropped connection: %v", err)
	}
}

// TestClientDelayFaultIsTransparent: a delayed request still succeeds;
// only its latency changes.
func TestClientDelayFaultIsTransparent(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0)
	_, cl := newTestServer(t, &Server{Lab: l, Fault: &Fault{Mode: "delay", Nth: 1, Delay: 50 * time.Millisecond}})

	t0 := time.Now()
	if _, err := cl.Run(context.Background(), cheapSpec()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 50*time.Millisecond {
		t.Errorf("delayed request finished in %v, want >= 50ms", elapsed)
	}
}

// TestClientDoesNotRetryPermanentErrors: a 400 means the request is
// wrong, not the moment — exactly one attempt.
func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var attempts atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "nope"}) //nolint:errcheck
	}))
	defer ts.Close()
	cl := &Client{Base: ts.URL, Backoff: time.Millisecond}
	if _, err := cl.Run(context.Background(), cheapSpec()); err == nil {
		t.Fatal("400 did not surface as an error")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("client made %d attempts against a 400, want 1", got)
	}
}

// TestClientRetryBudgetExhausts: a permanently failing server consumes
// Retries+1 attempts and then reports the last failure.
func TestClientRetryBudgetExhausts(t *testing.T) {
	var attempts atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "still broken"}) //nolint:errcheck
	}))
	defer ts.Close()
	cl := &Client{Base: ts.URL, Retries: 2, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	if _, err := cl.Run(context.Background(), cheapSpec()); err == nil {
		t.Fatal("exhausted retries did not surface as an error")
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("client made %d attempts with Retries=2, want 3", got)
	}
}

// TestClientKeyMismatchIsFatal: a server answering with a different
// cache key signals wire-format skew and must not be trusted.
func TestClientKeyMismatchIsFatal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.RunResponse{Key: "wrong", Result: &cpu.Result{Cycles: 1}}) //nolint:errcheck
	}))
	defer ts.Close()
	cl := &Client{Base: ts.URL, Retries: -1}
	if _, err := cl.Run(context.Background(), cheapSpec()); err == nil {
		t.Fatal("key mismatch went undetected")
	}
}

// TestCampaignHostileWorkerJSON: a server that answers a campaign 200
// with garbage — syntactically invalid JSON, a body truncated
// mid-stream, a valid body with the wrong item count, or items carrying
// the wrong keys — must make Campaign return an error, never a partial
// batch and never a fabricated result.
func TestCampaignHostileWorkerJSON(t *testing.T) {
	var specs []lab.Spec
	for _, scale := range []float64{0.10, 0.20, 0.30} {
		s := cheapSpec()
		s.Scale = scale
		specs = append(specs, s)
	}

	cases := []struct {
		name    string
		handler http.HandlerFunc
		wantErr string
	}{
		{
			name: "invalid-json",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(`{"items": [{"key": not json at all!!`))
			},
			wantErr: "decode",
		},
		{
			name: "truncated-body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				// Promise a long body, deliver a prefix: the server
				// kills the connection and the client sees an
				// unexpected EOF mid-decode.
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", "65536")
				w.Write([]byte(`{"items":[{"key":"a`))
			},
			wantErr: "",
		},
		{
			name: "wrong-item-count",
			handler: func(w http.ResponseWriter, r *http.Request) {
				api.WriteJSON(w, http.StatusOK, api.CampaignResponse{
					Items: []api.CampaignItem{{Key: "only-one"}},
				})
			},
			wantErr: "items",
		},
		{
			name: "wrong-keys",
			handler: func(w http.ResponseWriter, r *http.Request) {
				var req api.CampaignRequest
				json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
				items := make([]api.CampaignItem, len(req.Specs))
				for i := range items {
					items[i] = api.CampaignItem{Key: "imposter", Result: &cpu.Result{Cycles: 1}}
				}
				api.WriteJSON(w, http.StatusOK, api.CampaignResponse{Items: items})
			},
			wantErr: "wire-format skew",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			t.Cleanup(ts.Close)
			cl := &Client{Base: ts.URL, Retries: 1, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			items, err := cl.Campaign(ctx, specs)
			if err == nil {
				t.Fatalf("garbage answer accepted as %d items", len(items))
			}
			if items != nil {
				t.Errorf("partial batch of %d items returned alongside %v", len(items), err)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestClientBackoffSeededAndBounded: the jitter stream is a pure
// function of the seed, the schedule is capped by MaxBackoff, and a
// server's Retry-After raises the floor.
func TestClientBackoffSeededAndBounded(t *testing.T) {
	mk := func(seed int64) *Client {
		c := &Client{Base: "http://unused", Seed: seed, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}
		c.init()
		return c
	}
	a, b := mk(42), mk(42)
	for i := 0; i < 6; i++ {
		wa, wb := a.backoff(i, 0), b.backoff(i, 0)
		if wa != wb {
			t.Fatalf("attempt %d: same seed produced different waits (%v vs %v)", i, wa, wb)
		}
		if wa > time.Duration(1.5*float64(time.Second)) {
			t.Errorf("attempt %d: wait %v exceeds jittered MaxBackoff", i, wa)
		}
	}
	if c := mk(7); c.backoff(0, 3*time.Second) < 3*time.Second {
		t.Error("Retry-After floor was not honoured")
	}
	if mk(1).backoff(0, 0) == mk(2).backoff(0, 0) {
		t.Log("different seeds produced equal first waits (possible, just unlikely)")
	}
}

// TestFaultFiresExactlyOnce: the deterministic trigger hits the Nth
// admission and only the Nth, and a nil fault never fires.
func TestFaultFiresExactlyOnce(t *testing.T) {
	if (*Fault)(nil).hit() {
		t.Error("nil fault fired")
	}
	f := &Fault{Mode: "error", Nth: 3}
	var fired int
	for i := 0; i < 10; i++ {
		if f.hit() {
			fired++
			if i != 2 {
				t.Errorf("fault fired on request %d, want 3", i+1)
			}
		}
	}
	if fired != 1 {
		t.Errorf("fault fired %d times, want exactly once", fired)
	}
}
