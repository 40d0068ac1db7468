package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// startHostileWorker runs an HTTP server whose /v1/campaign handler is
// under the test's control — a worker that answers, but wrongly.
func startHostileWorker(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaign", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestCampaignHostileWorkerJSON: a worker that answers 200 with
// garbage — syntactically invalid JSON, a body truncated mid-stream,
// a valid body with the wrong item count, or items carrying the wrong
// keys — must never panic the coordinator or produce a silent partial
// merge. The campaign comes back 200 with every affected item's Err
// set to something diagnosable, exactly like a worker that failed
// honestly.
func TestCampaignHostileWorkerJSON(t *testing.T) {
	specs := []lab.Spec{testSpec(0.10), testSpec(0.20), testSpec(0.30)}

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
				json.NewDecoder(r.Body).Decode(&req)
				items := make([]api.CampaignItem, len(req.Specs))
				for i := range items {
					items[i].Key = "imposter"
				}
				api.WriteJSON(w, http.StatusOK, api.CampaignResponse{Items: items})
			},
			wantErr: "wire-format skew",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worker := startHostileWorker(t, tc.handler)
			_, client, _ := startCluster(t, []string{worker.URL}, func(co *Coordinator) {
				co.Retries = 1
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			items, err := client.Campaign(ctx, specs)
			if err != nil {
				t.Fatalf("campaign-level error (want per-item errors): %v", err)
			}
			if len(items) != len(specs) {
				t.Fatalf("merged %d items for %d specs", len(items), len(specs))
			}
			for i, it := range items {
				if it.Key != specs[i].Key() {
					t.Errorf("item %d: key %q, want %q (merge out of order)", i, it.Key, specs[i].Key())
				}
				if it.Result != nil {
					t.Errorf("item %d: fabricated result from a hostile worker: %+v", i, it.Result)
				}
				if it.Err == "" {
					t.Errorf("item %d: no error surfaced for a worker answering garbage", i)
				} else if tc.wantErr != "" && !strings.Contains(it.Err, tc.wantErr) {
					t.Errorf("item %d: error %q does not mention %q", i, it.Err, tc.wantErr)
				}
			}
		})
	}
}

// TestRunHostileWorkerJSON: the single-run endpoint maps worker
// garbage to a clean 502 after the route ladder exhausts — never a
// panic, never a 200 with a fabricated result.
func TestRunHostileWorkerJSON(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`<html>this is not even json</html>`))
	})
	worker := httptest.NewServer(mux)
	t.Cleanup(worker.Close)

	_, _, coTS := startCluster(t, []string{worker.URL}, func(co *Coordinator) {
		co.Retries = 1
	})
	// No client-side retries: the assertion is about the coordinator's
	// first classification, before the dead-marked worker turns later
	// attempts into 503 no-live-workers.
	client := &serve.Client{Base: coTS.URL, Retries: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err := client.Run(ctx, testSpec(0.10))
	if err == nil {
		t.Fatal("run against a garbage-answering worker reported success")
	}
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadGateway {
		t.Errorf("error %v, want a 502 StatusError", err)
	}
}
