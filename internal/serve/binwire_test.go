package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// wireResult builds a distinctive result for codec tests, cheap enough
// to stamp out in bulk.
func wireResult(seed uint64) *cpu.Result {
	return &cpu.Result{
		Cycles:       1000 + seed,
		RetiredUops:  2000 + seed,
		CondBranches: 17 * seed,
		Halted:       true,
	}
}

// TestServerNegotiatesRunEncoding: the same /v1/run answers binary to
// a client that asks for it and JSON to one that does not, with
// json-equal payloads.
func TestServerNegotiatesRunEncoding(t *testing.T) {
	ts, _ := newTestServer(t, &Server{Lab: lab.New()})
	body, _ := json.Marshal(api.RunRequest{Schema: api.Version, Spec: cheapSpec()})

	post := func(accept string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d", accept, resp.StatusCode)
		}
		return resp
	}

	jsonResp := post("")
	if ct := jsonResp.Header.Get("Content-Type"); !api.IsContentType(ct, "application/json") {
		t.Fatalf("no Accept: content type %q, want JSON", ct)
	}
	var viaJSON api.RunResponse
	if err := json.NewDecoder(jsonResp.Body).Decode(&viaJSON); err != nil {
		t.Fatal(err)
	}

	binResp := post(api.BinaryContentType + ", application/json")
	if ct := binResp.Header.Get("Content-Type"); !api.IsContentType(ct, api.BinaryContentType) {
		t.Fatalf("binary Accept: content type %q, want %q", ct, api.BinaryContentType)
	}
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(binResp.Body); err != nil {
		t.Fatal(err)
	}
	var viaBin api.RunResponse
	if err := api.DecodeRunResponse(data.Bytes(), &viaBin); err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(viaJSON)
	b, _ := json.Marshal(viaBin)
	if !bytes.Equal(a, b) {
		t.Errorf("binary and JSON answers differ:\njson:   %s\nbinary: %s", a, b)
	}
}

// TestServerStreamsCampaign: a streaming campaign merges byte-identical
// to the buffered JSON response for the same batch, and really uses the
// stream content type.
func TestServerStreamsCampaign(t *testing.T) {
	specs := []lab.Spec{cheapSpec()}
	for _, scale := range []float64{0.01, 0.015} {
		s := cheapSpec()
		s.Scale = scale
		specs = append(specs, s)
	}
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0.015) // scale 0.015 fails per-item
	ts, cl := newTestServer(t, &Server{Lab: l})

	viaStream, err := cl.Campaign(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	// The raw JSON path, bypassing client negotiation.
	body, _ := json.Marshal(api.CampaignRequest{Schema: api.Version, Specs: specs})
	resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !api.IsContentType(ct, "application/json") {
		t.Fatalf("plain POST got content type %q", ct)
	}
	var viaJSON api.CampaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&viaJSON); err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(viaStream)
	b, _ := json.Marshal(viaJSON.Items)
	if !bytes.Equal(a, b) {
		t.Errorf("streamed merge differs from buffered JSON:\nstream: %s\njson:   %s", a, b)
	}
}

// TestClientFallsBackToJSONServer: a server that has never heard of
// the binary wire (it ignores Accept and answers JSON) still works
// through the negotiating client, for runs and campaigns alike.
func TestClientFallsBackToJSONServer(t *testing.T) {
	res := wireResult(11)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		api.WriteJSON(w, http.StatusOK, api.RunResponse{Key: req.Spec.Key(), Result: res})
	})
	mux.HandleFunc("POST /v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		var req api.CampaignRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
		items := make([]api.CampaignItem, len(req.Specs))
		for i := range req.Specs {
			items[i] = api.CampaignItem{Key: req.Specs[i].Key(), Result: res}
		}
		api.WriteJSON(w, http.StatusOK, api.CampaignResponse{Items: items})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := &Client{Base: ts.URL}

	if _, err := cl.Run(context.Background(), cheapSpec()); err != nil {
		t.Fatalf("Run against JSON-only server: %v", err)
	}
	items, err := cl.Campaign(context.Background(), []lab.Spec{cheapSpec(), cheapSpec()})
	if err != nil {
		t.Fatalf("Campaign against JSON-only server: %v", err)
	}
	if len(items) != 2 {
		t.Errorf("got %d items, want 2", len(items))
	}
}

// TestClientRetriesCutStream: a server that dies mid-stream on its
// first attempt must read as a retryable transport failure, and the
// retry must deliver the full campaign.
func TestClientRetriesCutStream(t *testing.T) {
	item := api.CampaignItem{Key: cheapSpec().Key(), Result: wireResult(5)}
	var calls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaign", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", api.StreamContentType)
		w.WriteHeader(http.StatusOK)
		if calls.Add(1) == 1 {
			// One item of two, then die without the terminal frame.
			w.Write(api.AppendStreamItemFrame(nil, 0, &item)) //nolint:errcheck
			panic(http.ErrAbortHandler)
		}
		var out []byte
		out = api.AppendStreamItemFrame(out, 0, &item)
		out = api.AppendStreamItemFrame(out, 1, &item)
		out = api.AppendStreamEndFrame(out, 2)
		w.Write(out) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	cl := &Client{Base: ts.URL, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}

	items, err := cl.Campaign(context.Background(), []lab.Spec{cheapSpec(), cheapSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d attempts, want 2 (one cut, one retry)", calls.Load())
	}
}

// TestClientReusesConnections counts TCP dials under a burst of
// sequential requests across every endpoint. Before the body-drain
// fix, json.Decoder left the encoder's trailing newline unread, the
// transport refused to pool the connection, and every request dialed
// fresh; now one connection must serve them all.
func TestClientReusesConnections(t *testing.T) {
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0)
	ts, cl := newTestServer(t, &Server{Lab: l})

	var dials atomic.Int32
	base := &net.Dialer{}
	cl.HTTP = &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return base.DialContext(ctx, network, addr)
			},
		},
	}

	ctx := context.Background()
	spec := cheapSpec()
	for i := 0; i < 5; i++ {
		spec.Scale = 0.01 * float64(i+1)
		if _, err := cl.Run(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Campaign(ctx, []lab.Spec{cheapSpec()}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Metrics(ctx); err != nil {
		t.Fatal(err)
	}
	_ = ts
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials for 8 sequential requests, want 1 (keep-alive broken)", got)
	}
}
