package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// TestRegistryGenerationsAndRingCache: liveness transitions bump the
// generation exactly once each, a dead worker homes no key, and a
// resurrected one homes keys again.
func TestRegistryGenerationsAndRingCache(t *testing.T) {
	keys := campaignKeys(t)
	r := NewRegistry([]string{"http://a", "http://b", "http://c"})
	if g := r.Generation(); g != 0 {
		t.Fatalf("fresh registry at generation %d, want 0", g)
	}
	if len(r.Live()) != 3 {
		t.Fatalf("live = %d, want all 3 (optimistic start)", len(r.Live()))
	}

	w := r.Workers()[1]
	r.MarkDead(w)
	if g := r.Generation(); g != 1 {
		t.Errorf("generation = %d after one death, want 1", g)
	}
	r.MarkDead(w) // idempotent
	if g := r.Generation(); g != 1 {
		t.Errorf("generation = %d after re-marking a dead worker, want still 1", g)
	}
	if n := homeCounts(r, keys)[w.URL]; n != 0 {
		t.Fatalf("dead worker %s still homes %d keys", w.URL, n)
	}

	r.MarkLive(w)
	if g := r.Generation(); g != 2 {
		t.Errorf("generation = %d after resurrection, want 2", g)
	}
	if homeCounts(r, keys)[w.URL] == 0 {
		t.Error("resurrected worker homes no keys")
	}
}

// TestNewRegistryOneWorkerPerURL: a URL listed twice is one worker,
// registered where it first appears.
func TestNewRegistryOneWorkerPerURL(t *testing.T) {
	r := NewRegistry([]string{"http://a", "http://a", "http://b"})
	var got []string
	for _, w := range r.Workers() {
		got = append(got, w.URL)
	}
	if len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Errorf("workers = %v, want [http://a http://b]", got)
	}
}

// TestRegistryProbe: a probe round classifies a healthy worker as
// live, an unreachable one as dead, a draining one as dead (it must
// stop receiving new shards), and resurrects a worker that heals.
func TestRegistryProbe(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	flappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if !healthy.Load() {
			status = "sick"
		}
		json.NewEncoder(w).Encode(api.Health{Status: status}) //nolint:errcheck
	}))
	defer flappy.Close()

	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close() // unreachable from the start

	draining := &serve.Server{Lab: lab.New()}
	// Drain with no work in flight completes immediately.
	drainSrv := httptest.NewServer(drainingHandler(t, draining))
	defer drainSrv.Close()

	r := NewRegistry([]string{flappy.URL, goneURL, drainSrv.URL})
	r.ProbeOnce(context.Background())
	if ws := r.Workers(); !ws[0].Alive() || ws[1].Alive() || ws[2].Alive() {
		t.Errorf("after probe: alive = [%v %v %v], want [true false false]",
			ws[0].Alive(), ws[1].Alive(), ws[2].Alive())
	}

	healthy.Store(false)
	r.ProbeOnce(context.Background())
	if r.Workers()[0].Alive() {
		t.Error("sick worker survived a probe")
	}
	healthy.Store(true)
	r.ProbeOnce(context.Background())
	if !r.Workers()[0].Alive() {
		t.Error("healed worker was not resurrected")
	}
}

// drainingHandler serves a real serve.Server that has been drained, so
// its /healthz answers "draining".
func drainingHandler(t *testing.T, s *serve.Server) http.Handler {
	t.Helper()
	h := s.Handler()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRegistryStartStop: the probe loop starts, demotes a worker that
// goes away, and stops cleanly (twice — Stop is idempotent).
func TestRegistryStartStop(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"}) //nolint:errcheck
	}))
	r := NewRegistry([]string{ts.URL})
	r.ProbeInterval = time.Millisecond
	r.Start()
	r.Start() // idempotent
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for r.Workers()[0].Alive() {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never demoted the closed worker")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
}
