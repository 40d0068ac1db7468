package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wishbranch/internal/serve"
)

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
