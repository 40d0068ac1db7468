package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"wishbranch/internal/lab"
)

// These tests drive serve.Client against a flapping backend — the
// Fault injector's range form ("error:1-3" fails the first three
// requests and then heals) — through the full retry state machine:
// retry-until-success with an exact backoff count, retries-exhausted,
// and a context deadline aborting the loop mid-backoff.

// flappingServer builds a server whose first requests fail per f.
func flappingServer(t *testing.T, f *Fault) *Client {
	t.Helper()
	l := lab.New()
	l.Backend = scriptedBackend(nil, 0)
	_, cl := newTestServer(t, &Server{Lab: l, Fault: f})
	return cl
}

// backoffs counts the client's retry waits by its own log lines — one
// "retrying in" line is written per backoff sleep, so the count is the
// number of backoff calls the retry loop made.
func backoffs(buf *bytes.Buffer) int {
	return strings.Count(buf.String(), "retrying in")
}

// TestClientFlappingErrorUntilSuccess: three consecutive injected 500s
// then a healthy backend — the client must take exactly three backoff
// waits and succeed on the fourth attempt.
func TestClientFlappingErrorUntilSuccess(t *testing.T) {
	cl := flappingServer(t, &Fault{Mode: "error", Nth: 1, Last: 3})
	var buf bytes.Buffer
	cl.Log = &buf
	cl.Retries = 4

	res, err := cl.Run(context.Background(), cheapSpec())
	if err != nil {
		t.Fatalf("client did not outlast the flap: %v", err)
	}
	if res.Cycles != 20 {
		t.Errorf("result = %+v, want the scripted 20 cycles", res)
	}
	if got := backoffs(&buf); got != 3 {
		t.Errorf("client backed off %d times against error:1-3, want exactly 3", got)
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Responses["500"] != 3 {
		t.Errorf("responses = %v, want exactly three 500s", m.Responses)
	}
}

// TestClientFlappingDropUntilSuccess: two aborted connections then a
// healthy backend — transport-level flapping heals the same way.
func TestClientFlappingDropUntilSuccess(t *testing.T) {
	cl := flappingServer(t, &Fault{Mode: "drop", Nth: 1, Last: 2})
	var buf bytes.Buffer
	cl.Log = &buf

	if _, err := cl.Run(context.Background(), cheapSpec()); err != nil {
		t.Fatalf("client did not outlast the dropped connections: %v", err)
	}
	if got := backoffs(&buf); got != 2 {
		t.Errorf("client backed off %d times against drop:1-2, want exactly 2", got)
	}
}

// TestClientFlappingRetriesExhausted: a flap longer than the retry
// budget — the client must make Retries+1 attempts, back off Retries
// times, and surface the final 500.
func TestClientFlappingRetriesExhausted(t *testing.T) {
	cl := flappingServer(t, &Fault{Mode: "error", Nth: 1, Last: 100})
	var buf bytes.Buffer
	cl.Log = &buf
	cl.Retries = 2

	_, err := cl.Run(context.Background(), cheapSpec())
	if err == nil {
		t.Fatal("exhausted retries did not surface as an error")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
		t.Errorf("err = %v, want the final injected 500", err)
	}
	if got := backoffs(&buf); got != 2 {
		t.Errorf("client backed off %d times with Retries=2, want exactly 2", got)
	}
	m, merr := cl.Metrics(context.Background())
	if merr != nil {
		t.Fatal(merr)
	}
	if m.Responses["500"] != 3 {
		t.Errorf("responses = %v, want 3 attempts (Retries=2 + the first)", m.Responses)
	}
}

// TestClientFlappingDeadlineAborts: a context deadline shorter than
// the backoff schedule aborts the retry loop mid-wait and reports the
// deadline, not the transient failure alone.
func TestClientFlappingDeadlineAborts(t *testing.T) {
	cl := flappingServer(t, &Fault{Mode: "drop", Nth: 1, Last: 100})
	cl.Retries = 100
	cl.Backoff = 200 * time.Millisecond
	cl.MaxBackoff = 200 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := cl.Run(ctx, cheapSpec())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want a wrapped context.DeadlineExceeded", err)
	}
}

// TestFaultRangeWindow: a ranged fault fires on every request of its
// window and on no other.
func TestFaultRangeWindow(t *testing.T) {
	f := &Fault{Mode: "error", Nth: 2, Last: 4}
	var fired []int
	for i := 1; i <= 6; i++ {
		if f.hit() {
			fired = append(fired, i)
		}
	}
	if len(fired) != 3 || fired[0] != 2 || fired[2] != 4 {
		t.Errorf("range 2-4 fired on %v, want [2 3 4]", fired)
	}
}
