package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// Client talks to a wishsimd server with retries. Transport errors,
// 429, and 5xx answers are retried with exponential backoff and seeded
// jitter (a Retry-After header raises the floor of the wait); 4xx
// answers are permanent. Run has exactly the lab.Lab.Backend
// signature, so plugging a remote server into a local campaign is one
// assignment:
//
//	cl := &serve.Client{Base: "http://sim-host:8081"}
//	sched.Backend = cl.Run
//
// Client is safe for concurrent use.
type Client struct {
	// Base is the server's base URL, e.g. "http://localhost:8081".
	Base string
	// HTTP is the underlying client (nil = a client with a 15-minute
	// overall timeout; per-request deadlines should come from ctx).
	HTTP *http.Client
	// Retries is how many times a retryable failure is retried
	// (< 0 = none, 0 = DefaultRetries).
	Retries int
	// Backoff is the first retry's wait; it doubles per attempt up to
	// MaxBackoff (zero values = 100ms / 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed seeds the jitter stream (0 = 1). Two clients with the same
	// seed and the same sequence of failures wait the same times —
	// retry schedules in tests are reproducible.
	Seed int64
	// Log, when non-nil, receives one line per retry.
	Log io.Writer

	once sync.Once
	mu   sync.Mutex
	rng  *rand.Rand
}

// DefaultRetries is the retry budget when Client.Retries is zero.
const DefaultRetries = 4

func (c *Client) init() {
	c.once.Do(func() {
		if c.HTTP == nil {
			c.HTTP = &http.Client{Timeout: 15 * time.Minute}
		}
		if c.Retries == 0 {
			c.Retries = DefaultRetries
		}
		if c.Backoff <= 0 {
			c.Backoff = 100 * time.Millisecond
		}
		if c.MaxBackoff <= 0 {
			c.MaxBackoff = 5 * time.Second
		}
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	})
}

// Run executes one spec remotely and returns its result. The context
// bounds the whole call including retries; its deadline (if sooner
// than the server's ceiling) is forwarded as the request timeout so
// the server stops simulating when the client stops waiting.
func (c *Client) Run(ctx context.Context, spec lab.Spec) (*cpu.Result, error) {
	c.init()
	req := api.RunRequest{Schema: api.Version, Spec: spec, TimeoutMs: timeoutMs(ctx)}
	var resp api.RunResponse
	if err := c.do(ctx, "/v1/run", req, &resp); err != nil {
		return nil, err
	}
	if want := spec.Key(); resp.Key != want {
		return nil, fmt.Errorf("serve: server computed key %q for a spec with key %q (wire-format skew?)",
			resp.Key, want)
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("serve: server answered 200 with no result")
	}
	return resp.Result, nil
}

// Campaign executes a batch remotely and returns its items in request
// order. Per-item failures are reported inside the items; the error
// return covers transport- and batch-level failures only, and an
// answer whose items do not carry their specs' keys, which is never a
// partial batch.
func (c *Client) Campaign(ctx context.Context, specs []lab.Spec) ([]api.CampaignItem, error) {
	c.init()
	req := api.CampaignRequest{Schema: api.Version, Specs: specs, TimeoutMs: timeoutMs(ctx)}
	sink := &campaignSink{n: len(specs)}
	if err := c.do(ctx, "/v1/campaign", req, sink); err != nil {
		return nil, err
	}
	for i := range sink.items {
		if got, want := sink.items[i].Key, specs[i].Key(); got != want {
			return nil, fmt.Errorf("serve: server computed key %q for campaign item %d with key %q (wire-format skew?)",
				got, i, want)
		}
	}
	return sink.items, nil
}

// campaignSink is the decode target for /v1/campaign: it negotiates
// the stream wire and accepts either encoding, whichever the server
// speaks.
type campaignSink struct {
	n     int
	items []api.CampaignItem
}

// Health fetches /healthz. A draining server answers 503 with a valid
// body, so that status is not an error here.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	c.init()
	var h api.Health
	if err := c.get(ctx, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches /metrics.
func (c *Client) Metrics(ctx context.Context) (*api.Metrics, error) {
	c.init()
	var m api.Metrics
	if err := c.get(ctx, "/metrics", &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// timeoutMs converts ctx's deadline into the wire timeout hint.
func timeoutMs(ctx context.Context) int64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// do POSTs a JSON request and decodes the answer into out, retrying
// retryable failures.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	c.init()
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("serve: encode request: %w", err)
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("serve: giving up after %d attempts (%v): %w", attempt, lastErr, err)
			}
			return err
		}
		var retryable bool
		retryable, lastErr = c.attempt(ctx, path, body, out)
		if lastErr == nil {
			return nil
		}
		if !retryable || attempt >= c.Retries {
			return lastErr
		}
		wait := c.backoff(attempt, retryAfterOf(lastErr))
		c.logf("serve: attempt %d against %s failed (%v), retrying in %v", attempt+1, path, lastErr, wait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return fmt.Errorf("serve: giving up after %d attempts (%v): %w", attempt+1, lastErr, ctx.Err())
		}
	}
}

// StatusError is a non-2xx answer. It keeps the status and the
// server's Retry-After hint so callers that do their own routing — the
// cluster coordinator re-homing a run, or this client's backoff —
// can distinguish "the worker is overloaded" (429, wait Retry-After)
// from "the worker is broken" (5xx, route around it) from "the request
// is wrong" (4xx, give up). A lab Backend returns one to choose the
// status the server answers with (Server's rejectRun).
type StatusError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: server answered %d: %s", e.Status, e.Msg)
}

func retryAfterOf(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// attempt performs one HTTP exchange; retryable reports whether a
// failure may be retried.
func (c *Client) attempt(ctx context.Context, path string, body []byte, out any) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(c.Base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return false, fmt.Errorf("serve: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept := acceptFor(out); accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		// Transport-level failure (connection refused, reset, dropped
		// mid-response): retryable by definition.
		return true, fmt.Errorf("serve: %s: %w", path, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Status: resp.StatusCode, Msg: readErrBody(resp.Body)}
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500, se
	}
	return c.decodeResponse(resp, out)
}

// decodeResponse parses a 200 body into out, dispatching on the
// response content type the server chose during negotiation. Malformed
// bodies of either encoding are retryable — a garbled response means
// the exchange died, not that the request was wrong.
func (c *Client) decodeResponse(resp *http.Response, out any) (retryable bool, err error) {
	ct := resp.Header.Get("Content-Type")
	switch o := out.(type) {
	case *api.RunResponse:
		if api.IsContentType(ct, api.BinaryContentType) {
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return true, fmt.Errorf("serve: read binary response: %w", err)
			}
			if err := api.DecodeRunResponse(data, o); err != nil {
				return true, err
			}
			return false, nil
		}
	case *campaignSink:
		if api.IsContentType(ct, api.StreamContentType) {
			items, err := api.ReadCampaignStream(resp.Body, o.n)
			if err != nil {
				return true, err
			}
			o.items = items
			return false, nil
		}
		var cr api.CampaignResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			return true, fmt.Errorf("serve: decode response: %w", err)
		}
		if len(cr.Items) != o.n {
			return false, fmt.Errorf("serve: campaign answered %d items for %d specs", len(cr.Items), o.n)
		}
		o.items = cr.Items
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return true, fmt.Errorf("serve: decode response: %w", err)
	}
	return false, nil
}

// acceptFor is the Accept header offered for a decode target: the
// binary alternative first, JSON as the always-acceptable fallback, so
// old servers (which never look at Accept) keep answering JSON and the
// exchange works across any version skew.
func acceptFor(out any) string {
	switch out.(type) {
	case *api.RunResponse:
		return api.BinaryContentType + ", application/json"
	case *campaignSink:
		return api.StreamContentType + ", application/json"
	}
	return ""
}

// drainClose reads a response body to EOF (bounded) before closing it.
// json.Decoder stops at the end of the JSON value, which leaves at
// least the encoder's trailing newline unread — and net/http only
// returns a connection to the keep-alive pool once the body has been
// read to EOF, so closing without draining silently dialed a fresh
// connection per request (TestClientReusesConnections counts dials).
// The drain is bounded: a response with an absurd tail is cheaper to
// abandon than to swallow, at the cost of that one connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 256<<10)) //nolint:errcheck // best-effort; worst case the conn is not reused
	body.Close()
}

// get performs one GET without retries (health and metrics probes are
// themselves the things callers poll).
func (c *Client) get(ctx context.Context, path string, out any) error {
	c.init()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(c.Base, "/")+path, nil)
	if err != nil {
		return fmt.Errorf("serve: build request: %w", err)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("serve: %s: %w", path, err)
	}
	defer drainClose(resp.Body)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decode %s: %w", path, err)
	}
	return nil
}

// backoff computes the wait before retry #attempt: exponential from
// Backoff, capped at MaxBackoff, scaled by seeded jitter in [0.5, 1.5),
// and floored at the server's Retry-After hint.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.Backoff << attempt
	if d > c.MaxBackoff || d <= 0 {
		d = c.MaxBackoff
	}
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

func readErrBody(r io.Reader) string {
	var e api.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(r, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return "(no error body)"
}

func (c *Client) logf(format string, args ...any) {
	if c.Log == nil {
		return
	}
	fmt.Fprintf(c.Log, format+"\n", args...)
}
