// Package api is the single definition of the simulation service's
// wire surface. Every request/response type spoken over HTTP — by the
// single-node daemon (internal/serve), the sharded coordinator
// (internal/cluster), and the retrying client (serve.Client) — lives
// here exactly once, versioned by one explicit schema constant, so a
// wire change is a change to this package and nothing else. It holds
// wire types and their codecs only: every driver runs specs through a
// lab.Lab, whose Backend is the seam for remote execution.
package api

import (
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
)

// Version is the wire schema version carried by every request
// (RunRequest.Schema, CampaignRequest.Schema) and echoed in /metrics.
// A request carrying a different version is rejected with 400 instead
// of being guessed at: the spec encoding (lab.Spec as JSON, including
// the full machine configuration) must round-trip to an identical
// cache key on the server, and a version skew would silently break
// that. Compatibility contract: within one Version, field names, JSON
// tags, and the binary frame layouts below may only grow — never
// change meaning — and internal/api's golden wire tests plus the
// committed testdata/v1 fixture corpus enforce exactly that.
const Version = 1

// RunRequest asks for one simulation. The spec is the complete
// lab.Spec — workload, input, binary variant, full machine
// configuration, scale, compiler thresholds, cycle bound — serialized
// directly, so decode(encode(spec)) has the same Key() as the original
// (TestWireSpecKeyRoundTrip).
type RunRequest struct {
	Schema int      `json:"schema"`
	Spec   lab.Spec `json:"spec"`
	// TimeoutMs bounds this run's wall-clock time on the server
	// (0 = server default). The deadline propagates through
	// lab.ResultContext into the simulator's cycle loop; an expired
	// run answers 504 and is not cached.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// RunResponse carries one simulation result. Key is the server-side
// cache key of the decoded spec; clients compare it against their own
// Key() to detect wire-format skew before trusting the result.
type RunResponse struct {
	Key    string      `json:"key"`
	Result *cpu.Result `json:"result"`
}

// CampaignRequest asks for a batch of simulations. The batch is
// admitted as a unit (it either fits the queue or is rejected whole
// with 429) and fans out across the server's worker pool; results come
// back in request order.
type CampaignRequest struct {
	Schema int        `json:"schema"`
	Specs  []lab.Spec `json:"specs"`
	// TimeoutMs bounds the whole batch (0 = server default).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// CampaignItem is one result of a campaign, in request order. Exactly
// one of Result and Err is set: a failed item does not fail the batch.
type CampaignItem struct {
	Key    string      `json:"key"`
	Result *cpu.Result `json:"result,omitempty"`
	Err    string      `json:"error,omitempty"`
}

// CampaignResponse carries a campaign's results in request order.
type CampaignResponse struct {
	Items []CampaignItem `json:"items"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Health is a single worker's /healthz body. Status is "ok" (HTTP 200)
// or "draining" (HTTP 503) — a draining server finishes admitted work
// but refuses new simulations, so load balancers should stop routing
// to it.
type Health struct {
	Status     string  `json:"status"`
	UptimeSecs float64 `json:"uptime_secs"`
	Pending    int64   `json:"pending"`
	InFlight   int     `json:"in_flight_sims"`
}

// LabMetrics is the scheduler/cache section of /metrics, lifted from
// lab.Counters. HitRatio is the fraction of successful acquisitions
// served from a cache (memo table or persistent store).
type LabMetrics struct {
	Fresh    uint64  `json:"fresh"`
	DiskHits uint64  `json:"disk_hits"`
	MemHits  uint64  `json:"mem_hits"`
	Errors   uint64  `json:"errors"`
	Canceled uint64  `json:"canceled"`
	HitRatio float64 `json:"hit_ratio"`
}

// StoreMetrics is the store-lifecycle section of /metrics, present
// when the server's result store runs with a size bound
// (-store-max-bytes): tracked on-disk bytes, the bound, and the
// eviction count.
type StoreMetrics struct {
	Bytes     int64  `json:"store_bytes"`
	MaxBytes  int64  `json:"store_max_bytes"`
	Evictions uint64 `json:"evictions"`
	// Pinned always reads 0: a journal no longer pins store records.
	// The field is kept because wire version 1 may only grow.
	Pinned int `json:"pinned"`
}

// JournalMetrics is a /metrics section no server sends: result frames
// in a journal and how many were replayed at startup. A daemon resumes
// from its result store and keeps no journal; the type is kept because
// wire version 1 may only grow.
type JournalMetrics struct {
	Frames  uint64 `json:"frames"`
	Resumed uint64 `json:"resumed"`
}

// Metrics is a single worker's /metrics body: admission-control state,
// request and response counts, the scheduler's cache counters, and the
// per-bucket stall-cycle totals summed over every result this server
// has served (map keys are the canonical obs bucket names;
// encoding/json emits them sorted, so the body is stable).
type Metrics struct {
	Schema     int     `json:"schema"`
	UptimeSecs float64 `json:"uptime_secs"`
	Draining   bool    `json:"draining"`

	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	Pending    int64 `json:"pending"`
	InFlight   int   `json:"in_flight_sims"`
	// MeanRunMs is the mean latency of the most recent runs (memo
	// hits included) — the signal behind the 429 Retry-After hint.
	MeanRunMs float64 `json:"mean_run_ms"`
	// RetryAfterSecs is the hint a 429 would carry right now:
	// pending × mean run latency ÷ workers, clamped.
	RetryAfterSecs int `json:"retry_after_secs"`

	Requests  map[string]uint64 `json:"requests"`
	Responses map[string]uint64 `json:"responses"`

	Lab    LabMetrics        `json:"lab"`
	Stalls map[string]uint64 `json:"stall_cycles"`

	// Store is present when the result store has a size bound. Journal
	// is never set (see JournalMetrics).
	Store   *StoreMetrics   `json:"store,omitempty"`
	Journal *JournalMetrics `json:"journal,omitempty"`
}

// ClusterHealth is the coordinator's /healthz body. Status is "ok"
// (HTTP 200, at least one live worker), "degraded" (HTTP 503, no live
// workers — requests would be shed), or "draining" (HTTP 503).
type ClusterHealth struct {
	Status     string  `json:"status"`
	UptimeSecs float64 `json:"uptime_secs"`
	// Generation is the membership generation: it increments on every
	// worker liveness transition, so a changed value means the live set
	// changed, and with it where some keys are homed.
	Generation   uint64 `json:"generation"`
	LiveWorkers  int    `json:"live_workers"`
	TotalWorkers int    `json:"total_workers"`
}

// WorkerStatus is one worker's row in the coordinator's /metrics, in
// registration order.
type WorkerStatus struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	// Requests counts attempts routed to this worker.
	Requests uint64 `json:"requests"`
	// Errors counts attempts that failed (transport or non-2xx).
	Errors uint64 `json:"errors"`
	// Hedges always reads 0: the coordinator no longer hedges. The field
	// is kept because wire version 1 may only grow.
	Hedges uint64 `json:"hedges"`
}

// ClusterMetrics is the coordinator's /metrics body: membership,
// routing counters, and the per-worker table.
type ClusterMetrics struct {
	Schema     int     `json:"schema"`
	UptimeSecs float64 `json:"uptime_secs"`
	Draining   bool    `json:"draining"`

	// Membership. Replicas always reads 0: the coordinator places keys
	// by rendezvous hashing, which has no virtual nodes. The field is
	// kept because wire version 1 may only grow.
	Generation   uint64 `json:"generation"`
	Replicas     int    `json:"replicas"`
	LiveWorkers  int    `json:"live_workers"`
	TotalWorkers int    `json:"total_workers"`

	// Routing counters: Reroutes counts re-dispatches of a run (after a
	// failure or a busy worker), each to its home among the workers
	// then live. Hedges always reads 0: the coordinator no longer
	// hedges, and the field is kept because wire version 1 may only
	// grow.
	Reroutes uint64 `json:"reroutes"`
	Hedges   uint64 `json:"hedges"`
	// CheckpointHits counts request items answered without touching a
	// worker: the coordinator lab's memo hits, i.e. results this
	// process routed earlier.
	CheckpointHits uint64 `json:"checkpoint_hits"`

	Requests  map[string]uint64 `json:"requests"`
	Responses map[string]uint64 `json:"responses"`

	// Journal is never set (see JournalMetrics): a coordinator keeps no
	// journal.
	Journal *JournalMetrics `json:"journal,omitempty"`

	Workers []WorkerStatus `json:"workers"`
}
