package harness

// The cluster oracle: single-node vs coordinator+workers byte identity
// under seeded chaos. Each check stands up an in-process fleet of real
// serve.Server workers behind httptest listeners, fronts them with a
// real cluster.Coordinator + Registry, derives a deterministic chaos
// schedule from the seed — per-worker fault injection windows set on
// each server's serve.Fault hook, plus at most one mid-campaign
// worker kill — runs a campaign through the coordinator's wire API,
// and demands every item byte-identical to a local simulation of the
// same spec. Faults are the coordinator's job to survive: a schedule
// is bounded so that retries + re-routing always have a live path, so
// any per-item error (or mismatched bytes) is a conformance failure.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"wishbranch/internal/api"
	"wishbranch/internal/cluster"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
	"wishbranch/internal/workload"
)

// ChaosEvent is one scheduled misbehavior of one worker.
type ChaosEvent struct {
	// Worker indexes the fleet.
	Worker int `json:"worker"`
	// Fault, when non-empty, is a serve.ParseFault spec injected into
	// the worker ("error:1-2", "drop:1", "delay:1:5ms", ...).
	Fault string `json:"fault,omitempty"`
	// KillAfter, when non-zero, kills the worker at its Nth admitted
	// API request: that request and every later one are aborted
	// mid-response, exactly what a SIGKILLed process looks like to the
	// coordinator.
	KillAfter uint64 `json:"kill_after,omitempty"`
}

// ChaosWorkers is the fleet size the cluster oracle stands up.
const ChaosWorkers = 3

// ChaosSchedule derives the deterministic chaos schedule for a seed.
// One seed-chosen worker is the designated survivor: it is never
// killed and never given a routable fault (at worst a delay), because
// the registry runs without background probes during a check, so a
// worker marked dead stays dead — with every worker dead the campaign
// could not complete no matter how correct the coordinator is. Every
// other worker may be killed mid-campaign (at most one), serve 5xx
// windows, drop connections, or stall.
func ChaosSchedule(seed uint64) []ChaosEvent {
	g := &rng{s: seed ^ 0xC8A05E21D3F85A77}
	var events []ChaosEvent
	survivor := g.intn(ChaosWorkers)
	if g.intn(4) == 0 {
		victim := g.intn(ChaosWorkers)
		if victim != survivor {
			events = append(events, ChaosEvent{
				Worker:    victim,
				KillAfter: uint64(1 + g.intn(3)),
			})
		}
	}
	for w := 0; w < ChaosWorkers; w++ {
		var fault string
		switch pick := g.intn(4); {
		case pick == 0 && w != survivor:
			// Bounded 5xx window: heals within the retry budget (and the
			// worker is marked dead regardless — routing must absorb it).
			first := 1 + g.intn(2)
			fault = fmt.Sprintf("error:%d-%d", first, first+g.intn(2))
		case pick == 1 && w != survivor:
			fault = fmt.Sprintf("drop:%d", 1+g.intn(3))
		case pick == 2:
			fault = fmt.Sprintf("delay:%d:%dms", 1+g.intn(3), 1+g.intn(10))
		default:
			continue // this worker behaves
		}
		events = append(events, ChaosEvent{Worker: w, Fault: fault})
	}
	return events
}

// rng is the harness-side deterministic PRNG (same splitmix64 shape as
// the program generator's, separate so their streams never couple).
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// CampaignFromSeed derives the small real-workload campaign a cluster
// check runs: n specs over seed-chosen benchmarks, inputs, and
// variants at a tiny scale, so each simulation is milliseconds but the
// routing and failover paths all see distinct cache keys.
func CampaignFromSeed(seed uint64, n int) []lab.Spec {
	g := &rng{s: seed ^ 0x5851F42D4C957F2D}
	benches := workload.All()
	inputs := workload.Inputs()
	variants := compiler.Variants()
	specs := make([]lab.Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, lab.Spec{
			Bench:      benches[g.intn(len(benches))].Name,
			Input:      inputs[g.intn(len(inputs))],
			Variant:    variants[g.intn(len(variants))],
			Machine:    config.DefaultMachine(),
			Scale:      0.02,
			Thresholds: compiler.DefaultThresholds(),
		})
	}
	return specs
}

// ClusterOracle checks that a campaign through a chaos-ridden
// coordinator+workers fleet returns byte-identical results to local
// single-process simulation.
type ClusterOracle struct {
	// Specs is the campaign length per check (0 = 6).
	Specs int
}

func (o *ClusterOracle) Name() string { return "cluster" }

// SourceSensitive is false: the cluster oracle's campaign is derived
// from the seed alone (real workloads, not the generated program), so
// shrinking the source cannot change its verdict.
func (o *ClusterOracle) SourceSensitive() bool { return false }

func (o *ClusterOracle) Check(ctx context.Context, c Case) error {
	n := o.Specs
	if n <= 0 {
		n = 6
	}
	specs := CampaignFromSeed(c.Seed, n)
	chaos := ChaosSchedule(c.Seed)

	// Local ground truth, computed first so a divergence message can
	// show both sides.
	want := make([]*api.CampaignItem, len(specs))
	for i, s := range specs {
		res, err := s.Simulate()
		if err != nil {
			return fmt.Errorf("local spec %d: %w", i, err)
		}
		want[i] = &api.CampaignItem{Key: s.Key(), Result: res}
	}

	items, err := runChaosCampaign(ctx, specs, chaos)
	if err != nil {
		return fmt.Errorf("chaos %+v: %w", chaos, err)
	}
	if len(items) != len(specs) {
		return fmt.Errorf("chaos %+v: %d items for %d specs", chaos, len(items), len(specs))
	}
	for i := range items {
		if items[i].Err != "" {
			return fmt.Errorf("chaos %+v: item %d failed under chaos the coordinator should absorb: %s",
				chaos, i, items[i].Err)
		}
		gotB, err := json.Marshal(items[i])
		if err != nil {
			return err
		}
		wantB, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		if string(gotB) != string(wantB) {
			return fmt.Errorf("chaos %+v: item %d differs from local run:\ncluster: %s\nlocal:   %s",
				chaos, i, gotB, wantB)
		}
	}
	return nil
}

// runChaosCampaign stands up the fleet, applies the schedule, and runs
// the campaign through the coordinator's public wire API.
func runChaosCampaign(ctx context.Context, specs []lab.Spec, chaos []ChaosEvent) ([]api.CampaignItem, error) {
	faults := map[int]string{}
	kills := map[int]uint64{}
	for _, ev := range chaos {
		if ev.Fault != "" {
			faults[ev.Worker] = ev.Fault
		}
		if ev.KillAfter != 0 {
			kills[ev.Worker] = ev.KillAfter
		}
	}

	urls := make([]string, ChaosWorkers)
	servers := make([]*httptest.Server, ChaosWorkers)
	for w := 0; w < ChaosWorkers; w++ {
		fault, err := serve.ParseFault(faults[w])
		if err != nil {
			return nil, fmt.Errorf("worker %d fault: %w", w, err)
		}
		srv := &serve.Server{Lab: lab.New(), Workers: 2, Fault: fault}
		h := srv.Handler()
		if kill, ok := kills[w]; ok {
			h = killAfter(h, kill)
		}
		ts := httptest.NewServer(h)
		defer ts.Close()
		servers[w] = ts
		urls[w] = ts.URL
	}

	// Unbounded, as wishsimd builds a coordinator without -j: the
	// workers' own admission is the backpressure.
	co := cluster.NewCoordinator(cluster.NewRegistry(urls),
		&serve.Server{Lab: lab.New(), Workers: -1})
	co.Retries = 4
	co.Backoff = 2 * time.Millisecond
	coord := httptest.NewServer(co.Handler())
	defer coord.Close()

	return (&serve.Client{Base: coord.URL, Retries: -1}).Campaign(ctx, specs)
}

// killAfter wraps a worker handler so its nth admitted API request —
// and every one after it — is severed mid-response, which the
// coordinator's client sees as a transport error, same as a killed
// process. Health probes are severed too: a dead worker is dead to
// everyone.
func killAfter(next http.Handler, n uint64) http.Handler {
	var reqs atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if reqs.Add(1) >= n {
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}
