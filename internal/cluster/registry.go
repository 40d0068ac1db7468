package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

// Probe timing: the cadence when Registry.ProbeInterval is zero, and
// the bound on one probe round.
const (
	DefaultProbeInterval = 2 * time.Second
	DefaultProbeTimeout  = 2 * time.Second
)

// Worker is one wishsimd backend the coordinator can route to. Its
// liveness flag is written by both the health-probe loop and the
// request path (a transport error or 5xx marks it dead on the spot —
// the probe merely confirms, and resurrects it when it heals).
type Worker struct {
	// URL is the worker's base URL; it is also the worker's identity
	// in key placement (see Registry.home).
	URL string
	// Client is the wire client for this worker. Its internal retries
	// are disabled — the coordinator owns retry policy, because a
	// retry that should re-home to another worker must not be burned
	// inside a single-worker client loop.
	Client *serve.Client

	seed  uint64 // lab.KeyHash(URL), fixed at NewRegistry
	alive atomic.Bool
	reqs  atomic.Uint64 // attempts routed to this worker
	errs  atomic.Uint64 // attempts that failed
}

// Alive reports whether the worker is currently routable.
func (w *Worker) Alive() bool { return w.alive.Load() }

// Registry tracks cluster membership: the fixed worker set, each
// worker's liveness, and a generation number that increments on every
// liveness transition, so /healthz and /metrics show when the live set
// changed. It also places keys: home picks a key's worker from the
// live set on every call, so placement needs no state of its own.
type Registry struct {
	// ProbeInterval is the health-probe cadence once Start has been
	// called (0 means DefaultProbeInterval).
	ProbeInterval time.Duration
	// Log, when non-nil, receives one line per liveness transition.
	Log io.Writer

	workers []*Worker
	gen     atomic.Uint64

	mu sync.Mutex // serializes Log lines

	stop chan struct{}
	done chan struct{}
}

// NewRegistry builds a registry over the given worker base URLs, one
// worker per distinct URL (the first entry wins): a repeated URL would
// never home a key, yet a run whose home died would spend one more
// failed attempt on the copy before re-homing. All workers start
// optimistically alive: the first failed request or probe demotes a
// dead one, which costs one bounded retry instead of blocking startup
// on a probe round.
func NewRegistry(urls []string) *Registry {
	r := &Registry{}
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		if seen[u] {
			continue
		}
		seen[u] = true
		w := &Worker{URL: u, Client: &serve.Client{Base: u, Retries: -1}, seed: lab.KeyHash(u)}
		w.alive.Store(true)
		r.workers = append(r.workers, w)
	}
	return r
}

// Workers returns the full membership in registration order (stable —
// metrics and logs key off it).
func (r *Registry) Workers() []*Worker { return r.workers }

// Generation returns the membership generation: it increments on
// every liveness transition, so equal generations mean an identical
// live set.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Live returns the currently routable workers in registration order.
func (r *Registry) Live() []*Worker {
	live := make([]*Worker, 0, len(r.workers))
	for _, w := range r.workers {
		if w.Alive() {
			live = append(live, w)
		}
	}
	return live
}

// MarkDead demotes a worker, bumping the generation if it was alive.
func (r *Registry) MarkDead(w *Worker) {
	if w.alive.CompareAndSwap(true, false) {
		r.gen.Add(1)
		r.logf("cluster: worker %s marked dead (generation %d)", w.URL, r.gen.Load())
	}
}

// MarkLive promotes a worker, bumping the generation if it was dead.
func (r *Registry) MarkLive(w *Worker) {
	if w.alive.CompareAndSwap(false, true) {
		r.gen.Add(1)
		r.logf("cluster: worker %s marked live (generation %d)", w.URL, r.gen.Load())
	}
}

// home returns key's home worker by rendezvous hashing (Thaler &
// Ravishankar, 1998): of the live workers, the one with the largest
// weight mix(lab.KeyHash(key) ^ seed), ties going to the worker
// registered first; nil when none is live. Placement is a function of
// the live set alone, not of flag order, and it moves as little as it
// can: a worker's death re-homes only its own keys, each to the worker
// that ranks next for it, and its return moves them back.
func (r *Registry) home(key string) *Worker {
	h := lab.KeyHash(key)
	var best *Worker
	var bestWeight uint64
	for _, w := range r.workers {
		if !w.Alive() {
			continue
		}
		if wt := mix(h ^ w.seed); best == nil || wt > bestWeight {
			best, bestWeight = w, wt
		}
	}
	return best
}

// mix is the splitmix64 finalizer. FNV-1a hashes of keys that differ
// only in their last bytes differ in only a few bits; mixing spreads
// them over the whole word, so each key ranks the workers
// independently of its neighbours.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Start launches the background health-probe loop: every
// ProbeInterval each worker's /healthz is probed concurrently, and
// liveness transitions bump the generation. Stop ends the loop.
func (r *Registry) Start() {
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.probeInterval())
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.ProbeOnce(context.Background())
			}
		}
	}()
}

// Stop ends the probe loop and waits for it to exit. Safe to call
// without Start.
func (r *Registry) Stop() {
	if r.stop == nil {
		return
	}
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// ProbeOnce probes every worker's /healthz concurrently and updates
// liveness: a reachable worker answering "ok" is live; anything else —
// unreachable, erroring, or draining — is dead. Draining matters: a
// worker finishing its last runs before exit must stop receiving new
// shards, exactly like a crashed one.
func (r *Registry) ProbeOnce(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, DefaultProbeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			h, err := w.Client.Health(ctx)
			if err == nil && h.Status == "ok" {
				r.MarkLive(w)
			} else {
				r.MarkDead(w)
			}
		}(w)
	}
	wg.Wait()
}

func (r *Registry) probeInterval() time.Duration {
	if r.ProbeInterval > 0 {
		return r.ProbeInterval
	}
	return DefaultProbeInterval
}

func (r *Registry) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.mu.Lock()
	fmt.Fprintf(r.Log, format+"\n", args...)
	r.mu.Unlock()
}
