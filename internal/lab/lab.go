package lab

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"wishbranch/internal/cpu"
)

// ErrUnavailable marks a Backend error that says nothing about the
// spec: the backend could not be reached or had no capacity, so the
// next request for the key should try again. Such an error is returned
// to the callers that shared the attempt but is not memoized, the same
// as a cancellation. A cluster coordinator wraps its routing failures
// in it. Errors a remote client returns are deliberately left
// memoized: a campaign warms its run-set more than once, and retrying
// a dead server on every pass would multiply the client's wait.
var ErrUnavailable = errors.New("lab: backend unavailable")

// Lab is the campaign scheduler: a singleflight, in-memory memo table
// in front of an optional persistent Store, with a bounded worker pool
// for batch warm-up. The zero value is not usable; call New.
//
// Result and Warm are safe for concurrent use. Configure Workers,
// Store, and Log before the first run.
type Lab struct {
	// Workers bounds concurrent simulations in Warm (<= 0 means
	// runtime.NumCPU()).
	Workers int
	// Store, when non-nil, persists results across processes.
	Store *Store
	// Log, when non-nil, receives one progress line per completed
	// fresh simulation or store hit.
	Log io.Writer
	// Backend, when non-nil, replaces local simulation: a fresh result
	// (memo miss, store miss) is acquired by calling it instead of
	// Spec.SimulateContext. This is the one seam for remote execution:
	// under -server, cliflags.Wire installs one over serve.Client.Run,
	// which has exactly this signature, so wishbench and wishtune run
	// against a wishsimd daemon or cluster coordinator through the same
	// lab; a coordinator's own lab installs cluster.Coordinator.Run here.
	// Store and memo behaviour are unchanged — backend results are
	// persisted like local ones, so a remote campaign still warms the
	// local store, and a backend error is memoized like a local
	// simulation failure unless it wraps ErrUnavailable. Warm still
	// compiles each spec it has to acquire, to find its run identity,
	// and calls the Backend once per identity: that assumes the
	// Backend runs the same compiler and simulator as this process.
	Backend func(context.Context, Spec) (*cpu.Result, error)
	// OnResult, when non-nil, observes every result this process
	// acquires — fresh simulation, store hit, backend call, or a result
	// shared within a Warm batch — exactly once per key, before any
	// waiter on that key is released. Only bench/ sets it, to journal
	// its cold campaign (through internal/journal.Attach, or directly
	// on traced runs). Seeded entries do not fire it. Set before the
	// first run.
	OnResult func(k Keyed, r *cpu.Result)

	mu      sync.Mutex
	entries map[string]*entry
	c       Counters
	running int
	started time.Time
}

type entry struct {
	done chan struct{}
	res  *cpu.Result
	err  error
	// removed marks an entry that was deleted from the memo table
	// because its producer was cancelled mid-run: the result is not a
	// property of the spec, so waiters with a live context retry
	// instead of inheriting the cancellation. Written before done is
	// closed, read only after it is closed.
	removed bool
}

// Counters snapshots the campaign's progress.
type Counters struct {
	// Fresh counts simulations actually executed by this process.
	Fresh uint64
	// Shared counts keys that took the result of another key of the
	// same Warm batch with the same run identity instead of being
	// simulated (Warm).
	Shared uint64
	// DiskHits counts results served from the persistent store.
	DiskHits uint64
	// MemHits counts repeat requests served from the in-memory table.
	MemHits uint64
	// Errors counts specs whose simulation failed.
	Errors uint64
	// Canceled counts runs abandoned because the requesting context
	// was cancelled or timed out. Cancelled runs are not memoized:
	// the next request for the same key simulates afresh.
	Canceled uint64
}

// Runs returns all completed acquisitions (fresh, shared and disk
// hits).
func (c Counters) Runs() uint64 { return c.Fresh + c.Shared + c.DiskHits }

// HitRatio returns the fraction of successful acquisitions served
// without a simulation of their own (memo table, store, or a shared
// run) rather than simulated fresh.
func (c Counters) HitRatio() float64 {
	hits := c.DiskHits + c.MemHits + c.Shared
	total := hits + c.Fresh
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// New returns an empty lab with default parallelism and no store.
func New() *Lab {
	return &Lab{entries: make(map[string]*entry)}
}

func (l *Lab) workers() int {
	if l.Workers > 0 {
		return l.Workers
	}
	return runtime.NumCPU()
}

// Counters returns a snapshot of the progress counters.
func (l *Lab) Counters() Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// InFlight returns the number of simulations currently executing (not
// waiting, not cached) — the queue-instrumentation gauge wishsimd
// exports on /metrics.
func (l *Lab) InFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.running
}

// Result returns the simulation result for spec, from the in-memory
// table, the persistent store, or a fresh simulation — in that order.
// Concurrent requests for the same key share one simulation.
func (l *Lab) Result(s Spec) (*cpu.Result, error) {
	return l.ResultContext(context.Background(), s)
}

// ResultContext is Result with cancellation. The context bounds this
// caller's wait, and — when this caller ends up producing the result —
// the simulation itself (via cpu.RunContext). A cancelled production is
// not memoized: its entry is removed so later requests re-simulate,
// and concurrent waiters whose own context is still live retry as the
// new producer instead of inheriting the cancellation.
func (l *Lab) ResultContext(ctx context.Context, s Spec) (*cpu.Result, error) {
	return l.ResultKeyed(ctx, s.Keyed())
}

// ResultKeyed is ResultContext for callers that already computed the
// spec's key and hash (serve request handlers, campaign warm-up): the
// memo probe and the store address reuse the cached forms instead of
// re-deriving them per lookup. It acquires k alone: only Warm shares
// one simulation between keys.
func (l *Lab) ResultKeyed(ctx context.Context, k Keyed) (*cpu.Result, error) {
	for {
		e, mine := l.claim(k)
		if !mine {
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("lab: %s: %w", k.Spec, ctx.Err())
			}
			if e.removed && ctx.Err() == nil {
				continue // producer was cancelled, not the spec's fault
			}
			return e.res, e.err
		}
		res := l.stored(k)
		var err error
		if res == nil {
			res, err = l.fresh(ctx, k)
		}
		l.settle(k, e, res, err)
		return res, err
	}
}

// claim returns k's memo entry. mine reports a new entry, which the
// caller must settle; an existing one is a memo hit.
func (l *Lab) claim(k Keyed) (e *entry, mine bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries == nil {
		l.entries = make(map[string]*entry)
	}
	if e, ok := l.entries[k.Key]; ok {
		l.c.MemHits++
		return e, false
	}
	e = &entry{done: make(chan struct{})}
	l.entries[k.Key] = e
	if l.started.IsZero() {
		l.started = time.Now()
	}
	return e, true
}

// settle publishes the outcome of a claimed entry and releases its
// waiters. A cancelled or unavailable outcome is not memoized.
func (l *Lab) settle(k Keyed, e *entry, res *cpu.Result, err error) {
	e.res, e.err = res, err
	switch {
	case err == nil:
	case isCancellation(err):
		l.mu.Lock()
		l.c.Canceled++
		delete(l.entries, k.Key)
		l.mu.Unlock()
		e.removed = true
	case errors.Is(err, ErrUnavailable):
		l.mu.Lock()
		delete(l.entries, k.Key)
		l.mu.Unlock()
	}
	if err == nil && l.OnResult != nil {
		// Before close(done): the result is journaled (or otherwise
		// observed) before any waiter can act on it.
		l.OnResult(k, res)
	}
	close(e.done)
}

// Seed pre-populates the memo table with a completed result. Its one
// caller is internal/journal.Attach, which bench/'s cold campaign uses
// to replay its journal; it goes with that package. Seeding a key that
// already has an entry is a no-op (reported as false), and seeded
// entries do not fire OnResult: they came from the journal, so
// re-journaling them would be circular. Seed before the campaign
// starts; it does not resolve racing in-flight productions.
func (l *Lab) Seed(key string, r *cpu.Result) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.entries == nil {
		l.entries = make(map[string]*entry)
	}
	if _, ok := l.entries[key]; ok {
		return false
	}
	e := &entry{done: make(chan struct{}), res: r}
	close(e.done)
	l.entries[key] = e
	return true
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stored returns k's result from the store, or nil on a miss.
func (l *Lab) stored(k Keyed) *cpu.Result {
	if l.Store == nil {
		return nil
	}
	r := l.Store.GetHashed(k.Key, k.Hash)
	if r != nil {
		l.note(k.Spec, r, 0, &l.c.DiskHits, "hit")
	}
	return r
}

// fresh acquires k (Backend or local simulation) and persists the
// result.
func (l *Lab) fresh(ctx context.Context, k Keyed) (*cpu.Result, error) {
	s := k.Spec
	l.mu.Lock()
	l.running++
	l.mu.Unlock()
	t0 := time.Now()
	res, err := l.acquire(ctx, s)
	simTime := time.Since(t0)
	l.mu.Lock()
	l.running--
	l.mu.Unlock()
	if err != nil {
		if !isCancellation(err) {
			l.mu.Lock()
			l.c.Errors++
			l.mu.Unlock()
		}
		return nil, err
	}
	l.put(k, res)
	l.note(s, res, simTime, &l.c.Fresh, "ran")
	return res, nil
}

// put persists a result under k. A store write failure is reported on
// Log but does not fail the run: the result is still returned.
func (l *Lab) put(k Keyed, res *cpu.Result) {
	if l.Store == nil {
		return
	}
	if err := l.Store.PutHashed(k.Key, k.Hash, res); err != nil && l.Log != nil {
		l.mu.Lock()
		fmt.Fprintf(l.Log, "lab: %v (result kept in memory)\n", err)
		l.mu.Unlock()
	}
}

// acquire runs the Backend, or simulates locally without one.
func (l *Lab) acquire(ctx context.Context, s Spec) (res *cpu.Result, err error) {
	defer contain(s, &err)
	if l.Backend != nil {
		return l.Backend(ctx, s)
	}
	return s.SimulateContext(ctx)
}

// contain, deferred, turns a panic into s's error: one poison spec
// fails its own item instead of killing the process or orphaning the
// memo entry its waiters block on. acquire and runIdentity share it.
func contain(s Spec, err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("lab: %s: panic: %v", s, p)
	}
}

// note bumps a counter and emits one progress line. simTime is the
// host wall-clock the simulation took (zero for store hits): results
// themselves carry no host timing, so the caller that ran the
// simulation measures it. The counter pointer must be a field of l.c
// so the bump happens under l.mu.
func (l *Lab) note(s Spec, r *cpu.Result, simTime time.Duration, counter *uint64, verb string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	*counter++
	if l.Log == nil {
		return
	}
	c := l.c
	elapsed := time.Since(l.started).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(c.Runs()) / elapsed
	}
	fmt.Fprintf(l.Log, "[%d runs (%d fresh, %d shared, %d cached), %.1f sims/s] %s %-40s %10d cycles  %.2f µPC  %s\n",
		c.Runs(), c.Fresh, c.Shared, c.DiskHits, rate, verb, s.String(), r.Cycles, r.UPC(),
		simTime.Round(time.Millisecond))
}

// Summary renders the campaign counters as one line.
func (l *Lab) Summary() string {
	l.mu.Lock()
	c, started := l.c, l.started
	l.mu.Unlock()
	line := fmt.Sprintf("%d fresh simulations, %d shared, %d store hits, %d memo hits, %d errors",
		c.Fresh, c.Shared, c.DiskHits, c.MemHits, c.Errors)
	if !started.IsZero() && c.Fresh > 0 {
		if secs := time.Since(started).Seconds(); secs > 0 {
			line += fmt.Sprintf(", %.2f sims/s", float64(c.Fresh)/secs)
		}
	}
	return line
}

// Warm acquires every spec in the batch, de-duplicated, across the
// worker pool, and simulates each distinct run once. Keys that miss
// both the memo table and the store are grouped by run identity
// (runIdentity); the first key of each group in batch order is
// acquired as ResultKeyed would, and every other key of the group then
// takes its result: a memo entry, a store record and an OnResult call
// of its own, counted as Shared. Batch order, not arrival order, picks
// the owner, so the keys a Backend is sent depend only on the batch.
// Only a successful result is shared: the followers of a failed owner
// are acquired on their own.
//
// Individual simulation failures are recorded (and memoized) but not
// returned: the serial render pass that follows re-requests the same
// keys and surfaces the error with full context. Warm returns once
// every spec has been attempted.
func (l *Lab) Warm(specs []Spec) {
	seen := make(map[string]bool, len(specs))
	uniq := make([]Keyed, 0, len(specs))
	for _, s := range specs {
		// One key+hash computation per campaign item; the workers
		// below (and their memo/store lookups) reuse the cached forms.
		k := s.Keyed()
		if !seen[k.Key] {
			seen[k.Key] = true
			uniq = append(uniq, k)
		}
	}
	ctx := context.Background()
	n := l.workers()

	// Memo and store first, across the pool: only the keys that miss
	// both need a run identity, so warming from a full store builds no
	// artifact. Entries another caller holds are waited for last, so
	// two overlapping batches cannot wait on each other's claims.
	claimed := make([]*entry, len(uniq))
	held := make([]*entry, len(uniq))
	forEach(n, len(uniq), func(i int) {
		e, mine := l.claim(uniq[i])
		if !mine {
			held[i] = e
			return
		}
		if r := l.stored(uniq[i]); r != nil {
			l.settle(uniq[i], e, r, nil)
			return
		}
		claimed[i] = e
	})

	// Group the misses in batch order. A spec with no identity is a
	// group of its own.
	var groups []*group
	byID := make(map[runID]*group)
	for i, e := range claimed {
		if e == nil {
			continue
		}
		m := member{uniq[i], e}
		id, ok, err := runIdentity(m.k.Spec)
		switch {
		case err != nil:
			l.mu.Lock()
			l.c.Errors++
			l.mu.Unlock()
			l.settle(m.k, e, nil, err)
		case !ok:
			groups = append(groups, &group{owner: m})
		case byID[id] != nil:
			byID[id].followers = append(byID[id].followers, m)
		default:
			byID[id] = &group{owner: m}
			groups = append(groups, byID[id])
		}
	}
	forEach(n, len(groups), func(i int) { l.acquireGroup(ctx, groups[i]) })

	for i, e := range held {
		if e == nil {
			continue
		}
		if <-e.done; e.removed {
			l.ResultKeyed(ctx, uniq[i]) //nolint:errcheck // memoized; re-surfaced by the render pass
		}
	}
}

// member is one claimed key of a Warm batch.
type member struct {
	k Keyed
	e *entry
}

// group is a run identity's keys in a Warm batch: the first in batch
// order, which is acquired, and the rest, which take its result.
type group struct {
	owner     member
	followers []member
}

// acquireGroup acquires a group's owner and settles every key of the
// group.
func (l *Lab) acquireGroup(ctx context.Context, g *group) {
	res, err := l.fresh(ctx, g.owner.k)
	l.settle(g.owner.k, g.owner.e, res, err)
	for _, f := range g.followers {
		if err != nil {
			res, err := l.fresh(ctx, f.k)
			l.settle(f.k, f.e, res, err)
			continue
		}
		l.put(f.k, res)
		l.note(f.k.Spec, res, 0, &l.c.Shared, "shared")
		l.settle(f.k, f.e, res, nil)
	}
}

// forEach calls f(0) … f(n-1) across at most workers goroutines,
// handing out indices in order.
func forEach(workers, n int, f func(int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}
