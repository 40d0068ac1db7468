// Command wishsimd is the simulation daemon: a long-lived HTTP server
// that executes simulation and campaign requests through one shared
// scheduler, so the singleflight memo table and the persistent result
// store are finally shared across every caller instead of dying with
// each CLI invocation.
//
// Usage:
//
//	wishsimd                                # listen on :8081, default store
//	wishsimd -addr :9000 -j 8 -queue 512    # bounded pool + queue
//	wishsimd -cache-dir /data/wishcache     # shared persistent store
//	wishsimd -cache-dir ""                  # memory-only (memo table still shared)
//	wishsimd -drain-timeout 2m              # SIGTERM drain budget
//	wishsimd -store-max-bytes 1073741824    # bound the store: LRU eviction at 1 GiB
//
// Crash safety is the store's: every fresh result is appended to the
// store's segment file and fsynced before any response carries it, so
// a SIGKILLed daemon restarted on the same -cache-dir answers
// everything it had acknowledged from disk and re-simulates only what
// it had not. With
// -store-max-bytes, the store evicts least-recently-accessed records
// past the bound (/metrics gains store_bytes and evictions); an
// evicted result costs a restarted daemon a re-simulation, never a
// wrong byte.
//
// Cluster mode: the same binary fronts a fleet of workers as a
// coordinator speaking the identical wire API, so `wishbench -server`
// points at either without knowing which it got:
//
//	wishsimd -coordinator -worker http://h1:8081,http://h2:8081,http://h3:8081
//	wishsimd -coordinator -worker ... -probe-interval 1s # membership probes
//
// A coordinator is worker mode with its workers in place of the
// store: the same server, whose lab acquires each result it does not
// hold by routing the spec's cache key to its home worker, chosen by
// rendezvous hashing over the live workers (keeping every worker's
// memo table hot for its shard), with failover to the worker that
// ranks next for the key (see internal/cluster). It keeps no store: a
// restarted coordinator routes each key to the same home worker, whose
// memo table and store answer what it had already run.
// -queue and -max-timeout mean what they mean on a worker. -j is
// different: a coordinator's routed runs execute on its workers, so
// this host's CPU count says nothing about the fleet, and without -j
// the coordinator bounds nothing itself and the workers' 429s are the
// backpressure. An explicit -j N > 0 caps routed runs in flight at N
// (failover backoff included) and admission at N + -queue.
//
// Endpoints: POST /v1/run, POST /v1/campaign, GET /healthz,
// GET /metrics (see internal/serve). Responses default to JSON; a
// client advertising the binary content types in Accept gets a binary
// run response, and campaigns stream length-prefixed items as they
// finish (request order is restored client-side from per-item indices,
// so merged output stays byte-identical). Old clients and old servers
// interoperate either way — negotiation is strictly additive.
// Backpressure: requests beyond
// -j + -queue are rejected with 429 and a Retry-After hint. On SIGTERM
// or SIGINT the daemon stops admitting work (503), finishes every
// admitted request within -drain-timeout, and exits 0; a drain that
// misses the deadline exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wishbranch/internal/cliflags"
	"wishbranch/internal/cluster"
	"wishbranch/internal/lab"
	"wishbranch/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":8081", "listen address")
		queue        = flag.Int("queue", serve.DefaultQueueDepth, "admitted-but-waiting request bound beyond -j (0 = none)")
		storeMax     = flag.Int64("store-max-bytes", 0, "result store size bound with LRU-by-access eviction (0 = unbounded)")
		maxTimeout   = flag.Duration("max-timeout", serve.DefaultMaxTimeout, "ceiling (and default) for per-request deadlines")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long SIGTERM waits for in-flight runs")

		coordinator   = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a worker")
		workerList    = flag.String("worker", "", "comma-separated worker base URLs (coordinator mode; repeatable via commas)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "worker /healthz probe cadence (coordinator mode)")
	)
	lf := cliflags.RegisterLab(flag.CommandLine)
	flag.Parse()

	var urls []string
	if *coordinator {
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "wishsimd: -coordinator needs at least one -worker URL")
			return 2
		}
	}

	sched := lab.New()
	lf.Apply(sched)
	// A coordinator's lab keeps no store: its workers own theirs, and
	// a restarted coordinator re-routes to them.
	var store *lab.Store
	if !*coordinator {
		store = lf.OpenStore("wishsimd")
	}
	if store != nil {
		defer store.Close() // after the drain: serveUntilSignal returns once it is done
		sched.Store = store
		fmt.Fprintf(os.Stderr, "wishsimd: result store at %s\n", store.Dir())
		if *storeMax > 0 {
			if err := store.SetMaxBytes(*storeMax); err != nil {
				fmt.Fprintf(os.Stderr, "wishsimd: %v (store stays unbounded)\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "wishsimd: store bounded at %d bytes (currently %d)\n",
					*storeMax, store.Bytes())
			}
		}
	}

	// A coordinator's routed runs execute on its workers, so this
	// host's CPU count says nothing about the fleet: unless -j N > 0 is
	// given it bounds nothing, and its workers' 429s are the
	// backpressure. A negative -j on a worker is NumCPU, as in lab.
	workers := max(lf.Workers, 0)
	if *coordinator && !(flagSet("j") && workers > 0) {
		workers = -1
	}
	srv := &serve.Server{
		Lab:        sched,
		Workers:    workers,
		MaxTimeout: *maxTimeout,
	}
	if *queue <= 0 {
		srv.QueueDepth = -1
	} else {
		srv.QueueDepth = *queue
	}
	if lf.Verbose {
		srv.Log = os.Stderr
	}

	if !*coordinator {
		return serveUntilSignal(*addr, srv.Handler(),
			fmt.Sprintf("listening on %s (%d workers, queue %d)", *addr, lf.Workers, *queue),
			*drainTimeout, srv.Drain, sched.Summary)
	}
	reg := cluster.NewRegistry(urls)
	reg.ProbeInterval = *probeInterval
	if lf.Verbose {
		reg.Log = os.Stderr
	}
	handler := cluster.NewCoordinator(reg, srv).Handler()
	reg.Start()
	defer reg.Stop()
	inFlight := fmt.Sprintf("%d in flight, queue %d", workers, *queue)
	if workers < 0 {
		inFlight = "unbounded in flight"
	}
	return serveUntilSignal(*addr, handler,
		fmt.Sprintf("coordinating %d workers on %s (probe every %v, %s)", len(reg.Workers()), *addr, *probeInterval, inFlight),
		*drainTimeout, srv.Drain, sched.Summary)
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// serveUntilSignal serves h on addr until SIGTERM or SIGINT, logging
// listening once the listener starts, and then follows the drain
// contract: drain admitted work (bounded by drainTimeout) and close
// the listener. summary names what drained cleanly. It returns the
// exit code: 1 for a listen failure or a missed drain deadline, 0 for
// a clean drain.
func serveUntilSignal(addr string, h http.Handler, listening string, drainTimeout time.Duration,
	drain func(context.Context) error, summary func() string) int {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "wishsimd: %s\n", listening)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "wishsimd: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "wishsimd: %v: draining (up to %v)...\n", s, drainTimeout)
	}

	// Drain admitted work first — /healthz flips to "draining" and new
	// simulations get 503 — then close the listener. Shutdown after
	// Drain so health/metrics stay reachable while runs finish.
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx) //nolint:errcheck // drainErr is the verdict that matters
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "wishsimd: %v\n", drainErr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wishsimd: drained cleanly: %s\n", summary())
	return 0
}
