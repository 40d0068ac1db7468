// Command wishtune searches the wish-branch policy space — compiler
// conversion thresholds (N/L), confidence estimator geometry, loop
// predictor bias — for the best setting per workload, and writes a
// schema-versioned tuned-policy table plus a speedup report. The paper
// leaves these knobs untuned (§4.2.2, §7); wishtune closes the loop.
//
// Every evaluation is an ordinary lab campaign: memoized by spec key,
// persisted in the result store, optionally journaled for crash-safe
// resume, and runnable against a wishsimd daemon or cluster
// coordinator with -server. The search is deterministic: the same
// -seed (and options) produces a byte-identical table, and a re-run
// against a warm store schedules zero fresh simulations.
//
// Usage:
//
//	wishtune                                 # tune all nine benchmarks
//	wishtune -benches gzip,parser -seed 7    # subset, different sample
//	wishtune -out tuned.json                 # write the policy table
//	wishtune -journal /tmp/j                 # crash-safe checkpoint/resume
//	wishtune -server http://host:8081        # evaluate on a daemon/cluster
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wishbranch/internal/cliflags"
	"wishbranch/internal/journal"
	"wishbranch/internal/lab"
	"wishbranch/internal/tune"
	"wishbranch/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		seed       = flag.Uint64("seed", 1, "candidate sample seed (same seed = byte-identical table)")
		candidates = flag.Int("candidates", tune.DefaultCandidates, "successive-halving entry population (candidate 0 is always the paper default)")
		rungs      = flag.Int("rungs", tune.DefaultRungs, "halving rungs; rung r runs at scale/2^(rungs-1-r)")
		climb      = flag.Int("climb", tune.DefaultClimb, "hill-climb refinement rounds at full scale (0 = off)")
		scale      = flag.Float64("scale", workload.DefaultScale, "full workload scale (the final rung and the report)")
		benches    = flag.String("benches", "", "comma-separated benchmarks to tune (default: all)")
		out        = flag.String("out", "", "write the tuned-policy JSON table to this file")
	)
	lf := cliflags.RegisterLab(flag.CommandLine)
	rf := cliflags.RegisterRemote(flag.CommandLine)
	pf := cliflags.RegisterProfile(flag.CommandLine)
	flag.Parse()
	if err := workload.ValidateScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "wishtune: %v\n", err)
		return 1
	}

	stopProfiles, err := pf.Start("wishtune")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stopProfiles()

	// Mode wiring (store in local mode, HTTP backend in -server mode)
	// comes from the shared flag groups. The tuner drives the local
	// scheduler either way, so the journal hook and the resume seeding
	// below observe every result; in remote mode each simulation runs
	// on the server, because the client is the lab's backend.
	sched := lab.New()
	cliflags.Wire(sched, lf, rf, "wishtune")

	// Crash-safe resume. Unlike wishbench, the tuner's key set is
	// adaptive — pruning decides later specs from earlier results — so
	// the journal cannot be named by its spec-set hash up front. One
	// fixed file per journal directory instead: every replayed result
	// seeds the memo table (the search is deterministic, so a resumed
	// run re-requests exactly the same keys), and every new result is
	// journaled before it becomes observable.
	if lf.Journal != "" {
		jpath := filepath.Join(lf.Journal, "tune.wbj")
		j, rep, err := journal.Open(jpath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wishtune: %v\n", err)
			return 1
		}
		defer j.Close()
		resumed := journal.Attach(sched, j, rep, nil, func(err error) {
			fmt.Fprintf(os.Stderr, "wishtune: %v (search continues, not resumable past this point)\n", err)
		})
		fmt.Fprintf(os.Stderr, "wishtune: journal %s: resumed_frames=%d\n", jpath, resumed)
	}

	o := tune.Options{
		Lab:        sched,
		Input:      workload.InputA,
		Seed:       *seed,
		Candidates: *candidates,
		Rungs:      *rungs,
		Scale:      *scale,
		Climb:      *climb,
		Log:        os.Stderr,
	}
	if *benches != "" {
		for _, b := range strings.Split(*benches, ",") {
			o.Benches = append(o.Benches, strings.TrimSpace(b))
		}
	}

	start := time.Now()
	table, err := tune.Tune(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wishtune: %v\n", err)
		return 1
	}
	if err := table.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "wishtune: %v\n", err)
		return 1
	}
	// Timing goes to stderr; stdout is the deterministic report.
	fmt.Fprintf(os.Stderr, "wishtune: search done in %v: %s\n",
		time.Since(start).Round(time.Millisecond), sched.Summary())

	table.WriteReport(os.Stdout)

	if *out != "" {
		data, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "wishtune: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "wishtune: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wishtune: tuned-policy table written to %s\n", *out)
	}
	return 0
}
