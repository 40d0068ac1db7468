// Command wishbench regenerates the paper's tables and figures.
//
// Simulations fan out across a worker pool (-j) and are persisted in a
// content-addressed result store (-cache-dir), so re-running a
// campaign only simulates what changed. Output tables are
// byte-identical regardless of parallelism.
//
// Usage:
//
//	wishbench -exp all                # every experiment, paper order
//	wishbench -exp fig10,fig12        # specific experiments
//	wishbench -exp all -j 8           # eight simulation workers
//	wishbench -exp all -cache-dir ""  # no persistent result store
//	wishbench -list                   # list experiment IDs
//	wishbench -scale 2.0 -exp fig2
//	wishbench -exp fig10 -stats-out fig10.json  # machine-readable snapshots
//	wishbench -exp all -server http://host:8081 # simulate on a wishsimd daemon
//
// The -server URL may point at a single wishsimd worker or at a
// `wishsimd -coordinator` fronting a whole cluster — the wire API is
// identical and the output stays byte-identical either way.
//
// A killed campaign resumes from the result store: rerun the same
// command and only the missing results simulate (DESIGN.md §15).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wishbranch/internal/cliflags"
	"wishbranch/internal/exp"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
	"wishbranch/internal/workload"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		scale    = flag.Float64("scale", 1.0, "workload size multiplier (1.0 = reduced-input default)")
		statsOut = flag.String("stats-out", "", "write every campaign run's stats snapshot as a JSON array to this file")
	)
	lf := cliflags.RegisterLab(flag.CommandLine)
	rf := cliflags.RegisterRemote(flag.CommandLine)
	pf := cliflags.RegisterProfile(flag.CommandLine)
	flag.Parse()
	if err := workload.ValidateScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "wishbench: %v\n", err)
		os.Exit(1)
	}

	stopProfiles, err := pf.Start("wishbench")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	l := exp.NewLab()
	l.Scale = *scale
	// One scheduler for all three execution modes: in -server mode
	// (single daemon or coordinator — same wire) its backend is a
	// serve.Client, otherwise it simulates locally over the result
	// store. Rendering and snapshot export both read its memo table.
	cliflags.Wire(l.Sched, lf, rf, "wishbench")

	var runIDs []string
	if *expFlag == "all" {
		runIDs = exp.IDs()
	} else {
		runIDs = strings.Split(*expFlag, ",")
	}
	var exps []exp.Experiment
	for _, id := range runIDs {
		e, ok := exp.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "wishbench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		exps = append(exps, e)
	}

	campaignStart := time.Now()
	// Batch the whole campaign: the union of every selected
	// experiment's declared run-set goes through the pool at once, so
	// runs shared between figures are simulated exactly once and the
	// pool never drains between figures.
	var specs []lab.Spec
	for _, e := range exps {
		if e.Runs != nil {
			specs = append(specs, e.Runs(l)...)
		}
	}

	l.Warm(specs)

	for _, e := range exps {
		start := time.Now()
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		// The campaign-wide Warm above covered every experiment's runs,
		// so render directly rather than through exp.Run, which would
		// warm them a second time.
		if err := e.Run(l, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "wishbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
		// Timing is not deterministic, so it goes to stderr: stdout
		// stays byte-identical across runs and worker counts.
		fmt.Fprintf(os.Stderr, "wishbench: %s completed in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "wishbench: campaign done in %v: %s\n",
		time.Since(campaignStart).Round(time.Millisecond), l.Sched.Summary())

	if *statsOut != "" {
		if err := dumpSnapshots(*statsOut, l.Sched, specs); err != nil {
			fmt.Fprintf(os.Stderr, "wishbench: stats-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wishbench: stats snapshots written to %s\n", *statsOut)
	}
}

// dumpSnapshots writes the stats snapshot of every unique run of the
// campaign as a JSON array, in declaration order (deterministic across
// worker counts — host timing is excluded from snapshots by design, so
// the file is byte-identical across re-runs). Every snapshot is
// validated before export, so the file can never carry a record that
// violates the accounting identity. Every result is read from the
// scheduler that just rendered the campaign, a memo hit, so exporting
// sends nothing to a remote server a second time.
func dumpSnapshots(path string, sched *lab.Lab, specs []lab.Spec) error {
	seen := make(map[string]bool)
	var snaps []*obs.Snapshot
	for _, s := range specs {
		key := s.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		res, err := sched.Result(s)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		snap := s.Snapshot(res)
		if err := snap.Validate(); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		snaps = append(snaps, snap)
	}
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
