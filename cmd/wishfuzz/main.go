// Command wishfuzz drives the differential conformance harness
// (internal/harness): deterministic generated programs checked against
// pluggable oracles, automatic shrinking of failures, and
// self-contained JSON repros.
//
// Soak modes:
//
//	wishfuzz -seeds 200                          # 200 seeds, all oracles
//	wishfuzz -for 2m                             # time-budget soak
//	wishfuzz -oracles arch,timing -seeds 50      # subset of oracle families
//	wishfuzz -seed-base 12345 -seeds 1           # exactly one seed (replay hint form)
//	wishfuzz -corpus .fuzz-corpus -seeds 100     # persist repros + replay them first
//	wishfuzz -keep-going -seeds 100              # don't stop at the first failure
//
// Repro replay:
//
//	wishfuzz -replay repro-arch-42.json          # exit 0 if the failure reproduces
//
// Self-test (proves the harness detects and shrinks real bugs):
//
//	wishfuzz -kill-switch -seeds 50              # expected to FAIL (exit 1)
//
// Oracle families: arch (emulator vs pipeline vs every variant),
// timing (cycle-skipping vs reference mode), cache (warm vs cold
// store), codec (binary vs JSON results), cluster (single node vs
// coordinator+workers under seeded chaos), run (machine fields a
// program cannot observe leave its result unchanged, the rule a
// campaign shares simulations by).
// Exit codes: 0 clean (or replay reproduced), 1 conformance failure
// found (or replay did not reproduce), 2 usage/infrastructure error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wishbranch/internal/cliflags"
	"wishbranch/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seeds      = flag.Int("seeds", 0, "number of seeds to soak (0 = use -for)")
		budget     = flag.Duration("for", 0, "wall-clock soak budget (alternative to -seeds)")
		seedBase   = flag.Uint64("seed-base", 1, "first seed (replay hints use -seed-base N -seeds 1)")
		oracleList = flag.String("oracles", "arch,timing,cache,codec,cluster,run", "comma-separated oracle families")
		corpus     = flag.String("corpus", "", "repro/corpus directory (failures persist here and replay on startup)")
		keepGoing  = flag.Bool("keep-going", false, "continue past failures instead of stopping at the first")
		killSwitch = flag.Bool("kill-switch", false, "deliberately inject a guard-dropping miscompile (harness self-test; a clean run then means the harness is broken)")
		replay     = flag.String("replay", "", "re-run one repro file instead of soaking")
		quiet      = flag.Bool("q", false, "suppress progress logging")
	)
	pf := cliflags.RegisterProfile(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wishfuzz: unexpected arguments: %v\n", flag.Args())
		return 2
	}
	stopProfiles, err := pf.Start("wishfuzz")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()

	if *replay != "" {
		verdict, err := harness.Replay(ctx, *replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wishfuzz: %v\n", err)
			return 2
		}
		if verdict == nil {
			fmt.Printf("wishfuzz: %s: failure did NOT reproduce (fixed, or the repro has rotted)\n", *replay)
			return 1
		}
		fmt.Printf("wishfuzz: %s: failure reproduces: %v\n", *replay, verdict)
		return 0
	}

	if *seeds <= 0 && *budget <= 0 {
		fmt.Fprintln(os.Stderr, "wishfuzz: need -seeds N or -for duration (see -h)")
		return 2
	}

	var oracles []harness.Oracle
	for _, name := range strings.Split(*oracleList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "arch" && *killSwitch {
			name = "arch+killswitch"
		}
		o, err := harness.OracleByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wishfuzz: %v\n", err)
			return 2
		}
		oracles = append(oracles, o)
	}
	if len(oracles) == 0 {
		fmt.Fprintln(os.Stderr, "wishfuzz: no oracles selected")
		return 2
	}

	opts := harness.Options{
		Oracles:   oracles,
		SeedBase:  *seedBase,
		Seeds:     *seeds,
		Budget:    *budget,
		CorpusDir: *corpus,
		KeepGoing: *keepGoing,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	start := time.Now()
	rep, err := harness.Soak(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wishfuzz: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(oracles))
	for _, o := range oracles {
		names = append(names, fmt.Sprintf("%s:%d", o.Name(), rep.PerOracle[o.Name()]))
	}
	fmt.Printf("wishfuzz: %d seeds, %d checks (%s), %d corpus replays in %v\n",
		rep.Seeds, rep.Checks, strings.Join(names, " "), rep.Replayed,
		time.Since(start).Round(time.Millisecond))
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			fmt.Printf("FAIL %s seed=%d nodes=%d: %s\n", f.Oracle, f.Seed, f.Nodes, f.Err)
			if f.ReproPath != "" {
				fmt.Printf("     replay: go run ./cmd/wishfuzz -replay %s\n", f.ReproPath)
			} else {
				fmt.Printf("     replay: go run ./cmd/wishfuzz -oracles %s -seed-base %d -seeds 1%s\n",
					strings.TrimSuffix(f.Oracle, "+killswitch"), f.Seed,
					map[bool]string{true: " -kill-switch"}[strings.HasSuffix(f.Oracle, "+killswitch")])
			}
		}
		return 1
	}
	if ctx.Err() != nil {
		fmt.Println("wishfuzz: interrupted (no failures so far)")
	} else {
		fmt.Println("wishfuzz: all oracles clean")
	}
	return 0
}
