// Command wishsim runs one simulation and prints its statistics:
// a single (benchmark, input, binary variant, machine) combination.
// Results are served from the persistent result store when available
// (-cache-dir; empty disables).
//
// Usage:
//
//	wishsim -bench mcf -input A -variant wish-jjl
//	wishsim -bench gzip -variant base-max -window 256 -depth 20
//	wishsim -bench vpr -variant wish-jjl -disasm   # dump the binary
//	wishsim -bench mcf -variant wish-jjl -stats-out mcf.json
//	wishsim -bench mcf -variant wish-jjl -trace-events 64
//	wishsim -bench mcf -variant wish-jjl -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wishbranch/internal/cliflags"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/obs"
	"wishbranch/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "gzip", "benchmark: gzip vpr mcf crafty parser gap vortex bzip2 twolf")
		input    = flag.String("input", "A", "input set: A, B or C")
		variant  = flag.String("variant", "normal", "binary: normal base-def base-max wish-jj wish-jjl")
		window   = flag.Int("window", 512, "instruction window (ROB) size")
		depth    = flag.Int("depth", 30, "pipeline depth in stages")
		selUop   = flag.Bool("select-uop", false, "use select-µop predication instead of C-style")
		perfBP   = flag.Bool("perfect-bp", false, "oracle: perfect conditional branch prediction")
		perfConf = flag.Bool("perfect-conf", false, "oracle: perfect wish-branch confidence")
		noDep    = flag.Bool("no-depend", false, "oracle: remove predicate dependencies (NO-DEPEND)")
		noFetch  = flag.Bool("no-fetch", false, "oracle: remove predicated-false µops (NO-FETCH)")
		scale    = flag.Float64("scale", 1.0, "workload size multiplier")
		cacheDir = flag.String("cache-dir", lab.DefaultDir(), "persistent result store directory (empty = disabled)")
		disasm   = flag.Bool("disasm", false, "print the compiled binary and exit")
		statsOut = flag.String("stats-out", "", "write a schema-versioned JSON stats snapshot to this file ('-' = stdout)")
		traceN   = flag.Int("trace-events", 0, "trace the last N pipeline events (bypasses the result store)")
	)
	pf := cliflags.RegisterProfile(flag.CommandLine)
	flag.Parse()
	if err := workload.ValidateScale(*scale); err != nil {
		fail("%v", err)
	}

	b, ok := workload.ByName(*bench)
	if !ok {
		fail("unknown benchmark %q", *bench)
	}
	in, err := workload.ParseInput(*input)
	if err != nil {
		fail("%v", err)
	}
	v, err := compiler.ParseVariant(*variant)
	if err != nil {
		fail("%v", err)
	}

	if *disasm {
		src, _ := b.Build(in, *scale)
		p, err := compiler.Compile(src, v)
		if err != nil {
			fail("compile: %v", err)
		}
		fmt.Print(p.Disassemble())
		return
	}

	m := config.DefaultMachine().WithWindow(*window).WithDepth(*depth)
	if *selUop {
		m = m.WithSelectUop()
	}
	m.PerfectBP = *perfBP
	m.PerfectConfidence = *perfConf
	m.NoPredDepend = *noDep
	m.NoFalseFetch = *noFetch

	stopProfiles, perr := pf.Start("wishsim")
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	defer stopProfiles()

	spec := lab.Spec{
		Bench:      *bench,
		Input:      in,
		Variant:    v,
		Machine:    m,
		Scale:      *scale,
		Thresholds: compiler.DefaultThresholds(),
	}

	var (
		res  *cpu.Result
		ring *obs.Ring
	)
	if *traceN > 0 {
		// An event trace observes the live pipeline, so a traced run
		// always simulates fresh instead of going through the store
		// (cached records carry no events).
		ring = obs.NewRing(*traceN)
		t0 := time.Now()
		res, err = spec.SimulateInstrumented(func(c *cpu.CPU) { c.AttachTrace(ring) })
		elapsed := time.Since(t0)
		if err != nil {
			fail("run: %v", err)
		}
		printResult(*bench, in, v, res, elapsed)
	} else {
		l := lab.New()
		if *cacheDir != "" {
			store, serr := lab.OpenStore(*cacheDir)
			if serr != nil {
				fmt.Fprintf(os.Stderr, "wishsim: %v (continuing without store)\n", serr)
			} else {
				l.Store = store
			}
		}
		t0 := time.Now()
		res, err = l.Result(spec)
		elapsed := time.Since(t0)
		if err != nil {
			fail("run: %v", err)
		}
		fromStore := l.Counters().DiskHits > 0
		if fromStore {
			elapsed = 0 // store lookup, not a simulation: don't report throughput
		}
		printResult(*bench, in, v, res, elapsed)
		if fromStore {
			fmt.Printf("  (served from result store %s)\n", *cacheDir)
		}
	}

	if ring != nil {
		fmt.Println()
		ring.Fprint(os.Stdout)
	}
	if *statsOut != "" {
		if werr := writeSnapshot(*statsOut, spec, res); werr != nil {
			fail("stats-out: %v", werr)
		}
	}
}

// writeSnapshot exports the run's stats snapshot as JSON to path
// ('-' = stdout).
func writeSnapshot(path string, spec lab.Spec, res *cpu.Result) error {
	snap := spec.Snapshot(res)
	if path == "-" {
		return snap.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printResult(bench string, in workload.Input, v compiler.Variant, r *cpu.Result, elapsed time.Duration) {
	fmt.Printf("%s / %v / %v\n", bench, in, v)
	fmt.Printf("  cycles            %12d\n", r.Cycles)
	fmt.Printf("  retired µops      %12d (%.2f µPC)\n", r.RetiredUops, r.UPC())
	fmt.Printf("  fetched µops      %12d (%d squashed)\n", r.FetchedUops, r.Squashed)
	fmt.Printf("  cond branches     %12d (%.1f mispred/1Kµops, %d flushes)\n",
		r.CondBranches, r.MispredPer1K(), r.Flushes)
	for _, wc := range []struct {
		name string
		c    cpu.WishClass
		loop bool
	}{
		{"wish jumps", r.WishJump, false},
		{"wish joins", r.WishJoin, false},
		{"wish loops", r.WishLoop, true},
	} {
		if wc.c.Total() == 0 {
			continue
		}
		fmt.Printf("  %-17s %12d  high %d/%d correct, low %d/%d correct",
			wc.name, wc.c.Total(),
			wc.c.HighCorrect, wc.c.HighCorrect+wc.c.HighMispred,
			wc.c.LowCorrect, wc.c.LowCorrect+wc.c.LowMispred)
		if wc.loop && wc.c.LowMispred > 0 {
			fmt.Printf(" (early %d, late %d, no-exit %d)",
				wc.c.LowEarly, wc.c.LowLate, wc.c.LowNoExit)
		}
		fmt.Println()
	}
	fmt.Printf("  L1I %5.2f%%  L1D %5.2f%%  L2 %5.2f%% miss  (%d memory accesses)\n",
		100*r.L1I.MissRate(), 100*r.L1D.MissRate(), 100*r.L2.MissRate(), r.Mem.Accesses)
	if elapsed > 0 {
		fmt.Printf("  simulated in %v (%.0f µops/s host throughput)\n",
			elapsed.Round(time.Millisecond),
			float64(r.RetiredUops)/elapsed.Seconds())
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "wishsim: "+format+"\n", args...)
	os.Exit(1)
}
