package cpu

import (
	"reflect"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/isa"
	"wishbranch/internal/obs"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

// TestCycleSkipEquivalence is the soundness property behind
// event-driven cycle skipping (DESIGN.md §10): for every workload ×
// compiler variant × machine configuration, a run with skipping
// enabled must produce a Result deeply identical to the forced
// one-cycle-at-a-time reference run — same cycle count, all eight
// stall buckets, per-branch flush attribution, cache stats, and wish
// classification. Any skip-predicate or bulk-attribution bug that
// elides a live cycle or posts to a different bucket fails here.
//
// Besides the accounting machines it sweeps the NO-DEPEND and NO-FETCH
// oracle machines, at scale 0.05: a fetch queue blocked on a full
// window is a dead cycle, and whether the window has room depends on
// needsSelect, which reads both knobs on the select-µop machine.
func TestCycleSkipEquivalence(t *testing.T) {
	scale := 0.1
	benches := workload.All()
	if testing.Short() {
		scale = 0.05
		benches = benches[:3]
	}
	var oracles []*config.Machine
	for _, base := range []*config.Machine{config.DefaultMachine(), config.DefaultMachine().WithSelectUop()} {
		noDep, noFetch := *base, *base
		noDep.NoPredDepend, noDep.Name = true, base.Name+"+no-depend"
		noFetch.NoFalseFetch, noFetch.Name = true, base.Name+"+no-fetch"
		oracles = append(oracles, &noDep, &noFetch)
	}
	for _, b := range benches {
		checkSkipEquivalence(t, b, scale, acctMachines())
		checkSkipEquivalence(t, b, 0.05, oracles)
	}
}

// checkSkipEquivalence runs every variant of bench b at scale on each
// machine with and without cycle skipping and requires equal results.
func checkSkipEquivalence(t *testing.T, b workload.Benchmark, scale float64, machines []*config.Machine) {
	t.Helper()
	src, mem := b.Build(workload.InputA, scale)
	for _, v := range compiler.Variants() {
		p, err := compiler.Compile(src, v)
		if err != nil {
			t.Fatalf("%s/%v: %v", b.Name, v, err)
		}
		for _, m := range machines {
			label := b.Name + "/" + v.String() + "/" + m.Name
			run := func(skip bool) *Result {
				c, err := New(m, p, mem)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				c.SetCycleSkipping(skip)
				res, err := c.Run(0)
				if err != nil {
					t.Fatalf("%s (skip=%v): %v", label, skip, err)
				}
				return res
			}
			ref := run(false)
			opt := run(true)
			if !reflect.DeepEqual(ref, opt) {
				t.Errorf("%s: cycle skipping changed the result\nreference: %+v\nskipping:  %+v",
					label, ref, opt)
			}
		}
	}
}

// TestCycleSkipTruncationEquivalence: a run truncated by the cycle
// limit must also be identical in both modes — the skip jump is capped
// at the limit, so truncation lands on the same cycle with the same
// attribution.
func TestCycleSkipTruncationEquivalence(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 0.1)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	for _, limit := range []uint64{500, 4096, 100000} {
		run := func(skip bool) *Result {
			c, err := New(config.DefaultMachine(), p, mem)
			if err != nil {
				t.Fatal(err)
			}
			c.SetCycleSkipping(skip)
			res, _ := c.Run(limit) // cycle-limit error expected for small limits
			return res
		}
		ref := run(false)
		opt := run(true)
		if !reflect.DeepEqual(ref, opt) {
			t.Errorf("limit %d: cycle skipping changed the truncated result\nreference: %+v\nskipping:  %+v",
				limit, ref, opt)
		}
	}
}

// TestCycleSkippingActuallySkips guards the optimization itself: on
// the default machine mcf spends most of its cycles waiting on L2
// misses with a full window and a full fetch queue, so a run must
// elide at least half its cycles — a regression that silently disables
// skipping (skippable always 0), or narrows it back to stalls with an
// empty fetch queue (2.5% of this run), would otherwise look like a
// pure slowdown and escape the correctness suites.
func TestCycleSkippingActuallySkips(t *testing.T) {
	b, _ := workload.ByName("mcf") // pointer-chasing: many full-pipeline stalls
	src, mem := b.Build(workload.InputA, 0.1)
	p := compiler.MustCompile(src, compiler.NormalBranch)
	c, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if 2*c.dbgSkipped < res.Cycles {
		t.Errorf("skipped %d of %d cycles (%.1f%%), want at least half",
			c.dbgSkipped, res.Cycles, 100*float64(c.dbgSkipped)/float64(res.Cycles))
	}
	t.Logf("skipped %d of %d cycles (%.1f%%)", c.dbgSkipped, res.Cycles, 100*float64(c.dbgSkipped)/float64(res.Cycles))
	if c.dbgSkipped >= res.Cycles {
		t.Errorf("skipped %d of %d cycles: more than total", c.dbgSkipped, res.Cycles)
	}
}

// TestDeadCycleWindowRoom pins the window-room half of the dead-cycle
// rule, a corner the workload sweeps rarely reach: with one window slot
// left, a guarded µop at the front of the fetch queue fits unless it
// injects a select µop, which it does only on the select-µop machine
// without the NO-DEPEND and NO-FETCH oracles. A cycle with nothing else
// to do is dead exactly when the µop does not fit, the jump runs to the
// next completion, and the stretch is booked as window-full.
func TestDeadCycleWindowRoom(t *testing.T) {
	b := prog.NewBuilder()
	b.Emit(isa.Guarded(1, isa.ALUI(isa.OpAdd, 2, 2, 1)), isa.Halt())
	p := b.MustFinish()
	sel := config.DefaultMachine().WithSelectUop()
	noDep, noFetch := *sel, *sel
	noDep.NoPredDepend, noFetch.NoFalseFetch = true, true
	for _, tc := range []struct {
		name string
		m    *config.Machine
		full bool
	}{
		{"c-style", config.DefaultMachine(), false},
		{"select-uop", sel, true},
		{"select-uop+no-depend", &noDep, false},
		{"select-uop+no-fetch", &noFetch, false},
	} {
		c, err := New(tc.m, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The window holds all but one slot behind a head (the HALT)
		// that completes at cycle 100; fetch has halted.
		hid, head := c.newUop()
		head.pc = 1
		for c.robCount < len(c.rob)-1 {
			c.robPush(hid)
		}
		c.compQ.push(compEvent{cycle: 100, seq: head.seq, id: hid})
		id, u := c.newUop()
		u.seq = 1
		c.fqPush(id)
		c.fetchHalted = true

		n := c.skippable(1000)
		if full := n > 0; full != tc.full {
			t.Errorf("%s: skippable = %d, want a dead cycle: %v", tc.name, n, tc.full)
			continue
		}
		if !tc.full {
			continue
		}
		if n != 100 {
			t.Errorf("%s: jump of %d cycles, want 100 (to the head's completion)", tc.name, n)
		}
		c.bulkAccount(n)
		if got := c.res.Acct.Buckets[obs.WindowFull]; got != n {
			t.Errorf("%s: %d of %d skipped cycles booked as window-full", tc.name, got, n)
		}
	}
}
