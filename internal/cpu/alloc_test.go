package cpu

import (
	"reflect"
	"testing"

	"wishbranch/internal/bpred"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

// TestSteadyStateZeroAlloc is the arena invariant gate: once the
// scheduler heaps, scratch batches and wrong-path shadow have grown to
// the workload's working-set size, advancing the pipeline allocates
// nothing at all (the µop arena is fixed at construction). Advance (not Run) is measured because only
// the end-of-run flattening (finishRun) is allowed to allocate.
//
// The measured window includes flushes, wrong-path fetch, cache
// misses, and wish-mode transitions — zero allocations here means the
// recycling paths (retire, flush scrubbing, shadow re-forking) are all
// airtight, not merely the happy path.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, v := range []compiler.Variant{compiler.NormalBranch, compiler.WishJumpJoinLoop} {
		t.Run(v.String(), func(t *testing.T) {
			b, _ := workload.ByName("gzip")
			src, mem := b.Build(workload.InputA, 2.0) // ≥500k cycles: room for warm-up + window
			p := compiler.MustCompile(src, v)
			c, err := New(config.DefaultMachine(), p, mem)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: let every pooled structure reach steady state.
			if c.Advance(300000) {
				t.Fatal("workload halted during warm-up; pick a longer one")
			}
			allocs := testing.AllocsPerRun(20, func() {
				c.Advance(2000)
			})
			if c.res.Halted {
				t.Fatal("workload halted inside the measured window")
			}
			if allocs != 0 {
				t.Errorf("steady-state Advance allocates %.1f objects per 2000-cycle window, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateZeroAllocSelectUop repeats the gate on the select-µop
// machine: select injection allocates µops at twice the rate and uses
// its own rename path, so it gets its own steady-state proof.
func TestSteadyStateZeroAllocSelectUop(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 2.0)
	p := compiler.MustCompile(src, compiler.BaseMax)
	c, err := New(config.DefaultMachine().WithSelectUop(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	if c.Advance(300000) {
		t.Fatal("workload halted during warm-up; pick a longer one")
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.Advance(2000)
	})
	if c.res.Halted {
		t.Fatal("workload halted inside the measured window")
	}
	if allocs != 0 {
		t.Errorf("steady-state Advance allocates %.1f objects per 2000-cycle window, want 0", allocs)
	}
}

// TestAdvanceThenRunEquivalence: driving a simulation through Advance
// windows and finishing with Run must give the same Result as a single
// Run — Advance is a pure pacing API, not a different machine.
func TestAdvanceThenRunEquivalence(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 0.1)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)

	c1, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := c1.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(config.DefaultMachine(), p, mem)
	if err != nil {
		t.Fatal(err)
	}
	for !c2.Advance(7777) {
	}
	pieces, err := c2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Cycles != pieces.Cycles || whole.RetiredUops != pieces.RetiredUops ||
		whole.Acct != pieces.Acct {
		t.Errorf("Advance-driven run diverged: %d/%d cycles, %d/%d µops",
			whole.Cycles, pieces.Cycles, whole.RetiredUops, pieces.RetiredUops)
	}
}

// TestNewAllocBudget: building a simulator on the paper's machine makes
// a bounded number of allocations. A BTB with a slice per set made New
// cost 2111 of them; the flat BTB, the lazily built indirect target
// cache and the one-piece µop arena leave a few dozen.
func TestNewAllocBudget(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, _ := b.Build(workload.InputA, 0.02)
	p := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	cfg := config.DefaultMachine()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := New(cfg, p, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("New makes %.0f allocations, want at most 100", allocs)
	}
}

// TestIndirectCacheBuiltOnFirstUse: the 64K-entry indirect target cache
// is built at the first correct-path indirect jump, not in New. A
// program with no indirect jump never builds it, and a jump-table
// program's result is the same as with a cache built up front.
func TestIndirectCacheBuiltOnFirstUse(t *testing.T) {
	b, _ := workload.ByName("gzip")
	src, mem := b.Build(workload.InputA, 0.02)
	c, err := New(config.DefaultMachine(), compiler.MustCompile(src, compiler.NormalBranch), mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.itc != nil {
		t.Error("a program with no indirect jump built the indirect target cache")
	}

	p := jumpTableProg()
	for _, random := range []bool{false, true} {
		run := func(eager bool) *Result {
			c, err := New(config.DefaultMachine(), p, jumpTableMem(p, random))
			if err != nil {
				t.Fatal(err)
			}
			if eager {
				c.itc = bpred.NewIndirectCache(c.cfg.IndirectEntries)
			}
			res, err := c.Run(0)
			if err != nil {
				t.Fatal(err)
			}
			if c.itc == nil {
				t.Fatal("an indirect-jump program never built the indirect target cache")
			}
			return res
		}
		lazy, eager := run(false), run(true)
		if !reflect.DeepEqual(lazy, eager) {
			t.Errorf("random=%v: building the cache on first use changed the result\nlazy:  %+v\neager: %+v",
				random, lazy, eager)
		}
	}
}

// TestArenaHoldsEveryLiveUop: the µop arena is sized to the most µops
// that can be live, the fetch queue plus the window, and every live µop
// is in one of the two. A run that fills both at once must never find
// the arena empty (newUop would panic) and must account for every slot
// after every cycle, on the select-µop machine too, where one fetched
// µop can take two window entries.
func TestArenaHoldsEveryLiveUop(t *testing.T) {
	b, _ := workload.ByName("mcf")
	src, mem := b.Build(workload.InputA, 0.05)
	for _, m := range []*config.Machine{config.DefaultMachine(), config.DefaultMachine().WithSelectUop()} {
		c, err := New(m, compiler.MustCompile(src, compiler.BaseMax), mem)
		if err != nil {
			t.Fatal(err)
		}
		slots := len(c.uops) - 1
		if slots != len(c.fq)+len(c.rob) {
			t.Fatalf("%s: arena holds %d slots, want fetch queue %d + window %d", m.Name, slots, len(c.fq), len(c.rob))
		}
		peak := 0
		for !c.Advance(1) {
			live := slots - len(c.free)
			if live != c.fqCount+c.robCount {
				t.Fatalf("%s: cycle %d: %d slots in use, but the fetch queue holds %d and the window %d",
					m.Name, c.cycle, live, c.fqCount, c.robCount)
			}
			peak = max(peak, live)
		}
		if peak != slots {
			t.Errorf("%s: at most %d of %d slots were ever live; the run never filled both queues at once",
				m.Name, peak, slots)
		}
	}
}
