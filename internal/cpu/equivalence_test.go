package cpu

import (
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/workload"
)

// TestPipelineArchitecturalEquivalence is the simulator's strongest
// invariant: for every benchmark and every binary variant, the timing
// pipeline — with its wrong-path shadows, forced wish-branch
// directions, predicate prediction, and flush repositioning — must
// finish with exactly the architectural register state a pure
// functional execution produces, and must retire at least as many
// program µops as the functional path (low-confidence wish execution
// adds NOP iterations; it never skips work).
func TestPipelineArchitecturalEquivalence(t *testing.T) {

	cfgs := map[string]*config.Machine{
		"baseline":   config.DefaultMachine(),
		"select-uop": config.DefaultMachine().WithSelectUop(),
		"small":      config.DefaultMachine().WithWindow(128).WithDepth(10),
	}
	for _, b := range workload.All() {
		src, mem := b.Build(workload.InputA, 0.1)
		for _, v := range compiler.Variants() {
			p, err := compiler.Compile(src, v)
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, v, err)
			}
			ref := emu.New(p)
			mem(ref.Mem)
			refN, err := ref.Run(0)
			if err != nil {
				t.Fatalf("%s/%v: emulator: %v", b.Name, v, err)
			}
			for cname, cfg := range cfgs {
				c, err := New(cfg, p, mem)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", b.Name, v, cname, err)
				}
				res, err := c.Run(0)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", b.Name, v, cname, err)
				}
				st := c.ArchState()
				// Compare the registers that are architecturally live at
				// program end: the index and the accumulators. Scratch
				// registers written inside skipped condition-term setups
				// may legitimately differ between branchy and predicated
				// executions of a wish region (the compiler's Term.Setup
				// contract declares them dead outside the region).
				for _, r := range []isa.Reg{1, 16, 17, 18, 19} {
					if st.Regs[r] != ref.Regs[r] {
						t.Errorf("%s/%v/%s: r%d = %d, want %d",
							b.Name, v, cname, r, st.Regs[r], ref.Regs[r])
						break
					}
				}
				if res.ProgUops < refN {
					t.Errorf("%s/%v/%s: retired %d program µops < functional %d",
						b.Name, v, cname, res.ProgUops, refN)
				}
				if !res.Halted {
					t.Errorf("%s/%v/%s: did not halt", b.Name, v, cname)
				}
			}
		}
	}
}

// TestPerfectBPNoFlushes: under the PERFECT-CBP oracle the pipeline
// must never flush.
func TestPerfectBPNoFlushes(t *testing.T) {

	cfg := config.DefaultMachine()
	cfg.PerfectBP = true
	for _, b := range workload.All() {
		src, mem := b.Build(workload.InputA, 0.1)
		p := compiler.MustCompile(src, compiler.NormalBranch)
		c, err := New(cfg, p, mem)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if res.Flushes != 0 {
			t.Errorf("%s: %d flushes under perfect branch prediction", b.Name, res.Flushes)
		}
		if res.MispredCondBr != 0 {
			t.Errorf("%s: %d mispredictions under perfect branch prediction", b.Name, res.MispredCondBr)
		}
	}
}

// TestOraclesOnlyImprove: each Figure 2 oracle must not slow the
// predicated binary down.
func TestOraclesOnlyImprove(t *testing.T) {

	for _, name := range []string{"mcf", "vpr", "gzip"} {
		b, _ := workload.ByName(name)
		src, mem := b.Build(workload.InputA, 0.1)
		p := compiler.MustCompile(src, compiler.BaseMax)
		run := func(noDep, noFetch bool) uint64 {
			cfg := config.DefaultMachine()
			cfg.NoPredDepend = noDep
			cfg.NoFalseFetch = noFetch
			c, err := New(cfg, p, mem)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res.Cycles
		}
		base := run(false, false)
		noDep := run(true, false)
		noFetch := run(true, true)
		if noDep > base+base/20 {
			t.Errorf("%s: NO-DEPEND (%d) slower than BASE-MAX (%d)", name, noDep, base)
		}
		if noFetch > noDep+noDep/20 {
			t.Errorf("%s: NO-FETCH (%d) slower than NO-DEPEND (%d)", name, noFetch, noDep)
		}
	}
}
