package cpu

import (
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/testutil"
)

// TestFuzzPipelineEquivalence drives randomly generated structured
// programs through the full timing pipeline, for every binary variant
// and a spread of machine configurations (including the oracles), and
// requires bit-exact architectural results against pure functional
// execution. This is the widest net over the speculative machinery:
// wrong-path shadows, forced wish directions, predicate elimination,
// wish-loop recovery, select-µops, and flush repair all have to agree
// with the emulator on every program.
func TestFuzzPipelineEquivalence(t *testing.T) {
	seeds := testutil.Seeds(t, 25, 5)
	cfgs := []*config.Machine{
		config.DefaultMachine(),
		config.DefaultMachine().WithSelectUop(),
		config.DefaultMachine().WithWindow(128).WithDepth(10),
	}
	perfect := config.DefaultMachine()
	perfect.PerfectConfidence = true
	cfgs = append(cfgs, perfect)
	oracle := config.DefaultMachine()
	oracle.NoPredDepend = true
	cfgs = append(cfgs, oracle)
	noFetch := config.DefaultMachine()
	noFetch.NoFalseFetch = true
	cfgs = append(cfgs, noFetch)
	perfBP := config.DefaultMachine()
	perfBP.PerfectBP = true
	cfgs = append(cfgs, perfBP)

	for seed := 0; seed < seeds; seed++ {
		raw := uint64(seed)*0x9E3779B1 + 3
		src := compiler.GenRandomSource(raw)
		for _, v := range compiler.Variants() {
			p, err := compiler.Compile(src, v)
			if err != nil {
				t.Fatalf("seed %d %v: %v\n%s", seed, v, err, testutil.ReplayHint("arch", raw))
			}
			ref := emu.New(p)
			if _, err := ref.Run(50_000_000); err != nil {
				t.Fatalf("seed %d %v: %v\n%s", seed, v, err, testutil.ReplayHint("arch", raw))
			}
			for ci, cfg := range cfgs {
				c, err := New(cfg, p, nil)
				if err != nil {
					t.Fatalf("seed %d %v cfg%d: %v\n%s", seed, v, ci, err, testutil.ReplayHint("arch", raw))
				}
				res, err := c.Run(5_000_000)
				if err != nil {
					t.Fatalf("seed %d %v cfg%d: %v\n%s", seed, v, ci, err, testutil.ReplayHint("arch", raw))
				}
				if !res.Halted {
					t.Fatalf("seed %d %v cfg%d: did not halt\n%s", seed, v, ci, testutil.ReplayHint("arch", raw))
				}
				for a := 0; a < compiler.GenAccs; a++ {
					r := isa.Reg(compiler.GenAccBase + a)
					if c.ArchState().Regs[r] != ref.Regs[r] {
						t.Fatalf("seed %d %v cfg%d: r%d = %d, want %d\n%s",
							seed, v, ci, r, c.ArchState().Regs[r], ref.Regs[r],
							testutil.ReplayHint("arch", raw))
					}
				}
				for w := 0; w < compiler.GenMemWords; w++ {
					addr := uint64(compiler.GenMemBase + 8*w)
					if got, want := c.ArchState().Mem.Load(addr), ref.Mem.Load(addr); got != want {
						t.Fatalf("seed %d %v cfg%d: mem[%#x] = %d, want %d\n%s",
							seed, v, ci, addr, got, want, testutil.ReplayHint("arch", raw))
					}
				}
			}
		}
	}
}
