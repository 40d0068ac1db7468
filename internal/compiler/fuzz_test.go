package compiler

import (
	"testing"

	"wishbranch/internal/emu"
	"wishbranch/internal/testutil"
)

// TestFuzzVariantEquivalence: for many random programs, all five binary
// variants must compute identical accumulator values under functional
// execution. Any incorrect guard composition, wish-region layout, or
// predicate allocation shows up as a divergence.
func TestFuzzVariantEquivalence(t *testing.T) {
	seeds := testutil.Seeds(t, 60, 10)
	for seed := 0; seed < seeds; seed++ {
		raw := uint64(seed)*2654435761 + 17
		src := GenRandomSource(raw)
		var ref [GenAccs]int64
		var refMem [GenMemWords]int64
		for vi, v := range Variants() {
			p, err := Compile(src, v)
			if err != nil {
				t.Fatalf("seed %d %v: %v\n%s", seed, v, err, testutil.ReplayHint("arch", raw))
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d %v: %v\n%s", seed, v, err, testutil.ReplayHint("arch", raw))
			}
			st := emu.New(p)
			if _, err := st.Run(50_000_000); err != nil {
				t.Fatalf("seed %d %v: %v\n%s", seed, v, err, testutil.ReplayHint("arch", raw))
			}
			for a := 0; a < GenAccs; a++ {
				got := st.Regs[GenAccBase+a]
				if vi == 0 {
					ref[a] = got
				} else if got != ref[a] {
					t.Fatalf("seed %d %v: r%d = %d, want %d (normal)\n%s\n%s",
						seed, v, GenAccBase+a, got, ref[a], testutil.ReplayHint("arch", raw), p.Disassemble())
				}
			}
			for w := 0; w < GenMemWords; w++ {
				got := st.Mem.Load(uint64(GenMemBase + 8*w))
				if vi == 0 {
					refMem[w] = got
				} else if got != refMem[w] {
					t.Fatalf("seed %d %v: mem[%#x] = %d, want %d (normal)\n%s",
						seed, v, GenMemBase+8*w, got, refMem[w], testutil.ReplayHint("arch", raw))
				}
			}
		}
	}
}
