package examples

import (
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

const (
	loopOuter    = 20000
	loopDataBase = 1 << 20
)

func loopexitSource() *compiler.Source {
	return &compiler.Source{
		Name: "loopexit",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(20, loopDataBase)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Trip count for this iteration, from the input data.
					compiler.S(isa.Load(2, 20, 0), isa.MovI(3, 0)),
					// The wish-loop candidate: do { ... } while (++n < trip).
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 16, 16, 3),
							isa.ALUI(isa.OpXor, 16, 16, 1),
							isa.ALUI(isa.OpAdd, 3, 3, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 3, 2)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 20, 20, 8), isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, loopOuter)),
			},
		},
	}
}

func loopexitMem(m *emu.Memory) {
	s := uint64(42)
	for i := 0; i < loopOuter; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		m.Store(uint64(loopDataBase+i*8), 1+int64(s>>33)%5) // trips 1..5
	}
}

func runLoopexit(v compiler.Variant) *cpu.Result {
	res, _ := simulate(config.DefaultMachine(), compiler.MustCompile(loopexitSource(), v), loopexitMem)
	return res
}

// Wish loops (§3.2 of the paper) on a backward branch whose small,
// variable, unpredictable trip count makes it hard to predict. The wish
// loop predicates the body, so when the front end overshoots the exit
// the extra iterations drain as NOPs (late exit) instead of costing a
// pipeline flush. The same loop nest runs as a normal-branch binary and
// as a wish jump/join/loop binary, and the wish loops are classified
// early/late/no-exit (the paper's Figure 13 taxonomy).
func Example_loopexit() {
	normal := runLoopexit(compiler.NormalBranch)
	wish := runLoopexit(compiler.WishJumpJoinLoop)

	fmt.Printf("normal backward branch:  %8d cycles, %6d flushes, %.1f mispred/1Kµops\n",
		normal.Cycles, normal.Flushes, normal.MispredPer1K())
	fmt.Printf("wish loop:               %8d cycles, %6d flushes\n",
		wish.Cycles, wish.Flushes)
	speedup := float64(normal.Cycles)/float64(wish.Cycles) - 1
	fmt.Printf("speedup from wish loops: %+.1f%%\n\n", speedup*100)

	wl := wish.WishLoop
	fmt.Println("dynamic wish loop classification (the paper's Figure 13 taxonomy):")
	fmt.Printf("  high-confidence correct     %8d\n", wl.HighCorrect)
	fmt.Printf("  high-confidence mispredict  %8d   (flush, as a normal branch)\n", wl.HighMispred)
	fmt.Printf("  low-confidence correct      %8d   (predicated, no penalty)\n", wl.LowCorrect)
	fmt.Printf("  low-confidence early-exit   %8d   (flush: loop left too soon)\n", wl.LowEarly)
	fmt.Printf("  low-confidence late-exit    %8d   (extra iterations drain as NOPs: the win)\n", wl.LowLate)
	fmt.Printf("  low-confidence no-exit      %8d   (flush from the loop fall-through)\n", wl.LowNoExit)

	// Output:
	// normal backward branch:    942247 cycles,  18620 flushes, 44.3 mispred/1Kµops
	// wish loop:                 738364 cycles,  11787 flushes
	// speedup from wish loops: +27.6%
	//
	// dynamic wish loop classification (the paper's Figure 13 taxonomy):
	//   high-confidence correct          386
	//   high-confidence mispredict       184   (flush, as a normal branch)
	//   low-confidence correct         47897   (predicated, no penalty)
	//   low-confidence early-exit      11483   (flush: loop left too soon)
	//   low-confidence late-exit       16370   (extra iterations drain as NOPs: the win)
	//   low-confidence no-exit           119   (flush from the loop fall-through)
}
