package cpu

import (
	"testing"

	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// runProg drives a hand-built program through the pipeline and checks
// architectural equivalence with the emulator.
func runProg(t *testing.T, p *prog.Program, cfg *config.Machine, mem func(*emu.Memory)) *Result {
	t.Helper()
	ref := emu.New(p)
	if mem != nil {
		mem(ref.Mem)
	}
	if _, err := ref.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, p, mem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 32; r++ {
		if c.ArchState().Regs[r] != ref.Regs[r] {
			t.Fatalf("r%d = %d, want %d", r, c.ArchState().Regs[r], ref.Regs[r])
		}
	}
	return res
}

// TestCallReturnPipeline: nested call/return patterns must predict via
// the RAS and stay architecturally correct.
func TestCallReturnPipeline(t *testing.T) {
	b := prog.NewBuilder()
	b.Emit(isa.MovI(1, 0), isa.MovI(2, 0))
	b.Label("LOOP")
	b.CallL("work")
	b.CallL("work")
	b.Emit(
		isa.ALUI(isa.OpAdd, 1, 1, 1),
		isa.CmpI(isa.CmpLT, 1, isa.PNone, 1, 3000),
	)
	b.BrL(1, "LOOP")
	b.Emit(isa.Halt())
	b.Label("work")
	b.Emit(
		isa.ALUI(isa.OpAdd, 2, 2, 7),
		isa.ALUI(isa.OpXor, 2, 2, 1),
		isa.Ret(),
	)
	p := b.MustFinish()
	res := runProg(t, p, config.DefaultMachine(), nil)
	// Returns alternate between two call sites; the RAS must keep them
	// straight — flushes should come only from loop warmup.
	if res.Flushes > 50 {
		t.Errorf("call/return loop flushed %d times: RAS mispredicting", res.Flushes)
	}
}

// jumpTableProg is a loop whose indirect jump reads its target from a
// 2000-entry table at 1<<20 and lands on one of two cases. The table
// comes from jumpTableMem.
func jumpTableProg() *prog.Program {
	b := prog.NewBuilder()
	b.Emit(isa.MovI(1, 0), isa.MovI(2, 0), isa.MovI(20, 1<<20))
	b.Label("LOOP")
	b.Emit(
		isa.Load(3, 20, 0), // target byte address from the table
		isa.ALUI(isa.OpAdd, 20, 20, 8),
	)
	b.Emit(isa.Inst{Op: isa.OpJmpInd, Src1: 3, PDst: isa.PNone, PDst2: isa.PNone})
	b.Label("CASE0")
	b.Emit(isa.ALUI(isa.OpAdd, 2, 2, 1))
	b.JmpL("NEXT")
	b.Label("CASE1")
	b.Emit(isa.ALUI(isa.OpAdd, 2, 2, 100))
	b.Label("NEXT")
	b.Emit(
		isa.ALUI(isa.OpAdd, 1, 1, 1),
		isa.CmpI(isa.CmpLT, 1, isa.PNone, 1, 2000),
	)
	b.BrL(1, "LOOP")
	b.Emit(isa.Halt())
	return b.MustFinish()
}

// jumpTableMem fills p's jump table with alternating cases, which the
// history-indexed target cache learns, or with a pseudo-random
// sequence, which it cannot.
func jumpTableMem(p *prog.Program, random bool) func(*emu.Memory) {
	return func(m *emu.Memory) {
		s := uint64(99)
		for i := 0; i < 2000; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			tgt := prog.Addr(p.Labels["CASE0"])
			if (!random && i%2 == 1) || (random && s>>63 == 1) {
				tgt = prog.Addr(p.Labels["CASE1"])
			}
			m.Store(uint64(1<<20+i*8), int64(tgt))
		}
	}
}

// TestIndirectJumpPipeline: a jump table driven by a repeating pattern
// must train the indirect target cache; a random pattern must still be
// architecturally correct while flushing.
func TestIndirectJumpPipeline(t *testing.T) {
	p := jumpTableProg()
	// Alternating pattern: the history-indexed target cache learns it.
	resAlt := runProg(t, p, config.DefaultMachine(), jumpTableMem(p, false))
	// Random pattern: correctness must hold even with heavy flushing.
	resRnd := runProg(t, p, config.DefaultMachine(), jumpTableMem(p, true))

	if resAlt.Flushes >= resRnd.Flushes {
		t.Errorf("alternating targets flushed %d >= random %d: indirect cache not learning",
			resAlt.Flushes, resRnd.Flushes)
	}
	if resRnd.Flushes < 500 {
		t.Errorf("random indirect targets flushed only %d times (of ~1000 expected)", resRnd.Flushes)
	}
}

// TestBTBMissBubbles: a scattered set of always-taken branches larger
// than the BTB must keep missing and pay redirect bubbles.
func TestBTBMissBubbles(t *testing.T) {
	cfg := config.DefaultMachine()
	cfg.BTBEntries = 8
	cfg.BTBWays = 2

	b := prog.NewBuilder()
	b.Emit(isa.MovI(1, 0))
	b.Label("LOOP")
	// A chain of unconditional jumps at distinct PCs.
	for i := 0; i < 32; i++ {
		lbl := "J" + string(rune('A'+i%26)) + string(rune('a'+i/26))
		b.JmpL(lbl)
		b.Label(lbl)
		b.Emit(isa.ALUI(isa.OpAdd, 1, 1, 1))
	}
	b.Emit(isa.CmpI(isa.CmpLT, 1, isa.PNone, 1, 3200))
	b.BrL(1, "LOOP")
	b.Emit(isa.Halt())
	p := b.MustFinish()

	res := runProg(t, p, cfg, nil)
	if res.BTBMissBubbles < 1000 {
		t.Errorf("got %d BTB miss bubbles, expected constant thrashing with an 8-entry BTB",
			res.BTBMissBubbles)
	}
	big := runProg(t, p, config.DefaultMachine(), nil)
	if big.BTBMissBubbles*10 > res.BTBMissBubbles {
		t.Errorf("4K-entry BTB bubbles (%d) should be far below 8-entry (%d)",
			big.BTBMissBubbles, res.BTBMissBubbles)
	}
	if big.Cycles >= res.Cycles {
		t.Errorf("larger BTB (%d cycles) not faster than thrashing BTB (%d)", big.Cycles, res.Cycles)
	}
}

// TestICacheStall: code far larger than a shrunken I-cache must show
// instruction-fetch misses.
func TestICacheStall(t *testing.T) {
	b := prog.NewBuilder()
	b.Emit(isa.MovI(1, 0))
	b.Label("LOOP")
	for i := 0; i < 3000; i++ {
		b.Emit(isa.ALUI(isa.OpAdd, 2, 2, int64(i&7)))
	}
	b.Emit(
		isa.ALUI(isa.OpAdd, 1, 1, 1),
		isa.CmpI(isa.CmpLT, 3, isa.PNone, 1, 5),
	)
	b.BrL(3, "LOOP")
	b.Emit(isa.Halt())
	p := b.MustFinish()

	cfg := config.DefaultMachine()
	cfg.Caches.L1I.SizeBytes = 2048 // 2KB I-cache vs ~12KB of code
	small := runProg(t, p, cfg, nil)
	if small.L1I.Misses == 0 {
		t.Fatal("no I-cache misses with a 2KB I-cache")
	}
	big := runProg(t, p, config.DefaultMachine(), nil)
	if big.Cycles >= small.Cycles {
		t.Errorf("64KB I-cache (%d cycles) not faster than 2KB (%d)", big.Cycles, small.Cycles)
	}
}
