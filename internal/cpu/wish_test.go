package cpu

import (
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// hammockWish builds Figure 3(c)'s wish jump/join code by hand:
//
//	movi r1, <cond>
//	cmp.eq p1,p2 = r1, 1
//	wish.jump p1, THEN
//	(p2) movi r2, 1        ; else ("b = 1")
//	wish.join p2, JOIN
//	THEN: (p1) movi r2, 0  ; then ("b = 0")
//	JOIN: ... halt
func hammockWish(cond int64) *prog.Program {
	b := prog.NewBuilder()
	b.Emit(isa.MovI(1, cond), isa.MovI(3, 0))
	b.Emit(isa.CmpI(isa.CmpEQ, 1, 2, 1, 1))
	b.WishL(isa.WJump, 1, "THEN")
	b.Emit(isa.Guarded(2, isa.MovI(2, 1)))
	// Pad the else block so the low-confidence region spans several
	// fetch cycles (observable from outside the cycle loop).
	for i := 0; i < 24; i++ {
		b.Emit(isa.Guarded(2, isa.ALUI(isa.OpAdd, 5, 5, int64(i))))
	}
	b.WishL(isa.WJoin, 2, "JOIN")
	b.Label("THEN")
	b.Emit(isa.Guarded(1, isa.MovI(2, 0)))
	b.Label("JOIN")
	b.Emit(isa.ALU(isa.OpAdd, 3, 3, 2), isa.Halt())
	return b.MustFinish()
}

// buildWishHammockLoop wraps the hammock in a counted loop via the
// compiler so predictors warm up.
func buildWishHammockLoop(iters int64, random bool) *compiler.Source {
	return &compiler.Source{
		Name: "hammock",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					condBit(random),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpEQ, 2, 0)),
						Then: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpAdd, 16, 16, 1),
							isa.ALUI(isa.OpXor, 16, 16, 2),
							isa.ALUI(isa.OpAdd, 16, 16, 3),
							isa.ALUI(isa.OpOr, 16, 16, 1),
							isa.ALUI(isa.OpAdd, 16, 16, 5),
							isa.ALUI(isa.OpSub, 16, 16, 2),
						)},
						Else: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpSub, 16, 16, 1),
							isa.ALUI(isa.OpXor, 16, 16, 4),
							isa.ALUI(isa.OpAdd, 16, 16, 7),
							isa.ALUI(isa.OpAnd, 16, 16, 0xFFFF),
							isa.ALUI(isa.OpAdd, 16, 16, 9),
							isa.ALUI(isa.OpSub, 16, 16, 3),
						)},
						Prof: compiler.Profile{TakenProb: 0.5, MispredRate: 0.3},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, iters)),
			},
		},
	}
}

// condBit computes the hammock condition bit into r2: an alternating
// (perfectly learnable) pattern, or a random coin flip loaded from
// memory (unlearnable — arithmetic hashes of the index are NOT used
// because history-based predictors memorize them).
func condBit(random bool) compiler.Straight {
	if random {
		return compiler.S(
			isa.ALUI(isa.OpAnd, 14, 1, 4095),
			isa.ALUI(isa.OpShl, 14, 14, 3),
			isa.ALUI(isa.OpAdd, 14, 14, 1<<20),
			isa.Load(2, 14, 0),
		)
	}
	return compiler.S(isa.ALUI(isa.OpAnd, 2, 1, 1))
}

// coinMem fills the coin array condBit(true) reads.
func coinMem(m *emu.Memory) {
	s := uint64(31)
	for i := 0; i < 4096; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		m.Store(uint64(1<<20+i*8), int64(s>>62)&1)
	}
}

func runWish(t *testing.T, p *prog.Program, cfg *config.Machine) *Result {
	t.Helper()
	c, err := New(cfg, p, coinMem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWishJumpHighConfidenceSkipsFalsePath: a perfectly predictable
// wish hammock run with perfect confidence must fetch roughly one block
// per iteration (high-confidence mode = branch prediction), while the
// BASE-MAX equivalent fetches both.
func TestWishJumpHighConfidenceSkipsFalsePath(t *testing.T) {
	src := buildWishHammockLoop(3000, false)
	wish := compiler.MustCompile(src, compiler.WishJumpJoin)
	max := compiler.MustCompile(src, compiler.BaseMax)

	cfg := config.DefaultMachine()
	cfg.PerfectConfidence = true
	rw := runWish(t, wish, cfg)
	rm := runWish(t, max, config.DefaultMachine())

	if rw.WishJump.HighMispred+rw.WishJump.HighCorrect == 0 {
		t.Fatal("no high-confidence wish jumps")
	}
	// The alternating pattern is fully predictable: essentially all
	// instances high-confidence and correct.
	if rw.WishJump.HighCorrect < rw.WishJump.Total()*9/10 {
		t.Errorf("high-correct = %d of %d", rw.WishJump.HighCorrect, rw.WishJump.Total())
	}
	// High-confidence mode retires only the taken path's µops; the
	// predicated binary retires both blocks every iteration.
	if rw.ProgUops >= rm.ProgUops {
		t.Errorf("wish retired %d µops, BASE-MAX %d: high-confidence mode did not skip the false path",
			rw.ProgUops, rm.ProgUops)
	}
	if rw.Cycles >= rm.Cycles {
		t.Errorf("wish (%d cycles) not faster than BASE-MAX (%d) on a predictable hammock",
			rw.Cycles, rm.Cycles)
	}
}

// TestWishJumpLowConfidenceNeverFlushes: with a random condition and
// all-low confidence (threshold above the counter maximum), wish
// jump/join code must complete with no more flushes than the loop
// branch itself causes — the hammock can never flush.
func TestWishJumpLowConfidenceNeverFlushes(t *testing.T) {
	src := buildWishHammockLoop(2000, true)
	wish := compiler.MustCompile(src, compiler.WishJumpJoin)
	norm := compiler.MustCompile(src, compiler.NormalBranch)

	cfg := config.DefaultMachine()
	cfg.JRS.Threshold = 16 // unreachable with 4-bit counters: all low
	rw := runWish(t, wish, cfg)
	rn := runWish(t, norm, config.DefaultMachine())

	if rw.WishJump.HighCorrect+rw.WishJump.HighMispred != 0 {
		t.Error("expected zero high-confidence instances")
	}
	// The normal binary flushes on the hammock; the wish binary must
	// not (the outer loop is near-perfectly predictable in both).
	if rw.Flushes*10 > rn.Flushes {
		t.Errorf("wish flushes = %d vs normal %d: low-confidence mode should eliminate hammock flushes",
			rw.Flushes, rn.Flushes)
	}
}

// buildWishLoopSrc builds a program whose inner loop trip count comes
// from memory, so tests can stage early/late/no-exit behaviour.
func buildWishLoopSrc(iters int64) *compiler.Source {
	return &compiler.Source{
		Name: "wloop",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(20, 1<<20)),
			compiler.DoWhile{
				Body: []compiler.Node{
					compiler.S(isa.Load(2, 20, 0), isa.MovI(3, 0)),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 16, 16, 3),
							isa.ALUI(isa.OpAdd, 3, 3, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 3, 2)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 20, 20, 8), isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, iters)),
			},
		},
	}
}

// TestWishLoopClassification: variable trip counts must produce
// late-exit-classified mispredictions (no flush) and the run must stay
// architecturally correct.
func TestWishLoopClassification(t *testing.T) {
	const iters = 3000
	src := buildWishLoopSrc(iters)
	jjl := compiler.MustCompile(src, compiler.WishJumpJoinLoop)
	if _, wish := jjl.StaticCondBranches(); wish == 0 {
		t.Fatal("inner loop not converted to a wish loop")
	}
	mem := func(m *emu.Memory) {
		s := uint64(7)
		for i := 0; i < iters; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			m.Store(uint64(1<<20+i*8), 1+int64(s>>33)%5)
		}
	}
	cfg := config.DefaultMachine()
	c, err := New(cfg, jjl, mem)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	wl := res.WishLoop
	if wl.Total() == 0 {
		t.Fatal("no wish loops retired")
	}
	if wl.LowMispred > 0 && wl.LowEarly+wl.LowLate+wl.LowNoExit != wl.LowMispred {
		t.Errorf("classification incomplete: %d mispredicted = %d early + %d late + %d no-exit",
			wl.LowMispred, wl.LowEarly, wl.LowLate, wl.LowNoExit)
	}
	if wl.LowLate == 0 {
		t.Error("variable-trip wish loop produced no late exits")
	}
	// Architectural check against the functional emulator.
	ref := emu.New(jjl)
	mem(ref.Mem)
	if _, err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := c.ArchState().Regs[16]; got != ref.Regs[16] {
		t.Errorf("r16 = %d, want %d", got, ref.Regs[16])
	}
}

// TestModeStateMachine exercises Figure 8's transitions directly.
func TestModeStateMachine(t *testing.T) {
	p := hammockWish(1)
	cfg := config.DefaultMachine()
	cfg.JRS.Threshold = 16 // everything low-confidence
	c, err := New(cfg, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode() != ModeNormal {
		t.Fatalf("initial mode = %v", c.Mode())
	}
	// Run a bounded number of cycles; after the wish jump is fetched
	// the mode must pass through low-confidence, and by halt it must be
	// back to normal (target fetched).
	sawLow := false
	for i := 0; i < 2000 && !c.res.Halted; i++ {
		c.completions()
		c.retire()
		c.issue()
		c.dispatch()
		c.fetch()
		c.cycle++
		if c.Mode() == ModeLow {
			sawLow = true
		}
	}
	if !sawLow {
		t.Error("front end never entered low-confidence mode")
	}
	if c.Mode() != ModeNormal {
		t.Errorf("final mode = %v, want normal (target fetched)", c.Mode())
	}
}

// TestTable1Cascade: when the wish jump is low-confidence, following
// joins must be forced not-taken (fetched fall-through) regardless of
// their own predictions — Table 1's cascade rule.
func TestTable1Cascade(t *testing.T) {
	// if (c1 || c2) {big then} else {big else} — compiled to a wish
	// region with one jump and two joins.
	src := &compiler.Source{
		Name: "cascade",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					compiler.S(isa.ALUI(isa.OpAnd, 2, 1, 7), isa.ALUI(isa.OpAnd, 3, 1, 3)),
					compiler.If{
						Cond: compiler.CondOf(
							compiler.TermRI(isa.CmpEQ, 2, 2),
							compiler.TermRI(isa.CmpEQ, 3, 1),
						),
						Then: []compiler.Node{compiler.S(wideBlockTest(0x3)...)},
						Else: []compiler.Node{compiler.S(wideBlockTest(0x9)...)},
						Prof: compiler.Profile{TakenProb: 0.4, MispredRate: 0.3},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, 2000)),
			},
		},
	}
	p := compiler.MustCompile(src, compiler.WishJumpJoin)
	nJumps := 0
	nJoins := 0
	for _, in := range p.Code {
		if in.IsWish() {
			if in.WType == isa.WJump {
				nJumps++
			} else if in.WType == isa.WJoin {
				nJoins++
			}
		}
	}
	if nJumps != 1 || nJoins < 2 {
		t.Fatalf("region shape: %d jumps, %d joins, want 1 and >=2\n%s", nJumps, nJoins, p.Disassemble())
	}

	cfg := config.DefaultMachine()
	cfg.JRS.Threshold = 16 // jump always low: cascade forces joins not-taken
	res := runWish(t, p, cfg)
	// With the cascade in force, no join may be estimated high.
	if res.WishJoin.HighCorrect+res.WishJoin.HighMispred != 0 {
		t.Errorf("joins escaped the low-confidence cascade: %+v", res.WishJoin)
	}
	if res.Flushes > res.CondBranches/50 {
		t.Errorf("low-confidence region still flushed %d times", res.Flushes)
	}
}

func wideBlockTest(salt int64) []isa.Inst {
	var is []isa.Inst
	for j := int64(0); j < 8; j++ {
		is = append(is, isa.ALUI(isa.OpAdd, isa.Reg(16), isa.Reg(16), salt+j))
	}
	return is
}

// TestPredicateElimination: in high-confidence mode, predicated µops
// must not wait for their predicate (the §3.5.3 buffer), which shows up
// as a latency difference when the predicate is slow to compute.
func TestPredicateElimination(t *testing.T) {
	// The predicate depends on a division chain (slow); the guarded
	// block is long. High confidence + correct prediction should hide
	// the predicate latency entirely.
	// The loop-carried critical path runs THROUGH the guarded update:
	// r4 → div → div → cmp → (p1) r4++ → next iteration's div. With
	// C-style predication the guarded add waits for the compare (~26
	// cycles per iteration); with the predicate predicted it only waits
	// for the old r4 (a 1-cycle chain), so the divides fall off the
	// critical path.
	build := func() *prog.Program {
		b := prog.NewBuilder()
		b.Emit(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(4, 1000))
		b.Label("LOOP")
		b.Emit(
			isa.ALUI(isa.OpDiv, 5, 4, 3), // slow predicate computation
			isa.ALUI(isa.OpDiv, 5, 5, 1),
			isa.CmpI(isa.CmpGE, 1, 2, 5, -1), // p1 always true here
		)
		b.WishL(isa.WJump, 2, "SKIP") // jump over the block when p1 false
		b.Emit(isa.Guarded(1, isa.ALUI(isa.OpAdd, 4, 4, 1)))
		for i := 0; i < 6; i++ {
			b.Emit(isa.Guarded(1, isa.ALUI(isa.OpAdd, 16, 16, int64(i))))
		}
		b.Label("SKIP")
		b.Emit(
			isa.ALUI(isa.OpAdd, 1, 1, 1),
			isa.CmpI(isa.CmpLT, 3, isa.PNone, 1, 2000),
		)
		b.BrL(3, "LOOP")
		b.Emit(isa.Halt())
		return b.MustFinish()
	}
	cfgHigh := config.DefaultMachine()
	cfgHigh.PerfectConfidence = true
	rHigh := runWish(t, build(), cfgHigh)

	cfgLow := config.DefaultMachine()
	cfgLow.JRS.Threshold = 16
	rLow := runWish(t, build(), cfgLow)

	// Low-confidence mode serializes the guarded block behind the
	// divide chain; high-confidence mode predicts the predicate.
	if rHigh.Cycles >= rLow.Cycles {
		t.Errorf("high-confidence (%d cycles) not faster than low-confidence (%d): predicate elimination ineffective",
			rHigh.Cycles, rLow.Cycles)
	}
}

// TestSelectUopInjection: under the select-µop mechanism, every
// predicated (guarded) instruction dispatches an extra select µop, so
// total retired µops exceed program µops by exactly the guarded-µop
// count — the §5.3.3 overhead the paper measures in Figure 16.
func TestSelectUopInjection(t *testing.T) {
	src := buildWishHammockLoop(1000, false)
	p := compiler.MustCompile(src, compiler.BaseMax)

	plain := runWish(t, p, config.DefaultMachine())
	sel := runWish(t, p, config.DefaultMachine().WithSelectUop())

	if plain.RetiredUops != plain.ProgUops {
		t.Errorf("C-style injected µops: retired %d vs program %d",
			plain.RetiredUops, plain.ProgUops)
	}
	if sel.ProgUops != plain.ProgUops {
		t.Errorf("program µops differ across mechanisms: %d vs %d",
			sel.ProgUops, plain.ProgUops)
	}
	extra := sel.RetiredUops - sel.ProgUops
	// Count guarded non-branch µops functionally.
	ref := emu.New(p)
	var guarded uint64
	for !ref.Halted {
		s := ref.Step()
		if s.Inst.Guard != isa.P0 && !s.Inst.IsBranch() &&
			(s.Inst.WritesInt() || s.Inst.WritesPred()) {
			guarded++
		}
	}
	if extra != guarded {
		t.Errorf("select µops injected = %d, want %d (one per guarded µop)", extra, guarded)
	}
}

// TestHighConfMispredictFlushes: a wish branch mispredicted in
// high-confidence mode must flush like a normal branch (§3.1). Forcing
// everything high-confidence on a random hammock recreates normal-binary
// behaviour, flushes included.
func TestHighConfMispredictFlushes(t *testing.T) {
	src := buildWishHammockLoop(2000, true)
	wish := compiler.MustCompile(src, compiler.WishJumpJoin)

	cfg := config.DefaultMachine()
	cfg.JRS.Threshold = 0 // counter >= 0 always: everything high-confidence
	rw := runWish(t, wish, cfg)

	mispred := rw.WishJump.HighMispred
	if mispred < 500 {
		t.Fatalf("random hammock mispredicted only %d high-confidence jumps", mispred)
	}
	if rw.Flushes < mispred {
		t.Errorf("flushes (%d) < high-confidence mispredictions (%d): flush missing",
			rw.Flushes, mispred)
	}
}
