package emu

import (
	"testing"
	"testing/quick"

	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

func mustProg(build func(b *prog.Builder)) *prog.Program {
	b := prog.NewBuilder()
	build(b)
	return b.MustFinish()
}

func TestStraightLineExecution(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(
			isa.MovI(1, 10),
			isa.MovI(2, 3),
			isa.ALU(isa.OpMul, 3, 1, 2),
			isa.ALUI(isa.OpAdd, 3, 3, 1),
			isa.Halt(),
		)
	})
	st := New(p)
	n, err := st.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || st.Regs[3] != 31 {
		t.Fatalf("n=%d r3=%d, want 5, 31", n, st.Regs[3])
	}
}

func TestGuardedNop(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(
			isa.MovI(1, 7),
			isa.PSet(1, 0),
			isa.Guarded(1, isa.MovI(1, 99)), // guard false: preserved
			isa.PSet(2, 1),
			isa.Guarded(2, isa.MovI(2, 55)), // guard true: executes
			isa.Halt(),
		)
	})
	st := New(p)
	if _, err := st.Run(0); err != nil {
		t.Fatal(err)
	}
	if st.Regs[1] != 7 {
		t.Errorf("guarded-false mov executed: r1=%d", st.Regs[1])
	}
	if st.Regs[2] != 55 {
		t.Errorf("guarded-true mov skipped: r2=%d", st.Regs[2])
	}
}

func TestHardwiredRegisters(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(
			isa.MovI(isa.R0, 42),                        // discarded
			isa.Mov(1, isa.R0),                          // reads zero
			isa.Cmp(isa.CmpEQ, isa.P0, isa.PNone, 1, 1), // write to P0 discarded... condition true
			isa.PSet(isa.P0, 0),                         // discarded: P0 stays true
			isa.Guarded(isa.P0, isa.MovI(2, 9)),
			isa.Halt(),
		)
	})
	st := New(p)
	if _, err := st.Run(0); err != nil {
		t.Fatal(err)
	}
	if st.Regs[1] != 0 {
		t.Errorf("r0 not hardwired zero: %d", st.Regs[1])
	}
	if st.Regs[2] != 9 {
		t.Error("p0 not hardwired true")
	}
}

func TestBranchAndLoop(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(isa.MovI(1, 0), isa.MovI(2, 0))
		b.Label("loop")
		b.Emit(
			isa.ALU(isa.OpAdd, 2, 2, 1),
			isa.ALUI(isa.OpAdd, 1, 1, 1),
			isa.CmpI(isa.CmpLT, 1, isa.PNone, 1, 5),
		)
		b.BrL(1, "loop")
		b.Emit(isa.Halt())
	})
	st := New(p)
	if _, err := st.Run(0); err != nil {
		t.Fatal(err)
	}
	if st.Regs[2] != 0+1+2+3+4 {
		t.Errorf("sum = %d, want 10", st.Regs[2])
	}
}

func TestCallRet(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(isa.MovI(1, 5))
		b.CallL("double")
		b.CallL("double")
		b.Emit(isa.Halt())
		b.Label("double")
		b.Emit(isa.ALU(isa.OpAdd, 1, 1, 1), isa.Ret())
	})
	st := New(p)
	if _, err := st.Run(0); err != nil {
		t.Fatal(err)
	}
	if st.Regs[1] != 20 {
		t.Errorf("r1 = %d, want 20", st.Regs[1])
	}
}

func TestMemoryOps(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(
			isa.MovI(1, 1<<20),
			isa.MovI(2, 77),
			isa.Store(1, 16, 2),
			isa.Load(3, 1, 16),
			isa.Halt(),
		)
	})
	st := New(p)
	if _, err := st.Run(0); err != nil {
		t.Fatal(err)
	}
	if st.Regs[3] != 77 {
		t.Errorf("load = %d, want 77", st.Regs[3])
	}
}

func TestStepForcedEquivalence(t *testing.T) {
	// A predicated hammock followed by a wish branch: forcing the wish
	// branch not-taken must preserve architectural state because the
	// skipped block is guarded false.
	p := mustProg(func(b *prog.Builder) {
		b.Emit(
			isa.MovI(1, 1),
			isa.CmpI(isa.CmpEQ, 1, 2, 1, 1), // p1 = true, p2 = false
		)
		b.WishL(isa.WJump, 1, "then")
		b.Emit(isa.Guarded(2, isa.MovI(3, 100))) // else: guarded false → NOP
		b.Label("then")
		b.Emit(isa.Guarded(1, isa.MovI(3, 200)))
		b.Emit(isa.Halt())
	})

	taken := New(p)
	taken.Step()
	taken.Step()
	if !taken.PeekBranch() {
		t.Fatal("wish jump should be taken")
	}
	taken.Step() // follow actual (taken)
	if _, err := taken.Run(0); err != nil {
		t.Fatal(err)
	}

	forced := New(p)
	forced.Step()
	forced.Step()
	st := forced.StepForced(false) // low-confidence mode: fall through
	if st.Taken {
		t.Error("forced direction not honored")
	}
	if !st.GuardTrue {
		t.Error("Step should report the real guard value")
	}
	if _, err := forced.Run(0); err != nil {
		t.Fatal(err)
	}

	if taken.Regs[3] != forced.Regs[3] || taken.Regs[3] != 200 {
		t.Errorf("taken r3=%d forced r3=%d, want both 200", taken.Regs[3], forced.Regs[3])
	}
}

func TestShadowDoesNotPerturbBase(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(
			isa.MovI(1, 5),
			isa.MovI(2, 1<<20),
			isa.Store(2, 0, 1),
			isa.MovI(3, 1),
			isa.Halt(),
		)
	})
	st := New(p)
	st.Step() // r1 = 5
	sh := st.Fork(1)
	// Shadow runs the rest of the program.
	for !sh.Halted() {
		sh.Step()
	}
	if st.Regs[3] != 0 || st.Mem.Load(1<<20) != 0 {
		t.Error("shadow execution leaked into committed state")
	}
	// Shadow saw its own stores.
	sh2 := st.Fork(1)
	sh2.Step() // r2 = 1<<20
	sh2.Step() // store
	if got := sh2.PC(); got != 3 {
		t.Errorf("shadow PC = %d, want 3", got)
	}
}

func TestShadowReadsThroughToBaseMemory(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Emit(isa.MovI(1, 1<<20), isa.Load(2, 1, 0), isa.Halt())
	})
	st := New(p)
	st.Mem.Store(1<<20, 99)
	sh := st.Fork(0)
	sh.Step()
	stp := sh.Step()
	if stp.Value != 99 {
		t.Errorf("shadow load = %d, want 99 (read-through)", stp.Value)
	}
}

func TestRunLimit(t *testing.T) {
	p := mustProg(func(b *prog.Builder) {
		b.Label("spin")
		b.JmpL("spin")
		b.Emit(isa.Halt())
	})
	st := New(p)
	if _, err := st.Run(100); err == nil {
		t.Error("infinite loop did not hit the instruction limit")
	}
}

// TestMemorySparseProperty: stores then loads round-trip for arbitrary
// addresses (aligned down to 8 bytes), and untouched words read zero.
func TestMemorySparseProperty(t *testing.T) {
	f := func(addrs []uint32, vals []int64) bool {
		m := NewMemory()
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		want := map[uint64]int64{}
		for i := 0; i < n; i++ {
			a := uint64(addrs[i])
			m.Store(a, vals[i])
			want[a>>3] = vals[i]
		}
		for k, v := range want {
			if m.Load(k<<3) != v {
				return false
			}
		}
		return m.Load(1<<40) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemoryWriteWordsFootprint(t *testing.T) {
	m := NewMemory()
	m.WriteWords(0, []int64{1, 2, 3})
	if m.Load(8) != 2 {
		t.Error("WriteWords misplaced data")
	}
	if m.Footprint() == 0 {
		t.Error("footprint should be nonzero")
	}
}
