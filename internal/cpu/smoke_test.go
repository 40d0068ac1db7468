package cpu

import (
	"testing"

	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// buildLoopHammock builds a program that loops n times; each iteration
// loads a data word and runs a hammock branch on its parity. Layout:
//
//	     movi r1 = 0        ; i
//	     movi r2 = n
//	     movi r3 = base     ; data pointer
//	     movi r4 = 0        ; accumulator
//	LOOP: ld  r5 = [r3+0]
//	     cmp.eq p1,p2 = r5&1, 1
//	     br p1, ODD
//	     add r4 = r4, 1
//	     jmp JOIN
//	ODD:  add r4 = r4, 2
//	JOIN: add r3 = r3, 8
//	     add r1 = r1, 1
//	     cmp.lt p3 = r1, r2
//	     br p3, LOOP
//	     halt
func buildLoopHammock(n int64) *prog.Program {
	b := prog.NewBuilder()
	b.Emit(
		isa.MovI(1, 0),
		isa.MovI(2, n),
		isa.MovI(3, 1<<20),
		isa.MovI(4, 0),
	)
	b.Label("LOOP")
	b.Emit(
		isa.Load(5, 3, 0),
		isa.ALUI(isa.OpAnd, 6, 5, 1),
		isa.CmpI(isa.CmpEQ, 1, 2, 6, 1),
	)
	b.BrL(1, "ODD")
	b.Emit(isa.ALUI(isa.OpAdd, 4, 4, 1))
	b.JmpL("JOIN")
	b.Label("ODD")
	b.Emit(isa.ALUI(isa.OpAdd, 4, 4, 2))
	b.Label("JOIN")
	b.Emit(
		isa.ALUI(isa.OpAdd, 3, 3, 8),
		isa.ALUI(isa.OpAdd, 1, 1, 1),
	)
	b.Emit(isa.CmpI(isa.CmpLT, 3, isa.PNone, 1, 0)) // patched below: r1 < r2
	b.BrL(3, "LOOP")
	b.Emit(isa.Halt())
	p := b.MustFinish()
	// Fix the trip-count compare to use r2 as the bound.
	for i := range p.Code {
		if p.Code[i].Op == isa.OpCmp && p.Code[i].PDst == 3 {
			p.Code[i] = isa.Cmp(isa.CmpLT, 3, isa.PNone, 1, 2)
		}
	}
	return p
}

func initMem(n int) func(*emu.Memory) {
	return func(m *emu.Memory) {
		for i := 0; i < n; i++ {
			m.Store(uint64(1<<20+i*8), int64(i*7)%13)
		}
	}
}

func TestSmokeEmulator(t *testing.T) {
	p := buildLoopHammock(100)
	st := emu.New(p)
	initMem(100)(st.Mem)
	if _, err := st.Run(100000); err != nil {
		t.Fatalf("emulator: %v", err)
	}
	if !st.Halted {
		t.Fatal("emulator did not halt")
	}
	// Each iteration adds 1 (even word) or 2 (odd word).
	want := int64(0)
	for i := 0; i < 100; i++ {
		if (int64(i*7)%13)&1 == 1 {
			want += 2
		} else {
			want++
		}
	}
	if st.Regs[4] != want {
		t.Fatalf("accumulator = %d, want %d", st.Regs[4], want)
	}
}

func TestSmokePipeline(t *testing.T) {
	p := buildLoopHammock(2000)
	cfg := config.DefaultMachine()
	c, err := New(cfg, p, initMem(2000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
	if res.RetiredUops == 0 || res.Cycles == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// The emulator retires ~11 µops per iteration; verify the pipeline
	// retired the same program.
	ref := emu.New(p)
	initMem(2000)(ref.Mem)
	n, err := ref.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProgUops != n {
		t.Fatalf("retired %d program µops, emulator executed %d", res.ProgUops, n)
	}
	if upc := res.UPC(); upc < 0.2 || upc > 8 {
		t.Fatalf("implausible µPC %.2f (cycles=%d uops=%d)", upc, res.Cycles, res.RetiredUops)
	}
	t.Logf("cycles=%d uops=%d upc=%.2f mispred/1K=%.2f flushes=%d",
		res.Cycles, res.RetiredUops, res.UPC(), res.MispredPer1K(), res.Flushes)
}

func TestSmokeSelectUop(t *testing.T) {
	p := buildLoopHammock(500)
	cfg := config.DefaultMachine().WithSelectUop()
	c, err := New(cfg, p, initMem(500))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(10_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Halted {
		t.Fatal("did not halt")
	}
}
