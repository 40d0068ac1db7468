package examples

import (
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// coinMem fills the input array with random coin flips.
func coinMem(m *emu.Memory) {
	s := uint64(2026)
	for i := 0; i < 20000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		m.Store(uint64(1<<20+i*8), int64(s>>62)&1)
	}
}

// Build a small program with one hard-to-predict hammock, compile it
// into the paper's five binary variants (Table 3), simulate each on the
// baseline out-of-order machine (Table 2), and compare. Every variant
// must compute the same result as a pure functional execution.
func Example_quickstart() {
	// Source: for i in 0..20000 { if (coin[i] == 0) {A} else {B} }
	// The condition is a random coin flip read from memory: a branch
	// predictor cannot learn it, so the normal binary flushes constantly.
	then := make([]isa.Inst, 0, 8)
	els := make([]isa.Inst, 0, 8)
	for j := int64(0); j < 8; j++ {
		then = append(then, isa.ALUI(isa.OpAdd, isa.Reg(16+j%4), isa.Reg(16+j%4), j))
		els = append(els, isa.ALUI(isa.OpXor, isa.Reg(16+j%4), isa.Reg(16+j%4), j+9))
	}
	src := &compiler.Source{
		Name: "quickstart",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0), isa.MovI(18, 0), isa.MovI(19, 0),
				isa.MovI(20, 1<<20)),
			compiler.DoWhile{
				Body: []compiler.Node{
					compiler.S(isa.Load(2, 20, 0)),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpEQ, 2, 0)),
						Then: []compiler.Node{compiler.S(then...)},
						Else: []compiler.Node{compiler.S(els...)},
						Prof: compiler.Profile{TakenProb: 0.5, MispredRate: 0.35},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 20, 20, 8), isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, 20000)),
			},
		},
	}

	fmt.Println("binary      cycles     µPC   flushes  mispred/1Kµops  r16 (result)")
	fmt.Println("---------------------------------------------------------------------")
	var checks []string
	var ref int64
	for _, v := range compiler.Variants() {
		p := compiler.MustCompile(src, v)
		res, c := simulate(config.DefaultMachine(), p, coinMem)
		r16 := c.ArchState().Regs[16]
		fmt.Printf("%-10s %8d  %5.2f  %8d  %14.1f  %d\n",
			v, res.Cycles, res.UPC(), res.Flushes, res.MispredPer1K(), r16)

		st := emu.New(p)
		coinMem(st.Mem)
		if _, err := st.Run(0); err != nil {
			panic(err)
		}
		if v == compiler.NormalBranch {
			ref = r16
		}
		checks = append(checks, fmt.Sprintf("%-10s pipeline = functional emulator: %v, = normal binary: %v",
			v, r16 == st.Regs[16], r16 == ref))
	}
	fmt.Println()
	for _, c := range checks {
		fmt.Println(c)
	}
	fmt.Println("\nThe predicated binaries eliminate the hammock's flushes; the wish")
	fmt.Println("binaries do the same through low-confidence mode while retaining the")
	fmt.Println("option of branch prediction whenever the branch becomes predictable.")

	// Output:
	// binary      cycles     µPC   flushes  mispred/1Kµops  r16 (result)
	// ---------------------------------------------------------------------
	// normal       566136   0.55     10038            32.4  40344
	// base-def     269840   1.63         1             0.0  40344
	// base-max     269840   1.63         1             0.0  40344
	// wish-jj      274496   1.75        37            41.4  40344
	// wish-jjl     274496   1.75        37            41.4  40344
	//
	// normal     pipeline = functional emulator: true, = normal binary: true
	// base-def   pipeline = functional emulator: true, = normal binary: true
	// base-max   pipeline = functional emulator: true, = normal binary: true
	// wish-jj    pipeline = functional emulator: true, = normal binary: true
	// wish-jjl   pipeline = functional emulator: true, = normal binary: true
	//
	// The predicated binaries eliminate the hammock's flushes; the wish
	// binaries do the same through low-confidence mode while retaining the
	// option of branch prediction whenever the branch becomes predictable.
}
