package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildCrafty models 186.crafty's signature: chess move evaluation with
// complex OR-conditions (the Figure 6 control-flow shape: "if (cond1 ||
// cond2)"), a call to an evaluation subroutine (exercising the return
// address stack), and a mix of hard and easy hammocks. The profile
// misjudges both hammocks, so BASE-DEF loses slightly versus the normal
// binary while BASE-MAX recovers the hard one (the paper's Figure 10
// shows BASE-DEF below normal and BASE-MAX as crafty's best predicated
// binary).
//
// Registers: r1 index, r2/r3 raw board words, r4/r5 mixed values,
// r6-r11 temps, r13 seed, r14/r15 address temps, r16/r17 accumulators.
func buildCrafty(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(7000, scale)
	const kLog = 11
	r := newRNG("crafty", in)
	// Attack density (out of 128) varies by input.
	density := int64(51)
	switch in {
	case InputB:
		density = 32
	case InputC:
		density = 19
	}
	a := make([]int64, 1<<kLog)
	b := make([]int64, 1<<kLog)
	for i := range a {
		a[i] = r.intn(128)
		b[i] = r.intn(128)
	}
	mem := func(m *emu.Memory) {
		m.WriteWords(dataBase, a)
		m.WriteWords(auxBase, b)
	}

	capture := compiler.S(wideBlock(4, 8, 0x11)...)
	quiet := compiler.S(wideBlock(4, 8, 0x57)...)

	term1 := append(
		append(loadElem(2, 14, 13, 1, dataBase, kLog, 0x1F123BB5),
			isa.ALUI(isa.OpAnd, 15, 1, 1<<kLog-1),
			isa.ALUI(isa.OpShl, 15, 15, 3),
			isa.ALUI(isa.OpAdd, 15, 15, auxBase),
			isa.Load(3, 15, 0),
		),
		uniformMix(4, 2, 13, 7)...,
	)
	term2 := uniformMix(5, 3, 13, 7)

	src := &compiler.Source{
		Name: "crafty",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// "In check || under attack": the Figure 6 OR shape.
					// Hard at run time, profiled as easy.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{
							{Setup: term1, CC: isa.CmpLT, A: 4, Imm: density, UseImm: true},
							{Setup: term2, CC: isa.CmpLT, A: 5, Imm: density / 2, UseImm: true},
						}},
						Then: []compiler.Node{capture},
						Else: []compiler.Node{quiet},
						Prof: compiler.Profile{TakenProb: 0.45, MispredRate: 0.05},
					},
					// Piece-value hammock: never taken — perfectly
					// predictable at run time, profiled hard.
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, 0)),
						Then: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpAdd, 17, 17, 9),
							isa.ALUI(isa.OpXor, 17, 17, 5),
							isa.ALUI(isa.OpAdd, 17, 17, 1),
						)},
						Else: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpAdd, 17, 17, 1),
							isa.ALUI(isa.OpAnd, 17, 17, 0xFFFFFF),
							isa.ALUI(isa.OpOr, 17, 17, 2),
						)},
						Prof: compiler.Profile{TakenProb: 0.4, MispredRate: 0.35},
					},
					// Evaluate the position (exercises the RAS).
					compiler.Call{Name: "evaluate"},
					// Move-generation loop: small variable trips (1..4),
					// re-randomized each pass.
					compiler.S(append(uniformMix(10, 2, 13, 2),
						isa.ALUI(isa.OpAdd, 10, 10, 1),
						isa.MovI(11, 0))...),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 11),
							isa.ALUI(isa.OpXor, 17, 17, 1),
							isa.ALUI(isa.OpAdd, 11, 11, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 11, 10)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
		Subs: []compiler.Subroutine{{
			Name: "evaluate",
			Body: []compiler.Node{compiler.S(
				isa.ALU(isa.OpAdd, 6, 2, 3),
				isa.ALUI(isa.OpMul, 6, 6, 7),
				isa.ALUI(isa.OpAnd, 6, 6, 0xFFFF),
				isa.ALU(isa.OpAdd, 16, 16, 6),
				isa.ALUI(isa.OpXor, 16, 16, 0x44),
			)},
		}},
	}
	return src, mem
}
