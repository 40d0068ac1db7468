package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildParser models 197.parser's signature: the paper's branchiest
// benchmark (9.6 mispredicts/1Kµops) — dictionary scanning with small
// hammocks (so the overhead of predication is low, per Figure 2) and
// very short, variable, unpredictable word-matching loops, which make
// parser one of the three benchmarks where wish loops add >3%
// (Figure 12).
//
// Registers: r1 index, r2 raw token, r3 mixed token, r4 trip bound,
// r5-r9 temps, r13 seed, r14 address temp, r16/r17 accumulators.
func buildParser(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(9000, scale)
	const kLog = 11
	tripBits := uint(2) // trips 1..4
	switch in {
	case InputB:
		tripBits = 2
	case InputC:
		tripBits = 1 // trips 1..2: shorter words
	}
	r := newRNG("parser", in)
	tok := make([]int64, 1<<kLog)
	for i := range tok {
		tok[i] = r.intn(64)
	}
	mem := func(m *emu.Memory) { m.WriteWords(dataBase, tok) }

	condSetup := append(
		loadElem(2, 14, 13, 1, dataBase, kLog, 0x9E3779B1),
		uniformMix(3, 2, 13, 6)...,
	)

	src := &compiler.Source{
		Name: "parser",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Token-class hammock: random 50/50 each pass; blocks
					// just big enough to become a wish jump.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: condSetup, CC: isa.CmpLT, A: 3, Imm: 32, UseImm: true,
						}}},
						Then: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 16, 16, 3),
							isa.ALUI(isa.OpXor, 16, 16, 1),
							isa.ALUI(isa.OpAdd, 5, 3, 3),
							isa.ALUI(isa.OpAnd, 5, 5, 0x3F),
							isa.ALU(isa.OpAdd, 16, 16, 5),
							isa.ALUI(isa.OpAdd, 16, 16, 1),
						)},
						Else: []compiler.Node{compiler.S(
							isa.ALU(isa.OpSub, 16, 16, 3),
							isa.ALUI(isa.OpOr, 16, 16, 1),
							isa.ALUI(isa.OpShl, 6, 3, 1),
							isa.ALUI(isa.OpAnd, 6, 6, 0x7F),
							isa.ALU(isa.OpSub, 16, 16, 6),
							isa.ALUI(isa.OpXor, 16, 16, 3),
						)},
						Prof: compiler.Profile{TakenProb: 0.5, MispredRate: 0.35},
					},
					// Word-match loop: trips 1..2^tripBits, uniform and
					// re-randomized each pass — the wish-loop showcase
					// (§3.2).
					compiler.S(append(uniformMix(4, 3, 13, tripBits),
						isa.ALUI(isa.OpAdd, 4, 4, 1),
						isa.MovI(7, 0))...),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 7),
							isa.ALUI(isa.OpAdd, 17, 17, 3),
							isa.ALUI(isa.OpXor, 17, 17, 0x11),
							isa.ALUI(isa.OpAdd, 7, 7, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 7, 4)),
					},
					// Suffix-check hammock: small and moderately hard.
					compiler.S(isa.ALUI(isa.OpAnd, 8, 3, 7)),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLE, 8, 2)),
						Then: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpAdd, 16, 16, 5),
							isa.ALUI(isa.OpShl, 16, 16, 1),
							isa.ALUI(isa.OpAnd, 16, 16, 0xFFFFFFF),
						)},
						Prof: compiler.Profile{TakenProb: 0.37, MispredRate: 0.3},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
	}
	return src, mem
}
