package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildGzip models 164.gzip's branch signature: a hard-to-predict
// literal-vs-match decision per input byte (the paper measures 8.3
// mispredicts/1Kµops), short match-extension loops with small variable
// trip counts (61% of gzip's dynamic wish branches are wish loops,
// Table 4), and a pattern-predictable flags hammock.
//
// The compile-time profile is deliberately wrong in the way §1 and §3.6
// describe (the profile run saw a different input): the hard hammock is
// profiled as easy (so BASE-DEF keeps it a branch) and the predictable
// flags hammock as hard (so BASE-DEF predicates it, paying pure
// overhead). BASE-MAX predicates both, winning on net; the wish binary
// lets the hardware sort it out per dynamic instance.
//
// Registers: r1 index, r2 raw byte, r3 pass-mixed byte, r4-r9 temps,
// r13 pass seed, r14 address temp, r16/r17 accumulators.
func buildGzip(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(9000, scale)
	const kLog = 11 // 2048-element (16 KB) cache-resident input window
	var thr int64
	switch in {
	case InputA:
		thr = 128 // uniform bytes: 50/50, essentially random
	case InputB:
		thr = 64 // 25/75: easier
	default:
		thr = 16 // 6/94: mostly literal, easy
	}
	r := newRNG("gzip", in)
	data := make([]int64, 1<<kLog)
	for i := range data {
		data[i] = r.intn(256)
	}
	mem := func(m *emu.Memory) { m.WriteWords(dataBase, data) }

	// "Match" path: hash-chain update.
	match := compiler.S(wideBlock(3, 8, 0x51)...)
	// "Literal" path: output-buffer accounting.
	literal := compiler.S(wideBlock(3, 8, 0x9F)...)

	condSetup := append(
		loadElem(2, 14, 13, 1, dataBase, kLog, 0x9E3779B1),
		uniformMix(3, 2, 13, 8)...,
	)

	src := &compiler.Source{
		Name: "gzip",
		Body: []compiler.Node{
			compiler.S(
				isa.MovI(1, 0),
				isa.MovI(16, 0),
				isa.MovI(17, 0),
			),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Literal/match decision on the pass-mixed byte: hard at
					// run time on input A, profiled as easy.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: condSetup, CC: isa.CmpLT, A: 3, Imm: thr, UseImm: true,
						}}},
						Then: []compiler.Node{match},
						Else: []compiler.Node{literal},
						Prof: compiler.Profile{TakenProb: 0.5, MispredRate: 0.04},
					},
					// Match-extension loop: trip = 2 + (mixed byte & 3),
					// variable and unpredictable but low-variance, so
					// mispredicted exits skew late (the profitable
					// wish-loop case).
					compiler.S(
						isa.ALUI(isa.OpAnd, 8, 3, 3),
						isa.ALUI(isa.OpAdd, 8, 8, 2),
						isa.MovI(9, 0),
					),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 9),
							isa.ALUI(isa.OpXor, 17, 17, 3),
							isa.ALUI(isa.OpAdd, 9, 9, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 9, 8)),
					},
					// Flags hammock: a pure position pattern ((i&3) != 3,
					// 75% taken) the predictor learns perfectly; profiled
					// hard, so BASE-DEF predicates it for nothing.
					compiler.S(isa.ALUI(isa.OpAnd, 10, 1, 3)),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpNE, 10, 3)),
						Then: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpAdd, 11, 3, 3),
							isa.ALU(isa.OpAdd, 17, 17, 11),
							isa.ALUI(isa.OpAnd, 17, 17, 0xFFFFFF),
						)},
						Else: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpSub, 17, 17, 1),
							isa.ALUI(isa.OpXor, 17, 17, 0x21),
						)},
						Prof: compiler.Profile{TakenProb: 0.75, MispredRate: 0.30},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
	}
	return src, mem
}
