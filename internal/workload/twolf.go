package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildTwolf models 300.twolf's signature: standard-cell placement with
// cost-comparison hammocks that swing between random and constant
// phases (like vpr, but denser hard phases and bigger blocks), so
// predication is a big win over the normal binary (BASE-MAX is twolf's
// best predicated binary in the paper) and per-instance confidence buys
// another 13.8% on top (Table 5). A displacement loop contributes wish
// loops (57% of its dynamic wish branches, Table 4).
//
// Hot elements hold random odd values whose per-pass coin flip drives
// the accept decision; cold elements hold zero, which always accepts.
//
// Registers: r1 index, r2 raw cost, r3 coin, r4-r12 temps, r13 seed,
// r14/r15 address temps, r16/r17 accumulators.
func buildTwolf(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(7000, scale)
	const kLog = 12 // 4096 elements, phase chunks of 512
	hotOf4 := int64(2)
	switch in {
	case InputB:
		hotOf4 = 1
	case InputC:
		hotOf4 = 1
	}
	r := newRNG("twolf", in)
	cost := make([]int64, 1<<kLog)
	disp := make([]int64, 1<<kLog)
	for i := range cost {
		if int64(i>>9)&3 < hotOf4 {
			cost[i] = 2*r.intn(1<<20) + 1 // hot: per-pass coin flip
		} else {
			cost[i] = 0 // cold: always accept
		}
		// Displacement trips: mostly two, irregular 20% tail.
		if r.intn(10) < 2 {
			disp[i] = 2*r.intn(1<<20) + 1
		} else {
			disp[i] = 0
		}
	}
	mem := func(m *emu.Memory) {
		m.WriteWords(dataBase, cost)
		m.WriteWords(auxBase, disp)
	}

	accept := compiler.S(wideBlock(3, 16, 0x31)...)
	reject := compiler.S(wideBlock(3, 16, 0x77)...)

	condSetup := append(
		loadElem(2, 14, 13, 1, dataBase, kLog, 0xC2B2AE35),
		coinFlip(3, 2, 13, 7)...,
	)

	src := &compiler.Source{
		Name: "twolf",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Cost-accept hammock: phase-dependent difficulty.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: condSetup, CC: isa.CmpLT, A: 3, Imm: 64, UseImm: true,
						}}},
						Then: []compiler.Node{accept},
						Else: []compiler.Node{reject},
						Prof: compiler.Profile{TakenProb: 0.75, MispredRate: 0.12},
					},
					// Net-displacement loop: trips 2 normally, 3 or 5 on the
					// irregular tail.
					compiler.S(
						isa.ALUI(isa.OpAnd, 15, 1, 1<<kLog-1),
						isa.ALUI(isa.OpShl, 15, 15, 3),
						isa.ALUI(isa.OpAdd, 15, 15, auxBase),
						isa.Load(8, 15, 0),
					),
					compiler.S(append(coinFlip(8, 8, 13, 2),
						isa.ALUI(isa.OpAdd, 8, 8, 2),
						isa.MovI(9, 0))...),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 9),
							isa.ALUI(isa.OpXor, 17, 17, 5),
							isa.ALUI(isa.OpAdd, 9, 9, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 9, 8)),
					},
					// Overlap check: pattern-predictable at run time but
					// profiled hard (BASE-DEF pays overhead).
					compiler.S(isa.ALUI(isa.OpAnd, 10, 1, 15)),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 10, 12)),
						Then: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpAdd, 17, 17, 3),
							isa.ALUI(isa.OpAnd, 17, 17, 0xFFFFFFF),
							isa.ALUI(isa.OpXor, 17, 17, 0x42),
						)},
						Else: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpSub, 17, 17, 2),
							isa.ALUI(isa.OpOr, 17, 17, 1),
						)},
						Prof: compiler.Profile{TakenProb: 0.75, MispredRate: 0.28},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
	}
	return src, mem
}
