package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildGap models 254.gap's signature: arithmetic (computer-algebra)
// kernels whose branches are almost all pattern-predictable — the paper
// measures just 1.0 mispredict/1Kµops. Predicating such branches is
// pure overhead, which is why BASE-DEF falls below the normal binary on
// gap in Figure 10; one genuinely hard (but rare) carry-propagation
// hammock lets BASE-MAX claw some of that back, and the wish binary
// takes both sides of the trade.
//
// Registers: r1 index, r2 raw operand, r3 mixed operand, r4-r10 temps,
// r13 seed, r14 address temp, r16/r17 accumulators.
func buildGap(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(8000, scale)
	const kLog = 11
	hardPct := int64(6)
	switch in {
	case InputB:
		hardPct = 3
	case InputC:
		hardPct = 2
	}
	r := newRNG("gap", in)
	data := make([]int64, 1<<kLog)
	for i := range data {
		data[i] = r.intn(1 << 16)
	}
	mem := func(m *emu.Memory) { m.WriteWords(dataBase, data) }

	bigMul := compiler.S(wideBlock(3, 6, 0x41)...)
	smallAdd := compiler.S(wideBlock(3, 6, 0x8B)...)

	src := &compiler.Source{
		Name: "gap",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.S(append(
				loadElem(2, 14, 13, 1, dataBase, kLog, 0x61C88647),
				uniformMix(3, 2, 13, 16)...)...),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Size-class hammock: (i % 8) >= 6 — a pure pattern the
					// hybrid predictor learns perfectly, with the common
					// path on the fall-through. Profiled hard, so BASE-DEF
					// wastes predication on it.
					compiler.S(isa.ALUI(isa.OpAnd, 8, 1, 7)),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpGE, 8, 6)),
						Then: []compiler.Node{smallAdd},
						Else: []compiler.Node{bigMul},
						Prof: compiler.Profile{TakenProb: 0.25, MispredRate: 0.30},
					},
					// Carry-propagation hammock: truly data-random but
					// rare; profiled easy, so only BASE-MAX catches it.
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 3, 1<<16/100*hardPct)),
						Then: []compiler.Node{compiler.S(wideBlock(3, 4, 0x25)...)},
						Else: []compiler.Node{compiler.S(wideBlock(3, 4, 0xC9)...)},
						Prof: compiler.Profile{TakenProb: float64(hardPct) / 100, MispredRate: 0.03},
					},
					// Fixed-trip limb loop: trips of 4, fully predictable —
					// a wish loop that runs in high-confidence mode.
					compiler.S(isa.MovI(11, 0)),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 11),
							isa.ALUI(isa.OpAdd, 17, 17, 1),
							isa.ALUI(isa.OpAdd, 11, 11, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 11, 4)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
					// Next element + pass-mixed operand for the following
					// iteration.
					compiler.S(append(
						loadElem(2, 14, 13, 1, dataBase, kLog, 0x61C88647),
						uniformMix(3, 2, 13, 16)...)...),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
	}
	return src, mem
}
