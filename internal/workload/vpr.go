package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildVpr models 175.vpr's signature: swap-accept decisions in
// simulated-annealing placement. The same static branch alternates
// between phases where it is essentially random (mid-annealing) and
// phases where it is constant (converged regions) — exactly the
// per-dynamic-instance variability a run-time confidence estimator can
// exploit and a static compile-time decision cannot. Hammock blocks are
// large, so predicating everything (BASE-MAX) pays heavy fetch and
// dependence overhead; keeping branches (normal) pays heavy flush
// penalties; the wish binary gets both right. A short variable-trip
// net-scan loop adds the >3% wish-loop gain the paper reports for vpr
// (Figure 12).
//
// Hot elements hold random odd values whose per-pass coin flip drives
// the accept decision; cold elements hold zero, which always accepts.
//
// Registers: r1 index, r2 raw cost, r3 coin, r4-r11 temps, r13 seed,
// r14/r15 address temps, r16/r17 accumulators.
func buildVpr(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(8000, scale)
	const kLog = 12    // 4096 elements (32 KB), hot/cold chunks of 1024
	hotOf4 := int64(2) // chunks of 4 that are hot (random-phase)
	switch in {
	case InputB:
		hotOf4 = 1
	case InputC:
		hotOf4 = 1
	}
	r := newRNG("vpr", in)
	data := make([]int64, 1<<kLog)
	trips := make([]int64, 1<<kLog)
	for i := range data {
		if int64(i>>10)&3 < hotOf4 {
			data[i] = 2*r.intn(1<<20) + 1 // hot: odd → per-pass coin flip
		} else {
			data[i] = 0 // cold: always accept
		}
		// Net-scan trips: usually two, with an irregular 20% tail.
		if r.intn(10) < 2 {
			trips[i] = 2*r.intn(1<<20) + 1 // odd → irregular extra trips
		} else {
			trips[i] = 0
		}
	}
	mem := func(m *emu.Memory) {
		m.WriteWords(dataBase, data)
		m.WriteWords(auxBase, trips)
	}

	accept := compiler.S(wideBlock(3, 18, 0x21)...)
	reject := compiler.S(wideBlock(3, 18, 0x6D)...)

	condSetup := append(
		loadElem(2, 14, 13, 1, dataBase, kLog, 0x2545F491),
		coinFlip(3, 2, 13, 7)...,
	)

	src := &compiler.Source{
		Name: "vpr",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Swap-accept: coin flip on hot elements, constant on
					// cold ones; profiled mid-hard.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: condSetup, CC: isa.CmpLT, A: 3, Imm: 64, UseImm: true,
						}}},
						Then: []compiler.Node{accept},
						Else: []compiler.Node{reject},
						Prof: compiler.Profile{TakenProb: 0.7, MispredRate: 0.15},
					},
					// Net-scan loop: trips of 2 normally, 3 or 5 on
					// irregular elements — a prime wish-loop candidate
					// (§3.2).
					compiler.S(
						isa.ALUI(isa.OpAnd, 15, 1, 1<<kLog-1),
						isa.ALUI(isa.OpShl, 15, 15, 3),
						isa.ALUI(isa.OpAdd, 15, 15, auxBase),
						isa.Load(4, 15, 0),
					),
					compiler.S(append(coinFlip(4, 4, 13, 2),
						isa.ALUI(isa.OpAdd, 4, 4, 2),
						isa.MovI(11, 0))...),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 11),
							isa.ALUI(isa.OpAdd, 17, 17, 2),
							isa.ALUI(isa.OpAdd, 11, 11, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 11, 4)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
	}
	return src, mem
}
