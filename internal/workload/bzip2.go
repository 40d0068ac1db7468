package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildBzip2 models 256.bzip2's signature, the paper's clearest case of
// input-dependent predication payoff (Figure 1: predicated code loses
// 16% on input A but is roughly even on input C): a symbol-class
// hammock whose run-time difficulty flips with the symbol distribution,
// plus run-length loops whose small variable trip counts make 90% of
// bzip2's dynamic wish branches wish loops (Table 4) and give it a >3%
// wish-loop gain (Figure 12).
//
// On input A escapes are rare: the hammock is near-perfectly
// predictable with the common literal path on the fall-through, so the
// normal binary streams while the predicated binaries fetch and execute
// a wasted escape block every iteration. On input C the mixed symbol is
// a coin flip and predication pays. The blocks are wide (independent
// work spread over four accumulators) so fetch and execution bandwidth,
// not one serial dependence, set the pace — predication's wasted-slot
// overhead is then directly visible, as in the paper's bzip2.
//
// Registers: r1 index, r2 raw symbol, r3 mixed symbol, r4-r9 temps,
// r13 seed, r14 address temp, r16-r19 accumulators.
func buildBzip2(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(8000, scale)
	const kLog = 11
	var escThr int64
	tripBits := uint(2)
	switch in {
	case InputA:
		tripBits = 1
		escThr = 4 // ~1.5% escapes: predictable, short regular runs
	case InputB:
		escThr = 64
	default:
		escThr = 128 // coin flip
	}
	r := newRNG("bzip2", in)
	sym := make([]int64, 1<<kLog)
	for i := range sym {
		sym[i] = r.intn(256)
	}
	mem := func(m *emu.Memory) { m.WriteWords(dataBase, sym) }

	// Common path (fall-through): wide, mostly independent µops across
	// four accumulators.
	literalPath := compiler.S(wideBlock(3, 12, 0x35)...)
	// Rare escape path (branch target).
	escapePath := compiler.S(wideBlock(3, 12, 0xE1)...)

	condSetup := append(
		loadElem(2, 14, 13, 1, dataBase, kLog, 0x45D9F3B3),
		uniformMix(3, 2, 13, 8)...,
	)

	src := &compiler.Source{
		Name: "bzip2",
		Body: []compiler.Node{
			compiler.S(
				isa.MovI(1, 0),
				isa.MovI(16, 0),
				isa.MovI(17, 0),
				isa.MovI(18, 0),
				isa.MovI(19, 0),
			),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Symbol-class hammock: rare taken escape on input A,
					// coin flip on input C. The profile calls it hard, so
					// both predicated binaries convert it unconditionally
					// and pay the wasted escape block on input A.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: condSetup, CC: isa.CmpLT, A: 3, Imm: escThr, UseImm: true,
						}}},
						Then: []compiler.Node{escapePath},
						Else: []compiler.Node{literalPath},
						Prof: compiler.Profile{TakenProb: 0.3, MispredRate: 0.30},
					},
					// Run-length loop: trips re-randomized each pass — the
					// dominant wish-loop population. Input A has shorter,
					// more regular runs (trips 2..3) than input C (2..5).
					compiler.S(append(uniformMix(7, 3, 13, tripBits),
						isa.ALUI(isa.OpAdd, 7, 7, 2),
						isa.MovI(8, 0))...),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 19, 19, 8),
							isa.ALUI(isa.OpXor, 19, 19, 2),
							isa.ALUI(isa.OpAdd, 8, 8, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRR(isa.CmpLT, 8, 7)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
	}
	return src, mem
}
