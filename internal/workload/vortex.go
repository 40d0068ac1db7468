package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildVortex models 255.vortex's signature: object-database validation
// with the suite's most predictable branches (0.8 mispredicts/1Kµops)
// and frequent small subroutine calls. Nearly every dynamic wish branch
// runs in high-confidence mode; predication overhead is low because
// blocks are small. The paper's vortex is the one benchmark where the
// wish binary loses to the predicated binaries — because wish branches
// shrank basic blocks and curtailed ORC's cross-block scheduling, an
// effect a µop-level model cannot reproduce (see EXPERIMENTS.md).
//
// Validity flags are fixed across passes (an object stays valid), so
// the branch is near-perfectly predictable by design.
//
// Registers: r1 index, r2 object flag, r3-r9 temps, r13 seed,
// r14 address temp, r16/r17 accumulators.
func buildVortex(in Input, scale float64) (*compiler.Source, MemInit) {
	n := scaled(8000, scale)
	const kLog = 11
	r := newRNG("vortex", in)
	badPct := int64(3)
	switch in {
	case InputB:
		badPct = 5
	case InputC:
		badPct = 8
	}
	obj := make([]int64, 1<<kLog)
	for i := range obj {
		if r.intn(100) < badPct {
			obj[i] = 1 // invalid object: rare
		}
	}
	mem := func(m *emu.Memory) { m.WriteWords(dataBase, obj) }

	src := &compiler.Source{
		Name: "vortex",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Validity check: rare and repeatable — near-perfectly
					// predictable. Blocks exceed the wish threshold, so the
					// wish binary converts it and runs it in high-confidence
					// mode virtually always.
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: loadElem(2, 14, 13, 1, dataBase, kLog, 0x7FEF7FEF),
							CC:    isa.CmpEQ, A: 2, Imm: 1, UseImm: true,
						}}},
						Then: []compiler.Node{compiler.S(wideBlock(2, 3, 0x61)...)},
						Else: []compiler.Node{compiler.S(wideBlock(2, 3, 0xA3)...)},
						Prof: compiler.Profile{TakenProb: 0.03, MispredRate: 0.03},
					},
					// Type-dispatch hammock: pattern (i%4==0), learnable —
					// big enough to become a wish jump, which runs in
					// high-confidence mode essentially always.
					compiler.S(isa.ALUI(isa.OpAnd, 4, 1, 3)),
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpEQ, 4, 0)),
						Then: []compiler.Node{compiler.S(wideBlock(4, 6, 0x13)...)},
						Else: []compiler.Node{compiler.S(wideBlock(4, 6, 0x8D)...)},
						Prof: compiler.Profile{TakenProb: 0.25, MispredRate: 0.02},
					},
					// Field-walk loop: fixed 4 trips, predictable.
					compiler.S(isa.MovI(5, 0)),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 17, 17, 5),
							isa.ALUI(isa.OpAdd, 5, 5, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 5, 4)),
					},
					compiler.Call{Name: "touch"},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, n)),
			},
		},
		Subs: []compiler.Subroutine{{
			Name: "touch",
			Body: []compiler.Node{compiler.S(
				isa.ALU(isa.OpAdd, 6, 16, 17),
				isa.ALUI(isa.OpAnd, 6, 6, 0xFFFF),
				isa.ALU(isa.OpAdd, 16, 16, 6),
			)},
		}},
	}
	return src, mem
}
