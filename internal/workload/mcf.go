package workload

import (
	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// buildMcf models 181.mcf's signature, the paper's cautionary tale: the
// network-simplex pointer chase. The next-node pointer is loaded under
// a condition that itself depends on another cache-missing load (a
// bucket lookup). At run time the condition is almost always true, so
// the normal branch binary predicts it and chases at full speed with
// the bucket lookups off the critical path; BASE-MAX predicates it,
// making every chase step wait for the bucket miss — "predicated
// execution results in the serialization of many critical load
// instructions" (§5.1) — which is why BASE-MAX runs mcf at ~2x in the
// paper. The profile calls the arithmetic hammock hard, so BASE-DEF
// predicates that one and pays a smaller serialization penalty. The
// wish binary recovers branch-prediction speed through high-confidence
// mode.
//
// Registers: r1 step count, r2 node pointer, r3 key, r4/r5 hash temps,
// r6-r11 temps, r16 accumulator, r21 hash base, r23 head-pointer cell.
func buildMcf(in Input, scale float64) (*compiler.Source, MemInit) {
	steps := scaled(4000, scale)
	const (
		numNodes   = 64 * 1024 // 64K nodes, 64 B apart: one per cache line
		nodeStride = 64
		hashWords  = 1 << 20 // 8 MB bucket region: bucket loads miss to memory
		hashMask   = hashWords - 1
	)
	// Rare-restart probability varies mildly with input (Figure 1 shows
	// mcf's predication loss is input-dependent).
	restartPerMille := int64(2)
	switch in {
	case InputB:
		restartPerMille = 10
	case InputC:
		restartPerMille = 30
	}

	mem := func(m *emu.Memory) {
		rr := newRNG("mcf-mem", in)
		// A random cycle over all nodes (Sattolo's algorithm) so the
		// chase never revisits a line.
		perm := make([]int32, numNodes)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := numNodes - 1; i > 0; i-- {
			j := rr.intn(int64(i))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := 0; i < numNodes; i++ {
			from := int64(perm[i])
			to := int64(perm[(i+1)%numNodes])
			alt := int64(perm[(i+numNodes/2)%numNodes])
			addr := uint64(nodeBase + from*nodeStride)
			m.Store(addr, nodeBase+to*nodeStride)     // next arc
			m.Store(addr+8, rr.intn(1<<30))           // key
			m.Store(addr+16, nodeBase+alt*nodeStride) // alternate arc
		}
		// Bucket values: almost always below the threshold; a few
		// trigger the restart path.
		for i := 0; i < hashWords; i += 97 {
			m.Store(uint64(hashBase+i*8), rr.intn(100))
		}
		rr2 := newRNG("mcf-hot", in)
		for k := int64(0); k < int64(hashWords)*restartPerMille/1000; k++ {
			m.Store(uint64(hashBase)+uint64(rr2.intn(hashWords))*8, 5000)
		}
		m.Store(auxBase, nodeBase+int64(perm[0])*nodeStride) // head pointer cell
	}

	// Condition setup: key load (on the node's line) feeding a bucket
	// load that misses all the way to memory.
	condSetup := []isa.Inst{
		isa.Load(3, 2, 8),
		isa.ALUI(isa.OpAnd, 4, 3, hashMask),
		isa.ALUI(isa.OpShl, 4, 4, 3),
		isa.ALU(isa.OpAdd, 4, 4, 21),
		isa.Load(5, 4, 0),
	}
	// Common path: the critical chase load plus bookkeeping.
	advance := compiler.S(
		isa.Load(2, 2, 0), // r2 = node.next — the critical load
		isa.ALU(isa.OpAdd, 16, 16, 3),
		isa.ALUI(isa.OpXor, 16, 16, 0x5A),
		isa.ALUI(isa.OpAdd, 16, 16, 1),
	)
	// Rare path: take the alternate arc (also a critical load).
	restart := compiler.S(
		isa.Load(2, 2, 16),
		isa.ALUI(isa.OpAdd, 16, 16, 7),
		isa.ALUI(isa.OpXor, 16, 16, 0x33),
		isa.ALUI(isa.OpSub, 16, 16, 2),
		isa.ALUI(isa.OpOr, 6, 16, 1),
		isa.ALU(isa.OpAdd, 16, 16, 6),
	)

	src := &compiler.Source{
		Name: "mcf",
		Body: []compiler.Node{
			compiler.S(
				isa.MovI(1, 0),
				isa.MovI(21, hashBase),
				isa.MovI(23, auxBase),
				isa.MovI(16, 0),
			),
			compiler.S(isa.Load(2, 23, 0)), // r2 = head
			compiler.DoWhile{
				Body: []compiler.Node{
					// The killer hammock: almost always taken at run time
					// (profiled as easy, so BASE-DEF leaves it alone;
					// BASE-MAX predicates it and serializes the chase).
					compiler.If{
						Cond: compiler.Cond{Terms: []compiler.Term{{
							Setup: condSetup, CC: isa.CmpLT, A: 5, Imm: 1000, UseImm: true,
						}}},
						Then: []compiler.Node{advance},
						Else: []compiler.Node{restart},
						Prof: compiler.Profile{TakenProb: 0.99, MispredRate: 0.01},
					},
					// Arc-cost hammock: mildly unpredictable at run time,
					// profiled hard — BASE-DEF predicates it, chaining its
					// blocks onto the key load.
					compiler.If{
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpEQ, 7, 0)),
						Then: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 16, 16, 7),
							isa.ALUI(isa.OpMul, 8, 3, 3),
							isa.ALUI(isa.OpAnd, 8, 8, 0xFFFF),
							isa.ALU(isa.OpXor, 16, 16, 8),
							isa.ALUI(isa.OpAdd, 16, 16, 2),
							isa.ALUI(isa.OpSub, 16, 16, 1),
						)},
						Else: []compiler.Node{compiler.S(
							isa.ALUI(isa.OpSub, 16, 16, 3),
							isa.ALUI(isa.OpOr, 9, 7, 2),
							isa.ALU(isa.OpAdd, 16, 16, 9),
							isa.ALUI(isa.OpXor, 16, 16, 0x0F),
							isa.ALUI(isa.OpAdd, 16, 16, 5),
							isa.ALUI(isa.OpShr, 16, 16, 1),
						)},
						Prof: compiler.Profile{TakenProb: 0.25, MispredRate: 0.30},
					},
					compiler.S(isa.ALUI(isa.OpAnd, 7, 3, 7)), // feeds next iteration's arc hammock
					// Short fixed-trip bucket-scan loop: predictable, so a
					// wish loop runs it in high-confidence mode.
					compiler.S(isa.MovI(10, 0)),
					compiler.DoWhile{
						Body: []compiler.Node{compiler.S(
							isa.ALU(isa.OpAdd, 16, 16, 10),
							isa.ALUI(isa.OpAdd, 10, 10, 1),
						)},
						Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 10, 3)),
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, steps)),
			},
		},
	}
	return src, mem
}
