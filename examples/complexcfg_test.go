package examples

import (
	"fmt"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/isa"
)

func complexcfgSource(iters int64) *compiler.Source {
	blk := func(op isa.Op, salt int64) []compiler.Node {
		var is []isa.Inst
		for j := int64(0); j < 8; j++ {
			is = append(is, isa.ALUI(op, isa.Reg(16+j%2), isa.Reg(16+j%2), salt+j))
		}
		return []compiler.Node{compiler.S(is...)}
	}
	return &compiler.Source{
		Name: "complexcfg",
		Body: []compiler.Node{
			compiler.S(isa.MovI(1, 0), isa.MovI(16, 0), isa.MovI(17, 0)),
			compiler.DoWhile{
				Body: []compiler.Node{
					// Two pseudo-random condition inputs.
					compiler.S(
						isa.ALUI(isa.OpMul, 2, 1, 0x9E3779B1),
						isa.ALUI(isa.OpShr, 2, 2, 11),
						isa.ALUI(isa.OpAnd, 2, 2, 7),
						isa.ALUI(isa.OpMul, 3, 1, 0x61C88647),
						isa.ALUI(isa.OpShr, 3, 3, 9),
						isa.ALUI(isa.OpAnd, 3, 3, 7),
					),
					// if (cond1 || cond2) { B } else { D } — Figure 6.
					compiler.If{
						Cond: compiler.CondOf(
							compiler.TermRI(isa.CmpEQ, 2, 3),
							compiler.TermRI(isa.CmpEQ, 3, 5),
						),
						Then: blk(isa.OpAdd, 1),
						Else: blk(isa.OpXor, 2),
						Prof: compiler.Profile{TakenProb: 0.23, MispredRate: 0.2},
					},
					compiler.S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: compiler.CondOf(compiler.TermRI(isa.CmpLT, 1, iters)),
			},
		},
	}
}

// The paper's Figure 6 / Table 1 scenario: a region with complex
// control flow — if (cond1 || cond2) — compiled into one wish jump
// followed by wish joins. The example prints the generated code for all
// three lowerings (normal branches, predicated, wish branches) and then
// shows the Table 1 cascade at run time: when the wish jump is
// low-confidence, every following join is forced not-taken and the
// whole region executes as predicated code with no possibility of a
// flush.
func Example_complexcfg() {
	// Show the three lowerings of the Figure 6 region.
	for _, v := range []compiler.Variant{
		compiler.NormalBranch, compiler.BaseMax, compiler.WishJumpJoin,
	} {
		p := compiler.MustCompile(complexcfgSource(4), v)
		cond, wish := p.StaticCondBranches()
		fmt.Printf("=== %v lowering (%d conditional branches, %d wish) ===\n", v, cond, wish)
		fmt.Println(p.Disassemble())
	}

	// Run the wish binary under the three confidence regimes of
	// Table 1: everything high (threshold 0), the real estimator, and
	// everything low (threshold 16 — the cascade in its purest form).
	fmt.Println("=== Table 1 cascade at run time ===")
	fmt.Println("regime            cycles   flushes  jumps(high/low)  joins(high/low)")
	for _, r := range []struct {
		name string
		thr  int
	}{
		{"all high (thr 0)", 0},
		{"real JRS (thr 8)", 8},
		{"all low (thr 16)", 16},
	} {
		cfg := config.DefaultMachine()
		cfg.JRS.Threshold = r.thr
		res, _ := simulate(cfg, compiler.MustCompile(complexcfgSource(20000), compiler.WishJumpJoin), nil)
		j, jo := res.WishJump, res.WishJoin
		fmt.Printf("%-16s %8d  %8d  %6d/%-6d    %6d/%d\n",
			r.name, res.Cycles, res.Flushes,
			j.HighCorrect+j.HighMispred, j.LowCorrect+j.LowMispred,
			jo.HighCorrect+jo.HighMispred, jo.LowCorrect+jo.LowMispred)
	}
	fmt.Println("\nWith the jump forced low-confidence, every join is low too (Table 1's")
	fmt.Println("cascade): the region runs fully predicated and cannot flush.")

	// Output:
	// === normal lowering (3 conditional branches, 0 wish) ===
	//      0  movi r1 = 0
	//      1  movi r16 = 0
	//      2  movi r17 = 0
	// .loop1:
	//      3  mul r2 = r1, 2654435761
	//      4  shr r2 = r2, 11
	//      5  and r2 = r2, 7
	//      6  mul r3 = r1, 1640531527
	//      7  shr r3 = r3, 9
	//      8  and r3 = r3, 7
	//      9  cmp.eq p1 = r2, 3
	//     10  br p1, 22
	//     11  cmp.eq p1 = r3, 5
	//     12  br p1, 22
	//     13  xor r16 = r16, 2
	//     14  xor r17 = r17, 3
	//     15  xor r16 = r16, 4
	//     16  xor r17 = r17, 5
	//     17  xor r16 = r16, 6
	//     18  xor r17 = r17, 7
	//     19  xor r16 = r16, 8
	//     20  xor r17 = r17, 9
	//     21  jmp 30
	// .then2:
	//     22  add r16 = r16, 1
	//     23  add r17 = r17, 2
	//     24  add r16 = r16, 3
	//     25  add r17 = r17, 4
	//     26  add r16 = r16, 5
	//     27  add r17 = r17, 6
	//     28  add r16 = r16, 7
	//     29  add r17 = r17, 8
	// .join3:
	//     30  add r1 = r1, 1
	//     31  cmp.lt p1 = r1, 4
	//     32  br p1, 3
	//     33  halt
	//
	// === base-max lowering (1 conditional branches, 0 wish) ===
	//      0  movi r1 = 0
	//      1  movi r16 = 0
	//      2  movi r17 = 0
	// .loop1:
	//      3  mul r2 = r1, 2654435761
	//      4  shr r2 = r2, 11
	//      5  and r2 = r2, 7
	//      6  mul r3 = r1, 1640531527
	//      7  shr r3 = r3, 9
	//      8  and r3 = r3, 7
	//      9  pset p1 = 0
	//     10  cmp.eq p3 = r2, 3
	//     11  por p1 = p1, p3
	//     12  cmp.eq p3 = r3, 5
	//     13  por p1 = p1, p3
	//     14  pnot p2 = p1
	//     15  (p2) xor r16 = r16, 2
	//     16  (p2) xor r17 = r17, 3
	//     17  (p2) xor r16 = r16, 4
	//     18  (p2) xor r17 = r17, 5
	//     19  (p2) xor r16 = r16, 6
	//     20  (p2) xor r17 = r17, 7
	//     21  (p2) xor r16 = r16, 8
	//     22  (p2) xor r17 = r17, 9
	//     23  (p1) add r16 = r16, 1
	//     24  (p1) add r17 = r17, 2
	//     25  (p1) add r16 = r16, 3
	//     26  (p1) add r17 = r17, 4
	//     27  (p1) add r16 = r16, 5
	//     28  (p1) add r17 = r17, 6
	//     29  (p1) add r16 = r16, 7
	//     30  (p1) add r17 = r17, 8
	//     31  add r1 = r1, 1
	//     32  cmp.lt p2 = r1, 4
	//     33  br p2, 3
	//     34  halt
	//
	// === wish-jj lowering (4 conditional branches, 3 wish) ===
	//      0  movi r1 = 0
	//      1  movi r16 = 0
	//      2  movi r17 = 0
	// .loop1:
	//      3  mul r2 = r1, 2654435761
	//      4  shr r2 = r2, 11
	//      5  and r2 = r2, 7
	//      6  mul r3 = r1, 1640531527
	//      7  shr r3 = r3, 9
	//      8  and r3 = r3, 7
	//      9  pset p1 = 0
	//     10  cmp.eq p2 = r2, 3
	//     11  por p1 = p1, p2
	//     12  wish.jump p1, 26
	//     13  cmp.eq p2 = r3, 5
	//     14  por p1 = p1, p2
	//     15  wish.join p1, 26
	//     16  pnot p2 = p1
	//     17  (p2) xor r16 = r16, 2
	//     18  (p2) xor r17 = r17, 3
	//     19  (p2) xor r16 = r16, 4
	//     20  (p2) xor r17 = r17, 5
	//     21  (p2) xor r16 = r16, 6
	//     22  (p2) xor r17 = r17, 7
	//     23  (p2) xor r16 = r16, 8
	//     24  (p2) xor r17 = r17, 9
	//     25  wish.join p2, 34
	// .wthen2:
	//     26  (p1) add r16 = r16, 1
	//     27  (p1) add r17 = r17, 2
	//     28  (p1) add r16 = r16, 3
	//     29  (p1) add r17 = r17, 4
	//     30  (p1) add r16 = r16, 5
	//     31  (p1) add r17 = r17, 6
	//     32  (p1) add r16 = r16, 7
	//     33  (p1) add r17 = r17, 8
	// .wjoin3:
	//     34  add r1 = r1, 1
	//     35  cmp.lt p2 = r1, 4
	//     36  br p2, 3
	//     37  halt
	//
	// === Table 1 cascade at run time ===
	// regime            cycles   flushes  jumps(high/low)  joins(high/low)
	// all high (thr 0)   278270      4969   19999/1          32810/2
	// real JRS (thr 8)   159858      1139    2408/17592        361/38651
	// all low (thr 16)   160987         1       0/20000          0/40000
	//
	// With the jump forced low-confidence, every join is low too (Table 1's
	// cascade): the region runs fully predicated and cannot flush.
}
