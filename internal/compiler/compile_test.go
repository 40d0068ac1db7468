package compiler

import (
	"strings"
	"testing"

	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
)

// run compiles src under v, executes it functionally, and returns the
// final architectural state.
func run(t *testing.T, src *Source, v Variant, mem func(*emu.Memory)) *emu.State {
	t.Helper()
	p, err := Compile(src, v)
	if err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("%v: %v", v, err)
	}
	st := emu.New(p)
	if mem != nil {
		mem(st.Mem)
	}
	if _, err := st.Run(5_000_000); err != nil {
		t.Fatalf("%v: %v\n%s", v, err, p.Disassemble())
	}
	return st
}

// checkEquivalent verifies that all five binary variants compute the
// same values in the given registers — the fundamental correctness
// property of if-conversion and wish-branch generation.
func checkEquivalent(t *testing.T, src *Source, mem func(*emu.Memory), regs ...isa.Reg) {
	t.Helper()
	ref := run(t, src, NormalBranch, mem)
	for _, v := range Variants()[1:] {
		st := run(t, src, v, mem)
		for _, r := range regs {
			if st.Regs[r] != ref.Regs[r] {
				t.Errorf("%v: r%d = %d, want %d (normal)", v, r, st.Regs[r], ref.Regs[r])
			}
		}
	}
}

func TestHammockEquivalence(t *testing.T) {
	// for i in 0..200: if (data[i] < 50) { r4 += data[i]*3 } else { r4 -= data[i] }
	src := &Source{
		Name: "hammock",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(3, 1<<20), isa.MovI(4, 0)),
			DoWhile{
				Body: []Node{
					S(isa.Load(5, 3, 0)),
					If{
						Cond: CondOf(TermRI(isa.CmpLT, 5, 50)),
						Then: []Node{S(
							isa.ALUI(isa.OpMul, 6, 5, 3),
							isa.ALU(isa.OpAdd, 4, 4, 6),
						)},
						Else: []Node{S(isa.ALU(isa.OpSub, 4, 4, 5))},
						Prof: Profile{TakenProb: 0.5, MispredRate: 0.3},
					},
					S(isa.ALUI(isa.OpAdd, 3, 3, 8), isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: CondOf(TermRI(isa.CmpLT, 1, 200)),
			},
		},
	}
	mem := func(m *emu.Memory) {
		for i := 0; i < 200; i++ {
			m.Store(uint64(1<<20+i*8), int64(i*37%101))
		}
	}
	checkEquivalent(t, src, mem, 4, 1)
}

func TestEmptyElseEquivalence(t *testing.T) {
	src := &Source{
		Name: "empty-else",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(4, 0)),
			DoWhile{
				Body: []Node{
					S(isa.ALUI(isa.OpRem, 5, 1, 7)),
					If{
						Cond: CondOf(TermRI(isa.CmpEQ, 5, 3)),
						Then: []Node{S(
							isa.ALUI(isa.OpAdd, 4, 4, 11),
							isa.ALUI(isa.OpXor, 4, 4, 5),
							isa.ALUI(isa.OpAdd, 4, 4, 1),
							isa.ALUI(isa.OpMul, 4, 4, 3),
							isa.ALUI(isa.OpAnd, 4, 4, 0xFFFF),
							isa.ALUI(isa.OpAdd, 4, 4, 2),
							isa.ALUI(isa.OpSub, 4, 4, 1),
						)},
						Prof: Profile{TakenProb: 0.14, MispredRate: 0.1},
					},
					S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: CondOf(TermRI(isa.CmpLT, 1, 300)),
			},
		},
	}
	checkEquivalent(t, src, nil, 4, 1)
}

func TestOrConditionEquivalence(t *testing.T) {
	// Figure 6: if (cond1 || cond2) {B} else {D}.
	src := &Source{
		Name: "or-cond",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(4, 0), isa.MovI(7, 0)),
			DoWhile{
				Body: []Node{
					S(isa.ALUI(isa.OpRem, 5, 1, 13), isa.ALUI(isa.OpRem, 6, 1, 5)),
					If{
						Cond: CondOf(
							TermRI(isa.CmpEQ, 5, 4),
							TermRI(isa.CmpEQ, 6, 2),
						),
						Then: []Node{S(
							isa.ALUI(isa.OpAdd, 4, 4, 100),
							isa.ALUI(isa.OpAdd, 7, 7, 1),
							isa.ALU(isa.OpAdd, 4, 4, 1),
							isa.ALUI(isa.OpXor, 4, 4, 0x55),
							isa.ALUI(isa.OpAdd, 4, 4, 3),
							isa.ALUI(isa.OpSub, 4, 4, 2),
						)},
						Else: []Node{S(
							isa.ALUI(isa.OpSub, 4, 4, 1),
							isa.ALUI(isa.OpAdd, 7, 7, 2),
							isa.ALUI(isa.OpOr, 4, 4, 1),
							isa.ALUI(isa.OpAdd, 4, 4, 5),
							isa.ALUI(isa.OpXor, 4, 4, 9),
							isa.ALUI(isa.OpAdd, 4, 4, 7),
						)},
						Prof: Profile{TakenProb: 0.25, MispredRate: 0.2},
					},
					S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: CondOf(TermRI(isa.CmpLT, 1, 400)),
			},
		},
	}
	checkEquivalent(t, src, nil, 4, 7, 1)
}

func TestNestedIfEquivalence(t *testing.T) {
	src := &Source{
		Name: "nested",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(4, 0)),
			DoWhile{
				Body: []Node{
					S(isa.ALUI(isa.OpRem, 5, 1, 9), isa.ALUI(isa.OpRem, 6, 1, 4)),
					If{
						Cond: CondOf(TermRI(isa.CmpLT, 5, 5)),
						Then: []Node{
							S(isa.ALUI(isa.OpAdd, 4, 4, 2)),
							If{
								Cond: CondOf(TermRI(isa.CmpEQ, 6, 1)),
								Then: []Node{S(isa.ALUI(isa.OpMul, 4, 4, 2), isa.ALUI(isa.OpAnd, 4, 4, 0xFFFFF))},
								Else: []Node{S(isa.ALUI(isa.OpAdd, 4, 4, 7))},
								Prof: Profile{TakenProb: 0.25, MispredRate: 0.2},
							},
							S(isa.ALUI(isa.OpAdd, 4, 4, 1)),
						},
						Else: []Node{
							If{
								Cond: CondOf(TermRI(isa.CmpGE, 6, 2)),
								Then: []Node{S(isa.ALUI(isa.OpSub, 4, 4, 3))},
								Prof: Profile{TakenProb: 0.5, MispredRate: 0.25},
							},
						},
						Prof: Profile{TakenProb: 0.55, MispredRate: 0.3},
					},
					S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: CondOf(TermRI(isa.CmpLT, 1, 500)),
			},
		},
	}
	checkEquivalent(t, src, nil, 4, 1)
}

func TestWhileLoopEquivalence(t *testing.T) {
	// while (i < N) { a += i; i++ } with a data-dependent bound.
	src := &Source{
		Name: "while",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(2, 37), isa.MovI(4, 0)),
			While{
				Body: []Node{S(isa.ALU(isa.OpAdd, 4, 4, 1), isa.ALUI(isa.OpAdd, 1, 1, 1))},
				Cond: CondOf(TermRR(isa.CmpLT, 1, 2)),
			},
			// Zero-trip while.
			S(isa.MovI(5, 10)),
			While{
				Body: []Node{S(isa.ALUI(isa.OpAdd, 4, 4, 1000), isa.ALUI(isa.OpAdd, 5, 5, 1))},
				Cond: CondOf(TermRI(isa.CmpLT, 5, 10)),
			},
		},
	}
	checkEquivalent(t, src, nil, 4, 1, 5)
}

func TestIfContainingLoopStaysBranch(t *testing.T) {
	// An If whose then-side contains a loop cannot be if-converted; it
	// must lower to normal branches in every variant.
	src := &Source{
		Name: "if-with-loop",
		Body: []Node{
			S(isa.MovI(1, 7), isa.MovI(4, 0)),
			If{
				Cond: CondOf(TermRI(isa.CmpGT, 1, 3)),
				Then: []Node{
					S(isa.MovI(2, 0)),
					DoWhile{
						Body: []Node{S(isa.ALUI(isa.OpAdd, 4, 4, 2), isa.ALUI(isa.OpAdd, 2, 2, 1))},
						Cond: CondOf(TermRI(isa.CmpLT, 2, 5)),
					},
				},
				Else: []Node{S(isa.MovI(4, -1))},
			},
		},
	}
	checkEquivalent(t, src, nil, 4)
	for _, v := range Variants() {
		p := MustCompile(src, v)
		_, wish := p.StaticCondBranches()
		if wish != 0 && v != WishJumpJoinLoop {
			t.Errorf("%v: unexpected wish branches in unconvertible If", v)
		}
	}
}

func TestVariantShapes(t *testing.T) {
	bigThen := make([]isa.Inst, 10)
	bigElse := make([]isa.Inst, 10)
	for i := range bigThen {
		bigThen[i] = isa.ALUI(isa.OpAdd, 4, 4, int64(i))
		bigElse[i] = isa.ALUI(isa.OpSub, 4, 4, int64(i))
	}
	src := &Source{
		Name: "shapes",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(4, 0)),
			DoWhile{
				Body: []Node{
					If{
						Cond: CondOf(TermRI(isa.CmpEQ, 1, 3)),
						Then: []Node{S(bigThen...)},
						Else: []Node{S(bigElse...)},
						Prof: Profile{TakenProb: 0.1, MispredRate: 0.4},
					},
					S(isa.ALUI(isa.OpAdd, 1, 1, 1)),
				},
				Cond: CondOf(TermRI(isa.CmpLT, 1, 10)),
			},
		},
	}

	type shape struct{ cond, wish int }
	want := map[Variant]shape{
		NormalBranch: {cond: 2, wish: 0}, // hammock branch + loop branch
		BaseDef:      {cond: 1, wish: 0}, // hammock predicated (high mispred rate)
		BaseMax:      {cond: 1, wish: 0},
		WishJumpJoin: {cond: 3, wish: 2}, // wish jump + wish join + normal loop
		// The body holds a qualifying wish hammock, so the loop is NOT
		// converted (wish loop bodies must be free of wish branches).
		WishJumpJoinLoop: {cond: 3, wish: 2},
	}
	for v, w := range want {
		p := MustCompile(src, v)
		cond, wish := p.StaticCondBranches()
		if cond != w.cond || wish != w.wish {
			t.Errorf("%v: cond=%d wish=%d, want cond=%d wish=%d\n%s",
				v, cond, wish, w.cond, w.wish, p.Disassemble())
		}
	}
}

func TestSmallHammockIsPredicatedInWishBinary(t *testing.T) {
	src := &Source{
		Name: "tiny",
		Body: []Node{
			S(isa.MovI(1, 1), isa.MovI(4, 0)),
			If{
				Cond: CondOf(TermRI(isa.CmpEQ, 1, 1)),
				Then: []Node{S(isa.ALUI(isa.OpAdd, 4, 4, 1))},
				Else: []Node{S(isa.ALUI(isa.OpSub, 4, 4, 1))},
			},
		},
	}
	p := MustCompile(src, WishJumpJoin)
	if _, wish := p.StaticCondBranches(); wish != 0 {
		t.Errorf("tiny hammock should be predicated, got wish branches:\n%s", p.Disassemble())
	}
}

func TestSmallLoopBecomesWishLoop(t *testing.T) {
	src := &Source{
		Name: "small-loop",
		Body: []Node{
			S(isa.MovI(1, 0), isa.MovI(4, 0)),
			DoWhile{
				Body: []Node{S(isa.ALU(isa.OpAdd, 4, 4, 1), isa.ALUI(isa.OpAdd, 1, 1, 1))},
				Cond: CondOf(TermRI(isa.CmpLT, 1, 10)),
			},
		},
	}
	p := MustCompile(src, WishJumpJoinLoop)
	cond, wish := p.StaticCondBranches()
	if cond != 1 || wish != 1 {
		t.Fatalf("cond=%d wish=%d, want 1 wish loop\n%s", cond, wish, p.Disassemble())
	}
	found := false
	for _, in := range p.Code {
		if in.IsWish() && in.WType == isa.WLoop {
			found = true
		}
	}
	if !found {
		t.Fatalf("no wish.loop emitted:\n%s", p.Disassemble())
	}
	// Equivalence across all variants too.
	checkEquivalent(t, src, nil, 4, 1)
}

// TestInvalidCompareConditionFails: a term whose condition is out of
// range (as a hand-edited repro file can carry) is a compile error in
// every variant, whether the term lowers to a branch, whose condition
// the compiler negates, or to a predicate define.
func TestInvalidCompareConditionFails(t *testing.T) {
	bad := TermRR(99, 1, 1)
	for _, src := range []*Source{
		{Name: "if", Body: []Node{If{Cond: CondOf(bad), Then: []Node{S(isa.MovI(2, 1))}}}},
		{Name: "while", Body: []Node{While{Cond: CondOf(bad), Body: []Node{S(isa.MovI(2, 1))}}}},
	} {
		for _, v := range Variants() {
			_, err := Compile(src, v)
			if err == nil || !strings.Contains(err.Error(), "invalid compare condition 99") {
				t.Errorf("%s/%v: err = %v, want an invalid compare condition 99", src.Name, v, err)
			}
		}
	}
}

// TestParseVariant pins ParseVariant as the inverse of Variant.String
// for every binary, and its refusal of an unknown name.
func TestParseVariant(t *testing.T) {
	cases := []struct {
		name string
		want Variant
	}{
		{"normal", NormalBranch},
		{"base-def", BaseDef},
		{"base-max", BaseMax},
		{"wish-jj", WishJumpJoin},
		{"wish-jjl", WishJumpJoinLoop},
	}
	if len(cases) != int(NumVariants) {
		t.Fatalf("table covers %d variants, want all %d", len(cases), NumVariants)
	}
	for _, tc := range cases {
		got, err := ParseVariant(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		if got.String() != tc.name {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.name)
		}
	}
	if _, err := ParseVariant("wish-all"); err == nil {
		t.Error("ParseVariant accepted an unknown variant")
	}
}
