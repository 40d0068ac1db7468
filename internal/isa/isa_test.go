package isa

import "testing"

func TestConstructorsValid(t *testing.T) {
	cases := []Inst{
		Nop(),
		Halt(),
		ALU(OpAdd, 1, 2, 3),
		ALUI(OpXor, 4, 5, -77),
		MovI(6, 1<<40),
		Mov(7, 8),
		Cmp(CmpLT, 1, 2, 3, 4),
		CmpI(CmpGE, 3, PNone, 9, 100),
		PSet(5, 1),
		POr(1, 2, 3),
		PAnd(4, 5, 6),
		PNot(7, 8),
		Load(10, 11, 64),
		Store(12, -8, 13),
		Br(1, 42),
		Jmp(0),
		WishBr(WJump, 2, 7),
		WishBr(WLoop, 3, 0),
		WishBr(WJoin, 4, 9),
		Call(5),
		Ret(),
		Guarded(3, ALU(OpSub, 1, 2, 3)),
	}
	for _, in := range cases {
		if err := in.Valid(); err != nil {
			t.Errorf("%v: %v", in, err)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	br := Br(1, 5)
	if !br.IsBranch() || !br.IsCondBranch() || br.IsWish() || br.IsUncondJump() {
		t.Errorf("Br classification wrong: %v", br)
	}
	j := Jmp(3)
	if !j.IsBranch() || j.IsCondBranch() || !j.IsUncondJump() {
		t.Errorf("Jmp classification wrong: %v", j)
	}
	w := WishBr(WLoop, 2, 0)
	if !w.IsWish() || !w.IsCondBranch() || w.WType != WLoop {
		t.Errorf("wish classification wrong: %v", w)
	}
	ld := Load(1, 2, 0)
	if !ld.IsMem() || !ld.WritesInt() {
		t.Errorf("load classification wrong: %v", ld)
	}
	st := Store(1, 0, 2)
	if !st.IsMem() || st.WritesInt() {
		t.Errorf("store classification wrong: %v", st)
	}
	cmp := Cmp(CmpEQ, 1, 2, 3, 4)
	if !cmp.WritesPred() || cmp.WritesInt() {
		t.Errorf("cmp classification wrong: %v", cmp)
	}
	// Writes to hardwired registers do not count as writes.
	z := ALU(OpAdd, R0, 1, 2)
	if z.WritesInt() {
		t.Error("write to R0 should not count")
	}
	p0 := Cmp(CmpEQ, P0, PNone, 1, 2)
	if p0.WritesPred() {
		t.Error("write to P0 should not count")
	}
}

func TestEvalCmp(t *testing.T) {
	cases := []struct {
		cc   CmpCond
		a, b int64
		want bool
	}{
		{CmpEQ, 3, 3, true}, {CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true}, {CmpNE, 4, 4, false},
		{CmpLT, -1, 0, true}, {CmpLT, 0, 0, false},
		{CmpLE, 0, 0, true}, {CmpLE, 1, 0, false},
		{CmpGT, 5, 4, true}, {CmpGT, 4, 4, false},
		{CmpGE, 4, 4, true}, {CmpGE, 3, 4, false},
	}
	for _, c := range cases {
		if got := EvalCmp(c.cc, c.a, c.b); got != c.want {
			t.Errorf("EvalCmp(%v, %d, %d) = %v, want %v", c.cc, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalALU(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, -1},
		{OpMul, -4, 3, -12},
		{OpDiv, 7, 2, 3},
		{OpDiv, 7, 0, 0}, // no traps: division by zero yields 0
		{OpRem, 7, 3, 1},
		{OpRem, 7, 0, 0},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 4, 16},
		{OpShl, 1, 64, 1}, // shift amount masked to 6 bits
		{OpShr, -16, 2, -4},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{ALU(OpAdd, 1, 2, 3), "add r1 = r2, r3"},
		{Guarded(1, ALUI(OpSub, 4, 5, 9)), "(p1) sub r4 = r5, 9"},
		{Cmp(CmpLT, 1, 2, 3, 4), "cmp.lt p1, p2 = r3, r4"},
		{CmpI(CmpEQ, 3, PNone, 7, 10), "cmp.eq p3 = r7, 10"},
		{Load(5, 6, 8), "ld r5 = [r6+8]"},
		{Store(6, -8, 7), "st [r6-8] = r7"},
		{Br(2, 17), "br p2, 17"},
		{Jmp(4), "jmp 4"},
		{WishBr(WJump, 1, 9), "wish.jump p1, 9"},
		{WishBr(WLoop, 2, 3), "wish.loop p2, 3"},
		{WishBr(WJoin, 3, 11), "wish.join p3, 11"},
		{Call(21), "call 21, r63"},
		{Ret(), "ret r63"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestInvalidInstructions(t *testing.T) {
	bad := []Inst{
		{Op: numOps},
		{Op: OpAdd, Guard: 200, PDst: PNone, PDst2: PNone},
		{Op: OpCmp, CC: numCmpConds, PDst: 1, PDst2: PNone},
		{Op: OpCmp, CC: CmpEQ, PDst: 20, PDst2: PNone},
		{Op: OpBr, Target: -1, PDst: PNone, PDst2: PNone},
		{Op: OpPOr, PDst: 1, PDst2: PNone, PSrc1: 30},
	}
	for _, in := range bad {
		if err := in.Valid(); err == nil {
			t.Errorf("Valid() accepted %+v", in)
		}
	}
}

func TestWishHintBitsIgnorable(t *testing.T) {
	// Figure 7's property: a wish branch is a normal conditional branch
	// plus hint bits; stripping the hints leaves a valid branch with
	// identical control-flow semantics.
	w := WishBr(WLoop, 3, 12)
	n := w
	n.BType = BNormal
	n.WType = 0
	if n.Op != OpBr || n.Guard != w.Guard || n.Target != w.Target {
		t.Error("stripping wish hints changed branch semantics")
	}
	if err := n.Valid(); err != nil {
		t.Error(err)
	}
}
