package compiler

import (
	"fmt"

	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// Compile lowers src into the requested binary variant with the
// paper's default conversion thresholds. A HALT is appended after the
// body.
func Compile(src *Source, v Variant) (*prog.Program, error) {
	return CompileOpt(src, v, DefaultThresholds())
}

// CompileOpt is Compile with explicit §4.2.2 conversion thresholds.
func CompileOpt(src *Source, v Variant, thr Thresholds) (p *prog.Program, err error) {
	if v < 0 || v >= NumVariants {
		return nil, fmt.Errorf("compiler: unknown variant %d", int(v))
	}
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				p, err = nil, fmt.Errorf("compiler: %s: %s", src.Name, string(ce))
				return
			}
			panic(r)
		}
	}()
	l := &lowerer{b: prog.NewBuilder(), v: v, thr: thr}
	for pr := isa.PReg(isa.NumPredRegs - 1); pr >= 1; pr-- {
		l.free = append(l.free, pr)
	}
	l.nodes(src.Body, isa.P0)
	l.b.Emit(isa.Halt())
	for _, sub := range src.Subs {
		if containsCall(sub.Body) {
			fail("subroutine %q calls another subroutine (one link register)", sub.Name)
		}
		l.b.Label("sub." + sub.Name)
		l.nodes(sub.Body, isa.P0)
		l.b.Emit(isa.Ret())
	}
	return l.b.Finish()
}

// MustCompile is Compile but panics on error (tests and examples).
func MustCompile(src *Source, v Variant) *prog.Program {
	p, err := Compile(src, v)
	if err != nil {
		panic(err)
	}
	return p
}

type compileError string

func fail(format string, args ...interface{}) {
	panic(compileError(fmt.Sprintf(format, args...)))
}

type lowerer struct {
	b      *prog.Builder
	v      Variant
	thr    Thresholds
	labelN int
	free   []isa.PReg
}

func (l *lowerer) label(prefix string) string {
	l.labelN++
	return fmt.Sprintf(".%s%d", prefix, l.labelN)
}

func (l *lowerer) allocP() isa.PReg {
	if len(l.free) == 0 {
		fail("out of predicate registers (region nesting too deep)")
	}
	p := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return p
}

func (l *lowerer) freeP(ps ...isa.PReg) {
	for _, p := range ps {
		if p != isa.P0 && p != isa.PNone {
			l.free = append(l.free, p)
		}
	}
}

// nodes lowers a node list under guard g (P0 = unguarded).
func (l *lowerer) nodes(nodes []Node, g isa.PReg) {
	for _, nd := range nodes {
		switch t := nd.(type) {
		case Straight:
			l.straight(t, g)
		case If:
			l.ifNode(t, g)
		case DoWhile:
			l.doWhile(t, g)
		case While:
			l.whileNode(t, g)
		case Call:
			if g != isa.P0 {
				fail("call nested inside a predicated region")
			}
			l.b.CallL("sub." + t.Name)
		default:
			fail("unknown node type %T", nd)
		}
	}
}

func (l *lowerer) straight(t Straight, g isa.PReg) {
	for _, in := range t.Insts {
		if in.IsBranch() {
			fail("branch µop %v in Straight node; use If/DoWhile/While", in)
		}
		if in.Guard != isa.P0 {
			fail("pre-guarded µop %v in Straight node", in)
		}
		if err := in.Valid(); err != nil {
			fail("invalid µop: %v", err)
		}
		l.b.Emit(isa.Guarded(g, in))
	}
}

// negateCC returns the complementary compare condition.
func negateCC(cc isa.CmpCond) isa.CmpCond {
	switch cc {
	case isa.CmpEQ:
		return isa.CmpNE
	case isa.CmpNE:
		return isa.CmpEQ
	case isa.CmpLT:
		return isa.CmpGE
	case isa.CmpGE:
		return isa.CmpLT
	case isa.CmpLE:
		return isa.CmpGT
	case isa.CmpGT:
		return isa.CmpLE
	}
	fail("invalid compare condition %d", cc)
	return 0
}

func cmpOf(t Term, pd, pd2, g isa.PReg) isa.Inst {
	var in isa.Inst
	if t.UseImm {
		in = isa.CmpI(t.CC, pd, pd2, t.A, t.Imm)
	} else {
		in = isa.Cmp(t.CC, pd, pd2, t.A, t.B)
	}
	return isa.Guarded(g, in)
}

// containsCall reports whether the subtree contains a Call node.
func containsCall(nodes []Node) bool {
	for _, nd := range nodes {
		switch t := nd.(type) {
		case Call:
			return true
		case If:
			if containsCall(t.Then) || containsCall(t.Else) {
				return true
			}
		case DoWhile:
			if containsCall(t.Body) {
				return true
			}
		case While:
			if containsCall(t.Body) {
				return true
			}
		}
	}
	return false
}

// containsLoop reports whether the subtree has any loop node.
func containsLoop(nodes []Node) bool {
	for _, nd := range nodes {
		switch t := nd.(type) {
		case If:
			if containsLoop(t.Then) || containsLoop(t.Else) {
				return true
			}
		case DoWhile, While:
			return true
		}
	}
	return false
}

// ifNode lowers an If according to the variant and the §4.2 decision
// heuristics.
func (l *lowerer) ifNode(t If, g isa.PReg) {
	if len(t.Cond.Terms) == 0 {
		fail("If with empty condition")
	}
	branchy := t.NoConvert || containsLoop(t.Then) || containsLoop(t.Else) ||
		containsCall(t.Then) || containsCall(t.Else)
	if branchy {
		if g != isa.P0 {
			fail("unconvertible If nested inside a predicated region")
		}
		l.ifBranch(t)
		return
	}
	if g != isa.P0 {
		// Inside an if-converted region everything is predicated.
		l.ifPredicated(t, g)
		return
	}
	switch l.v {
	case NormalBranch:
		l.ifBranch(t)
	case BaseDef:
		if predicationWins(t) {
			l.ifPredicated(t, g)
		} else {
			l.ifBranch(t)
		}
	case BaseMax:
		l.ifPredicated(t, g)
	case WishJumpJoin, WishJumpJoinLoop:
		if wishWins(t, l.thr) {
			l.ifWish(t)
		} else {
			l.ifPredicated(t, g)
		}
	}
}

// ifBranch emits Figure 3(a)/6(a) normal-branch code: a cascade of
// conditional branches to the then block, the else block on the fall
// through, and an unconditional jump over the then block.
func (l *lowerer) ifBranch(t If) {
	thenL := l.label("then")
	joinL := l.label("join")
	if len(t.Else) == 0 && len(t.Cond.Terms) == 1 {
		// if (c) {then}: branch over the then block when !c.
		term := t.Cond.Terms[0]
		l.straight(S(term.Setup...), isa.P0)
		p := l.allocP()
		nt := term
		nt.CC = negateCC(term.CC)
		l.b.Emit(cmpOf(nt, p, isa.PNone, isa.P0))
		l.b.BrL(p, joinL)
		l.freeP(p)
		l.nodes(t.Then, isa.P0)
		l.b.Label(joinL)
		return
	}
	for _, term := range t.Cond.Terms {
		l.straight(S(term.Setup...), isa.P0)
		p := l.allocP()
		l.b.Emit(cmpOf(term, p, isa.PNone, isa.P0))
		l.b.BrL(p, thenL)
		l.freeP(p)
	}
	l.nodes(t.Else, isa.P0)
	l.b.JmpL(joinL)
	l.b.Label(thenL)
	l.nodes(t.Then, isa.P0)
	l.b.Label(joinL)
}

// condPreds computes the then/else guard predicates for a fully
// predicated region under guard g. For a single term with g == P0 this
// is one paired compare; OR conditions accumulate with POr, and nested
// guards compose with PAnd (the IA-64 parallel-compare idiom).
func (l *lowerer) condPreds(c Cond, g isa.PReg) (pThen, pElse isa.PReg) {
	if len(c.Terms) == 1 && g == isa.P0 {
		term := c.Terms[0]
		l.straight(S(term.Setup...), g)
		pThen, pElse = l.allocP(), l.allocP()
		l.b.Emit(cmpOf(term, pThen, pElse, isa.P0))
		return pThen, pElse
	}
	pThen, pElse = l.allocP(), l.allocP()
	l.b.Emit(isa.PSet(pThen, 0))
	scratch := l.allocP()
	for _, term := range c.Terms {
		l.straight(S(term.Setup...), g)
		if g != isa.P0 {
			l.b.Emit(isa.PSet(scratch, 0))
		}
		l.b.Emit(cmpOf(term, scratch, isa.PNone, g))
		l.b.Emit(isa.POr(pThen, pThen, scratch))
	}
	l.freeP(scratch)
	// pElse = g && !pThen (or just !pThen when unguarded).
	if g == isa.P0 {
		l.b.Emit(isa.PNot(pElse, pThen))
	} else {
		l.b.Emit(isa.PNot(pElse, pThen))
		l.b.Emit(isa.PAnd(pElse, pElse, g))
		l.b.Emit(isa.PAnd(pThen, pThen, g))
	}
	return pThen, pElse
}

// ifPredicated emits Figure 3(b) predicated code: both blocks guarded,
// no branches.
func (l *lowerer) ifPredicated(t If, g isa.PReg) {
	pThen, pElse := l.condPreds(t.Cond, g)
	l.nodes(t.Else, pElse)
	l.nodes(t.Then, pThen)
	l.freeP(pThen, pElse)
}

// ifWish emits Figure 3(c)/6(c) wish jump/join code: the same
// predicated code with the branches left intact.
func (l *lowerer) ifWish(t If) {
	thenL := l.label("wthen")
	joinL := l.label("wjoin")

	if len(t.Cond.Terms) == 1 {
		term := t.Cond.Terms[0]
		l.straight(S(term.Setup...), isa.P0)
		pThen, pElse := l.allocP(), l.allocP()
		l.b.Emit(cmpOf(term, pThen, pElse, isa.P0))
		if len(t.Else) == 0 {
			// Jump over the then block when the condition is false.
			l.b.WishL(isa.WJump, pElse, joinL)
			l.nodes(t.Then, pThen)
			l.b.Label(joinL)
		} else {
			l.b.WishL(isa.WJump, pThen, thenL)
			l.nodes(t.Else, pElse)
			l.b.WishL(isa.WJoin, pElse, joinL)
			l.b.Label(thenL)
			l.nodes(t.Then, pThen)
			l.b.Label(joinL)
		}
		l.freeP(pThen, pElse)
		return
	}

	// OR condition (Figure 6): accumulate the then-guard term by term;
	// each term gets a wish jump/join to the then block so a
	// high-confidence taken prediction skips the remaining tests.
	pAcc := l.allocP()
	scratch := l.allocP()
	l.b.Emit(isa.PSet(pAcc, 0))
	for i, term := range t.Cond.Terms {
		l.straight(S(term.Setup...), isa.P0)
		l.b.Emit(cmpOf(term, scratch, isa.PNone, isa.P0))
		l.b.Emit(isa.POr(pAcc, pAcc, scratch))
		if i == 0 {
			l.b.WishL(isa.WJump, pAcc, thenL)
		} else {
			l.b.WishL(isa.WJoin, pAcc, thenL)
		}
	}
	l.freeP(scratch)
	pElse := l.allocP()
	l.b.Emit(isa.PNot(pElse, pAcc))
	l.nodes(t.Else, pElse)
	l.b.WishL(isa.WJoin, pElse, joinL)
	l.b.Label(thenL)
	l.nodes(t.Then, pAcc)
	l.b.Label(joinL)
	l.freeP(pAcc, pElse)
}

// doWhile lowers a bottom-tested loop (Figure 4).
func (l *lowerer) doWhile(t DoWhile, g isa.PReg) {
	if g != isa.P0 {
		fail("loop nested inside a predicated region")
	}
	if len(t.Cond.Terms) != 1 {
		fail("loop conditions must have exactly one term")
	}
	term := t.Cond.Terms[0]
	loopL := l.label("loop")

	if l.wishLoopWins(t.Body, t.NoConvert) {
		// Figure 4(b): predicate the body with the loop condition.
		p := l.allocP()
		l.b.Emit(isa.PSet(p, 1))
		l.b.Label(loopL)
		l.nodes(t.Body, p)
		l.straight(S(term.Setup...), p)
		l.b.Emit(cmpOf(term, p, isa.PNone, p)) // (p) p = (cond)
		l.b.WishL(isa.WLoop, p, loopL)
		l.freeP(p)
		return
	}

	// Figure 4(a): normal backward branch.
	l.b.Label(loopL)
	l.nodes(t.Body, isa.P0)
	l.straight(S(term.Setup...), isa.P0)
	p := l.allocP()
	l.b.Emit(cmpOf(term, p, isa.PNone, isa.P0))
	l.b.BrL(p, loopL)
	l.freeP(p)
}

// whileNode lowers a top-tested loop (Figure 5).
func (l *lowerer) whileNode(t While, g isa.PReg) {
	if g != isa.P0 {
		fail("loop nested inside a predicated region")
	}
	if len(t.Cond.Terms) != 1 {
		fail("loop conditions must have exactly one term")
	}
	term := t.Cond.Terms[0]
	loopL := l.label("loop")
	exitL := l.label("exit")

	if l.wishLoopWins(t.Body, t.NoConvert) {
		// Figure 5(b): evaluate the condition once before the loop, then
		// predicate the body and re-evaluate under the predicate.
		p := l.allocP()
		l.straight(S(term.Setup...), isa.P0)
		l.b.Emit(cmpOf(term, p, isa.PNone, isa.P0))
		l.b.Label(loopL)
		l.nodes(t.Body, p)
		l.straight(S(term.Setup...), p)
		l.b.Emit(cmpOf(term, p, isa.PNone, p))
		l.b.WishL(isa.WLoop, p, loopL)
		l.freeP(p)
		return
	}

	// Figure 5(a): test, exit branch, body, back edge.
	l.b.Label(loopL)
	l.straight(S(term.Setup...), isa.P0)
	p := l.allocP()
	nt := term
	nt.CC = negateCC(term.CC)
	l.b.Emit(cmpOf(nt, p, isa.PNone, isa.P0))
	l.b.BrL(p, exitL)
	l.freeP(p)
	l.nodes(t.Body, isa.P0)
	l.b.JmpL(loopL)
	l.b.Label(exitL)
}
