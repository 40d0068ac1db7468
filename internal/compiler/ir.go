// Package compiler lowers a structured intermediate representation to
// µop programs, producing the five binary variants the paper compares
// (Table 3): normal branch code, two predicated binaries (BASE-DEF with
// the Eq. 4.1–4.3 cost model, BASE-MAX with maximal if-conversion), and
// two wish-branch binaries (wish jump/join, wish jump/join/loop).
//
// This plays the role of the paper's modified ORC compiler: the
// decisions it makes — which hammocks to if-convert, which to turn into
// wish jumps/joins, which backward branches become wish loops — follow
// §4.2.1 and §4.2.2, including the N=5 fall-through-size threshold for
// wish jumps and the L=30 body-size threshold for wish loops.
package compiler

import (
	"fmt"

	"wishbranch/internal/isa"
)

// Variant selects which of Table 3's binaries to generate.
type Variant int

const (
	// NormalBranch keeps every branch a normal conditional branch.
	NormalBranch Variant = iota
	// BaseDef predicates branches that pass the compile-time
	// cost-benefit analysis of Eq. 4.1–4.3.
	BaseDef
	// BaseMax predicates every branch suitable for if-conversion.
	BaseMax
	// WishJumpJoin converts suitable branches to wish jumps/joins (or
	// predicates them when the region is small); backward branches stay
	// normal.
	WishJumpJoin
	// WishJumpJoinLoop additionally converts suitable backward branches
	// to wish loops.
	WishJumpJoinLoop

	NumVariants
)

func (v Variant) String() string {
	switch v {
	case NormalBranch:
		return "normal"
	case BaseDef:
		return "base-def"
	case BaseMax:
		return "base-max"
	case WishJumpJoin:
		return "wish-jj"
	case WishJumpJoinLoop:
		return "wish-jjl"
	}
	return fmt.Sprintf("variant%d", int(v))
}

// ParseVariant is the inverse of Variant.String: it maps a binary's
// name (normal, base-def, base-max, wish-jj, wish-jjl) to its Variant.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

// Variants lists all five binaries in Table 3 order.
func Variants() []Variant {
	return []Variant{NormalBranch, BaseDef, BaseMax, WishJumpJoin, WishJumpJoinLoop}
}

// Node is one element of the structured IR.
type Node interface{ isNode() }

// Straight is straight-line code. Instructions must be unguarded
// non-branches; the compiler applies guards during if-conversion.
type Straight struct {
	Insts []isa.Inst
}

func (Straight) isNode() {}

// S is shorthand for a Straight node.
func S(insts ...isa.Inst) Straight { return Straight{Insts: insts} }

// Term is one comparison term of a condition: optional setup µops
// followed by a compare of A against B (or Imm).
//
// Contract: registers written by Setup are scratch — dead outside the
// If. In branchy lowerings a later term's setup is skipped when an
// earlier term already decided the branch, while predicated and
// low-confidence wish executions run every setup; only scratch
// registers may observe that difference (the final predicates and the
// guarded block effects are identical either way, which is what makes
// wish-branch code architecturally mode-independent).
type Term struct {
	Setup  []isa.Inst
	CC     isa.CmpCond
	A, B   isa.Reg
	Imm    int64
	UseImm bool
}

// TermRR builds a register-register term.
func TermRR(cc isa.CmpCond, a, b isa.Reg) Term { return Term{CC: cc, A: a, B: b} }

// TermRI builds a register-immediate term.
func TermRI(cc isa.CmpCond, a isa.Reg, imm int64) Term {
	return Term{CC: cc, A: a, Imm: imm, UseImm: true}
}

// Cond is a disjunction (OR) of terms, mirroring the paper's complex
// control-flow example `if (cond1 || cond2)` (Figure 6).
type Cond struct {
	Terms []Term
}

// CondOf builds a condition from terms.
func CondOf(terms ...Term) Cond { return Cond{Terms: terms} }

// Profile carries the compile-time profile information the cost model
// of §4.2.1 consumes for a forward branch.
type Profile struct {
	// TakenProb is P(then-path), i.e. P(branch taken) in Figure 3's
	// layout where the taken target is the then block.
	TakenProb float64
	// MispredRate is the estimated misprediction rate from profiling.
	MispredRate float64
}

// If is a two-sided (possibly empty-else) hammock.
type If struct {
	Cond Cond
	Then []Node
	Else []Node
	Prof Profile
	// NoConvert marks control flow unsuitable for if-conversion (the
	// branch stays a normal branch in every binary).
	NoConvert bool
}

func (If) isNode() {}

// DoWhile is a bottom-tested loop: body executes at least once, and the
// backward branch repeats while Cond holds (Figure 4).
type DoWhile struct {
	Body []Node
	Cond Cond
	// NoConvert keeps the backward branch a normal branch even in the
	// wish jump/join/loop binary.
	NoConvert bool
}

func (DoWhile) isNode() {}

// While is a top-tested loop (Figure 5): Cond is evaluated before each
// iteration, including the first.
type While struct {
	Body      []Node
	Cond      Cond
	NoConvert bool
}

func (While) isNode() {}

// Call invokes a subroutine by name (single level: subroutines may not
// call further subroutines, since the µop ISA has one link register).
type Call struct {
	Name string
}

func (Call) isNode() {}

// Subroutine is a named callable body, placed after the main body.
type Subroutine struct {
	Name string
	Body []Node
}

// Source is a complete compilation unit.
type Source struct {
	Name string
	Body []Node
	Subs []Subroutine
}

// NumInsts returns the static µop count of a node list (setup and
// compare µops included, control transfers excluded since their count
// is variant-dependent).
func NumInsts(nodes []Node) int {
	n := 0
	for _, nd := range nodes {
		switch t := nd.(type) {
		case Straight:
			n += len(t.Insts)
		case If:
			n += condSize(t.Cond) + NumInsts(t.Then) + NumInsts(t.Else)
		case DoWhile:
			n += condSize(t.Cond) + NumInsts(t.Body)
		case While:
			n += condSize(t.Cond) + NumInsts(t.Body)
		case Call:
			n++
		default:
			panic(fmt.Sprintf("compiler: unknown node %T", nd))
		}
	}
	return n
}

func condSize(c Cond) int {
	n := 0
	for _, t := range c.Terms {
		n += len(t.Setup) + 1
	}
	return n
}
