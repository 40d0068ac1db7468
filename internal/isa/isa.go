// Package isa defines the µop instruction set simulated by this
// repository.
//
// The paper (Kim et al., MICRO 2005) translates IA-64 binaries into µops
// "close to a generic RISC ISA" before simulation; this package models
// that µop layer directly. Every instruction carries a qualifying
// (guard) predicate register, as in IA-64: an instruction whose guard
// evaluates to false is architecturally a NOP. Conditional branches are
// taken if and only if their guard predicate is true, which matches the
// paper's "branch p1, TARGET" form.
//
// Wish branches are ordinary conditional branches with two extra hint
// fields (Figure 7 of the paper): BType distinguishes a normal branch
// from a wish branch, and WType selects wish jump / wish join / wish
// loop. Hardware without wish-branch support may ignore the hints and
// execute the branch normally; the functional emulator in package emu
// does exactly that.
package isa

import "fmt"

// Reg names an integer register. The machine has NumIntRegs registers;
// register R0 always reads as zero and writes to it are discarded.
type Reg uint8

// PReg names a predicate (1-bit) register. The machine has NumPredRegs
// predicate registers; P0 always reads as true and writes to it are
// discarded, so P0 serves as the "always execute" guard.
type PReg uint8

// Machine register file sizes.
const (
	NumIntRegs  = 64
	NumPredRegs = 16
)

// Distinguished registers.
const (
	R0 Reg = 0 // hardwired zero
	// LR is the conventional link register written by CALL and read by RET.
	LR Reg = 63

	P0 PReg = 0 // hardwired true: the unconditional guard
	// PNone marks an unused predicate destination field.
	PNone PReg = 0xFF
)

// InstBytes is the architectural fetch footprint of one µop in bytes;
// PCs advance by this amount. With 64-byte I-cache lines this yields
// 16 µops per line.
const InstBytes = 4

// Op enumerates µop opcodes.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota
	// OpHalt stops the program.
	OpHalt

	// Integer ALU operations: Dst = Src1 <op> operand2, where operand2 is
	// Src2, or Imm when UseImm is set.
	OpAdd
	OpSub
	OpMul
	OpDiv // division by zero yields 0 (the machine has no traps)
	OpRem // remainder; by zero yields 0
	OpAnd
	OpOr
	OpXor
	OpShl // shift amount masked to 6 bits
	OpShr // arithmetic shift right, amount masked to 6 bits

	// OpMovI sets Dst = Imm. OpMov sets Dst = Src1.
	OpMovI
	OpMov

	// OpCmp compares Src1 against operand2 using CC and writes the result
	// to PDst and, if PDst2 != PNone, its complement to PDst2 (like the
	// IA-64 parallel cmp that wish jump/join code relies on).
	OpCmp

	// Predicate ALU operations.
	OpPSet // PDst = (Imm != 0)
	OpPOr  // PDst = PSrc1 || PSrc2
	OpPAnd // PDst = PSrc1 && PSrc2
	OpPNot // PDst = !PSrc1

	// OpLoad reads Dst = Mem[Src1+Imm] (64-bit). OpStore writes
	// Mem[Src1+Imm] = Src2.
	OpLoad
	OpStore

	// Control transfer. OpBr is the conditional branch: taken iff the
	// guard predicate is true (use Guard=P0 for an unconditional branch).
	// OpJmpInd jumps to the address in Src1. OpCall jumps to Target and
	// writes the return PC to Dst. OpRet jumps to the address in Src1.
	OpBr
	OpJmpInd
	OpCall
	OpRet

	numOps
)

// CmpCond is the comparison condition for OpCmp (signed comparisons).
type CmpCond uint8

const (
	CmpEQ CmpCond = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	numCmpConds
)

// BType distinguishes normal branches from wish branches (Figure 7).
type BType uint8

const (
	BNormal BType = iota
	BWish
)

// WType is the wish branch type (Figure 7). It is meaningful only when
// BType == BWish.
type WType uint8

const (
	WJump WType = iota
	WLoop
	WJoin
)

// Inst is one µop. The zero value is a NOP guarded by P0.
//
// Field usage by opcode:
//
//	ALU:        Dst, Src1, (Src2 | Imm via UseImm)
//	OpMovI:     Dst, Imm
//	OpMov:      Dst, Src1
//	OpCmp:      CC, PDst, PDst2, Src1, (Src2 | Imm)
//	OpPSet:     PDst, Imm
//	OpPOr/PAnd: PDst, PSrc1, PSrc2
//	OpPNot:     PDst, PSrc1
//	OpLoad:     Dst, Src1, Imm
//	OpStore:    Src1, Imm, Src2 (value)
//	OpBr:       Target, BType, WType (condition = Guard)
//	OpJmpInd:   Src1
//	OpCall:     Target, Dst (return PC)
//	OpRet:      Src1
//
// Target is a µop index into the flattened program (package prog
// resolves labels to indices); the byte address is Target*InstBytes.
type Inst struct {
	Op     Op
	Guard  PReg // qualifying predicate; P0 = always
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	UseImm bool

	CC    CmpCond
	PDst  PReg // predicate destination (OpCmp, predicate ALU); PNone if unused
	PDst2 PReg // complement destination for OpCmp; PNone if unused
	PSrc1 PReg
	PSrc2 PReg

	BType  BType
	WType  WType
	Target int
}

// Nop returns a NOP instruction.
func Nop() Inst { return Inst{Op: OpNop, PDst: PNone, PDst2: PNone} }

// Halt returns a HALT instruction.
func Halt() Inst { return Inst{Op: OpHalt, PDst: PNone, PDst2: PNone} }

// ALU returns an integer register-register ALU instruction.
func ALU(op Op, dst, src1, src2 Reg) Inst {
	return Inst{Op: op, Dst: dst, Src1: src1, Src2: src2, PDst: PNone, PDst2: PNone}
}

// ALUI returns an integer register-immediate ALU instruction.
func ALUI(op Op, dst, src1 Reg, imm int64) Inst {
	return Inst{Op: op, Dst: dst, Src1: src1, Imm: imm, UseImm: true, PDst: PNone, PDst2: PNone}
}

// MovI returns Dst = imm.
func MovI(dst Reg, imm int64) Inst {
	return Inst{Op: OpMovI, Dst: dst, Imm: imm, PDst: PNone, PDst2: PNone}
}

// Mov returns Dst = Src1.
func Mov(dst, src Reg) Inst {
	return Inst{Op: OpMov, Dst: dst, Src1: src, PDst: PNone, PDst2: PNone}
}

// Cmp returns a compare writing pd (and the complement to pd2; pass
// PNone to skip the complement).
func Cmp(cc CmpCond, pd, pd2 PReg, src1, src2 Reg) Inst {
	return Inst{Op: OpCmp, CC: cc, PDst: pd, PDst2: pd2, Src1: src1, Src2: src2}
}

// CmpI is Cmp with an immediate second operand.
func CmpI(cc CmpCond, pd, pd2 PReg, src1 Reg, imm int64) Inst {
	return Inst{Op: OpCmp, CC: cc, PDst: pd, PDst2: pd2, Src1: src1, Imm: imm, UseImm: true}
}

// PSet returns PDst = (imm != 0).
func PSet(pd PReg, imm int64) Inst {
	return Inst{Op: OpPSet, PDst: pd, PDst2: PNone, Imm: imm}
}

// POr returns PDst = PSrc1 || PSrc2.
func POr(pd, ps1, ps2 PReg) Inst {
	return Inst{Op: OpPOr, PDst: pd, PDst2: PNone, PSrc1: ps1, PSrc2: ps2}
}

// PAnd returns PDst = PSrc1 && PSrc2.
func PAnd(pd, ps1, ps2 PReg) Inst {
	return Inst{Op: OpPAnd, PDst: pd, PDst2: PNone, PSrc1: ps1, PSrc2: ps2}
}

// PNot returns PDst = !PSrc1.
func PNot(pd, ps PReg) Inst {
	return Inst{Op: OpPNot, PDst: pd, PDst2: PNone, PSrc1: ps}
}

// Load returns Dst = Mem[Src1+imm].
func Load(dst, base Reg, imm int64) Inst {
	return Inst{Op: OpLoad, Dst: dst, Src1: base, Imm: imm, PDst: PNone, PDst2: PNone}
}

// Store returns Mem[Src1+imm] = val.
func Store(base Reg, imm int64, val Reg) Inst {
	return Inst{Op: OpStore, Src1: base, Imm: imm, Src2: val, PDst: PNone, PDst2: PNone}
}

// Br returns a conditional branch to target, taken iff guard is true.
func Br(guard PReg, target int) Inst {
	return Inst{Op: OpBr, Guard: guard, Target: target, PDst: PNone, PDst2: PNone}
}

// Jmp returns an unconditional branch (guard P0).
func Jmp(target int) Inst { return Br(P0, target) }

// WishBr returns a wish branch of the given wish type.
func WishBr(wt WType, guard PReg, target int) Inst {
	in := Br(guard, target)
	in.BType = BWish
	in.WType = wt
	return in
}

// Call returns a call to target writing the return PC to LR.
func Call(target int) Inst {
	return Inst{Op: OpCall, Dst: LR, Target: target, PDst: PNone, PDst2: PNone}
}

// Ret returns a return through LR.
func Ret() Inst {
	return Inst{Op: OpRet, Src1: LR, PDst: PNone, PDst2: PNone}
}

// Guarded returns a copy of in with the guard predicate set.
func Guarded(p PReg, in Inst) Inst {
	in.Guard = p
	return in
}

// IsBranch reports whether the instruction can redirect control flow.
func (in *Inst) IsBranch() bool {
	switch in.Op {
	case OpBr, OpJmpInd, OpCall, OpRet:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch,
// i.e. an OpBr with a non-hardwired guard. Unconditional jumps (guard
// P0) are not conditional.
func (in *Inst) IsCondBranch() bool {
	return in.Op == OpBr && in.Guard != P0
}

// IsWish reports whether the instruction is a wish branch.
func (in *Inst) IsWish() bool { return in.Op == OpBr && in.BType == BWish }

// IsUncondJump reports whether the instruction is an always-taken direct
// branch.
func (in *Inst) IsUncondJump() bool { return in.Op == OpBr && in.Guard == P0 }

// IsMem reports whether the instruction accesses data memory.
func (in *Inst) IsMem() bool { return in.Op == OpLoad || in.Op == OpStore }

// WritesInt reports whether the instruction writes an integer register
// (when its guard is true).
func (in *Inst) WritesInt() bool {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpMovI, OpMov, OpLoad, OpCall:
		return in.Dst != R0
	}
	return false
}

// WritesPred reports whether the instruction writes a predicate
// register (when its guard is true).
func (in *Inst) WritesPred() bool {
	switch in.Op {
	case OpCmp, OpPSet, OpPOr, OpPAnd, OpPNot:
		return in.PDst != PNone && in.PDst != P0 ||
			in.PDst2 != PNone && in.PDst2 != P0
	}
	return false
}

// ReadsPredSrcs returns the predicate registers the instruction reads as
// explicit sources (not counting the guard). The second return reports
// how many are valid (0, 1 or 2).
func (in *Inst) ReadsPredSrcs() ([2]PReg, int) {
	switch in.Op {
	case OpPOr, OpPAnd:
		return [2]PReg{in.PSrc1, in.PSrc2}, 2
	case OpPNot:
		return [2]PReg{in.PSrc1}, 1
	}
	return [2]PReg{}, 0
}

// IntSrcs returns the integer registers the instruction reads. The
// second return reports how many are valid.
func (in *Inst) IntSrcs() ([2]Reg, int) {
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		if in.UseImm {
			return [2]Reg{in.Src1}, 1
		}
		return [2]Reg{in.Src1, in.Src2}, 2
	case OpCmp:
		if in.UseImm {
			return [2]Reg{in.Src1}, 1
		}
		return [2]Reg{in.Src1, in.Src2}, 2
	case OpMov, OpJmpInd, OpRet:
		return [2]Reg{in.Src1}, 1
	case OpLoad:
		return [2]Reg{in.Src1}, 1
	case OpStore:
		return [2]Reg{in.Src1, in.Src2}, 2
	}
	return [2]Reg{}, 0
}

// EvalCmp applies the comparison condition to two values.
func EvalCmp(cc CmpCond, a, b int64) bool {
	switch cc {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	panic(fmt.Sprintf("isa: bad compare condition %d", cc))
}

// EvalALU applies an integer ALU opcode to two operands.
func EvalALU(op Op, a, b int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpRem:
		if b == 0 {
			return 0
		}
		return a % b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (uint64(b) & 63)
	case OpShr:
		return a >> (uint64(b) & 63)
	}
	panic(fmt.Sprintf("isa: bad ALU opcode %d", op))
}

// Valid performs a structural sanity check on the instruction and
// returns an error describing the first problem found.
func (in *Inst) Valid() error {
	if in.Op >= numOps {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.Guard >= NumPredRegs {
		return fmt.Errorf("isa: guard predicate p%d out of range", in.Guard)
	}
	if in.Op == OpCmp && in.CC >= numCmpConds {
		return fmt.Errorf("isa: invalid compare condition %d", in.CC)
	}
	if in.WritesPred() {
		if in.PDst != PNone && in.PDst >= NumPredRegs {
			return fmt.Errorf("isa: predicate destination p%d out of range", in.PDst)
		}
		if in.PDst2 != PNone && in.PDst2 >= NumPredRegs {
			return fmt.Errorf("isa: predicate destination p%d out of range", in.PDst2)
		}
	}
	if ps, n := in.ReadsPredSrcs(); n > 0 {
		for i := 0; i < n; i++ {
			if ps[i] >= NumPredRegs {
				return fmt.Errorf("isa: predicate source p%d out of range", ps[i])
			}
		}
	}
	if in.Dst >= NumIntRegs || in.Src1 >= NumIntRegs || in.Src2 >= NumIntRegs {
		return fmt.Errorf("isa: integer register out of range in %v", in)
	}
	if in.IsBranch() && in.Op != OpJmpInd && in.Op != OpRet && in.Target < 0 {
		return fmt.Errorf("isa: unresolved branch target in %v", in)
	}
	return nil
}
