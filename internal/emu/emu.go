package emu

import (
	"fmt"

	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// Step describes the architectural effect of executing one µop. The
// timing simulator consumes Steps to learn branch outcomes, predicate
// values, and memory addresses.
type Step struct {
	PC        int       // µop index executed
	Inst      *isa.Inst // the executed instruction (into Prog.Code); nil on the post-halt step
	GuardTrue bool      // value of the qualifying predicate at execution
	Taken     bool      // for branches: whether control transferred
	NextPC    int       // µop index of the next instruction
	Addr      uint64    // effective address for loads/stores (if GuardTrue)
	Value     int64     // value loaded, stored, or written to Dst
	Halted    bool      // instruction was HALT (and guard was true)
}

// State is committed architectural state plus the program being run.
type State struct {
	Prog   *prog.Program
	Regs   [isa.NumIntRegs]int64
	Preds  [isa.NumPredRegs]bool
	Mem    *Memory
	PC     int
	Halted bool
}

// New returns a fresh state for the program with zeroed registers and
// empty memory, positioned at the program entry.
func New(p *prog.Program) *State {
	s := &State{Prog: p, Mem: NewMemory(), PC: p.Entry}
	s.Preds[isa.P0] = true
	return s
}

// Step executes the µop at PC and advances. Calling Step on a halted
// state returns a zero Step with Halted set.
func (s *State) Step() Step {
	var st Step
	s.StepInto(&st)
	return st
}

// StepInto is Step with an out-parameter: the result is written into
// *st instead of returned. The timing simulator's fetch loop uses this
// form — one Step per fetched µop flows through two call layers, and
// writing it in place removes both by-value copies from the hot path.
func (s *State) StepInto(st *Step) {
	if s.Halted {
		*st = Step{PC: s.PC, Halted: true}
		return
	}
	if s.PC < 0 || s.PC >= len(s.Prog.Code) {
		panic(fmt.Sprintf("emu: PC %d out of range [0,%d)", s.PC, len(s.Prog.Code)))
	}
	exec(st, &s.Regs, &s.Preds, s.Mem, nil, s.Prog, s.PC, nil)
	s.PC = st.NextPC
	if st.Halted {
		s.Halted = true
	}
}

// StepForced executes the µop at PC, which must be a conditional branch
// (OpBr), forcing its direction to taken/not-taken regardless of the
// guard value. This is how the timing simulator models low-confidence
// wish-branch fetch: the predicated binary makes both directions
// architecturally equivalent, so the emulator follows the direction the
// front end chose. The returned Step's GuardTrue still reports the real
// guard value (the branch's actual direction) so the caller can detect
// mispredictions; Taken reports the forced direction actually followed.
func (s *State) StepForced(taken bool) Step {
	var st Step
	s.StepForcedInto(&st, taken)
	return st
}

// StepForcedInto is StepForced with an out-parameter (see StepInto).
func (s *State) StepForcedInto(st *Step, taken bool) {
	if s.Halted {
		*st = Step{PC: s.PC, Halted: true}
		return
	}
	in := &s.Prog.Code[s.PC]
	if in.Op != isa.OpBr {
		panic(fmt.Sprintf("emu: StepForced on non-branch %v at %d", in, s.PC))
	}
	exec(st, &s.Regs, &s.Preds, s.Mem, nil, s.Prog, s.PC, &taken)
	s.PC = st.NextPC
}

// PeekBranch returns, without executing, whether the conditional branch
// at PC would be taken given current architectural state. It panics if
// the µop at PC is not an OpBr.
func (s *State) PeekBranch() bool {
	in := &s.Prog.Code[s.PC]
	if in.Op != isa.OpBr {
		panic(fmt.Sprintf("emu: PeekBranch on non-branch %v at %d", in, s.PC))
	}
	return predOf(&s.Preds, in.Guard)
}

// Run executes until HALT or maxInsts µops (0 = no limit). It returns
// the number of µops executed and an error if the limit was hit before
// HALT.
func (s *State) Run(maxInsts uint64) (uint64, error) {
	var n uint64
	for !s.Halted {
		if maxInsts > 0 && n >= maxInsts {
			return n, fmt.Errorf("emu: instruction limit %d reached at pc %d", maxInsts, s.PC)
		}
		s.Step()
		n++
	}
	return n, nil
}

// exec interprets the µop at pc against an execution context given as
// concrete pieces: the register file, the predicate file, the committed
// memory, and — for wrong-path (Shadow) execution — a non-nil store
// overlay that captures stores and services loads first. Passing the
// pieces directly instead of an interface keeps every register and
// predicate access an inlinable array index; the interpreter is the
// hottest loop in the simulator and interface dispatch here was a
// measurable fraction of whole-campaign time. forced, if non-nil,
// fixes the direction of an OpBr. The result is written into *st.
func exec(st *Step, regs *[isa.NumIntRegs]int64, preds *[isa.NumPredRegs]bool,
	mem *Memory, overlay map[uint64]int64, p *prog.Program, pc int, forced *bool) {
	in := &p.Code[pc]
	*st = Step{PC: pc, Inst: in, NextPC: pc + 1}
	st.GuardTrue = in.Guard == isa.P0 || preds[in.Guard]

	// Branches: the guard is the condition, not a NOP guard.
	if in.Op == isa.OpBr {
		dir := st.GuardTrue
		if forced != nil {
			dir = *forced
		}
		st.Taken = dir
		if dir {
			st.NextPC = in.Target
		}
		return
	}

	if !st.GuardTrue {
		// Guarded-false non-branch: architectural NOP.
		return
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		st.Halted = true
		st.NextPC = pc
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		b := regOf(regs, in.Src2)
		if in.UseImm {
			b = in.Imm
		}
		st.Value = isa.EvalALU(in.Op, regOf(regs, in.Src1), b)
		setRegOf(regs, in.Dst, st.Value)
	case isa.OpMovI:
		st.Value = in.Imm
		setRegOf(regs, in.Dst, in.Imm)
	case isa.OpMov:
		st.Value = regOf(regs, in.Src1)
		setRegOf(regs, in.Dst, st.Value)
	case isa.OpCmp:
		b := regOf(regs, in.Src2)
		if in.UseImm {
			b = in.Imm
		}
		r := isa.EvalCmp(in.CC, regOf(regs, in.Src1), b)
		setPredOf(preds, in.PDst, r)
		if in.PDst2 != isa.PNone {
			setPredOf(preds, in.PDst2, !r)
		}
		if r {
			st.Value = 1
		}
	case isa.OpPSet:
		setPredOf(preds, in.PDst, in.Imm != 0)
		st.Value = in.Imm
	case isa.OpPOr:
		setPredOf(preds, in.PDst, predOf(preds, in.PSrc1) || predOf(preds, in.PSrc2))
	case isa.OpPAnd:
		setPredOf(preds, in.PDst, predOf(preds, in.PSrc1) && predOf(preds, in.PSrc2))
	case isa.OpPNot:
		setPredOf(preds, in.PDst, !predOf(preds, in.PSrc1))
	case isa.OpLoad:
		st.Addr = uint64(regOf(regs, in.Src1) + in.Imm)
		if overlay != nil {
			if v, ok := overlay[st.Addr>>3]; ok {
				st.Value = v
			} else {
				st.Value = mem.Load(st.Addr)
			}
		} else {
			st.Value = mem.Load(st.Addr)
		}
		setRegOf(regs, in.Dst, st.Value)
	case isa.OpStore:
		st.Addr = uint64(regOf(regs, in.Src1) + in.Imm)
		st.Value = regOf(regs, in.Src2)
		if overlay != nil {
			overlay[st.Addr>>3] = st.Value
		} else {
			mem.Store(st.Addr, st.Value)
		}
	case isa.OpJmpInd:
		st.Taken = true
		st.NextPC = targetIndex(regOf(regs, in.Src1))
	case isa.OpCall:
		st.Taken = true
		st.Value = int64(prog.Addr(pc + 1))
		setRegOf(regs, in.Dst, st.Value)
		st.NextPC = in.Target
	case isa.OpRet:
		st.Taken = true
		st.NextPC = targetIndex(regOf(regs, in.Src1))
	default:
		panic(fmt.Sprintf("emu: unimplemented opcode %v at %d", in.Op, pc))
	}
}

// regOf/setRegOf/predOf/setPredOf are the R0/P0 hardwiring rules as
// free functions over the raw files, so exec's accesses inline.
func regOf(regs *[isa.NumIntRegs]int64, r isa.Reg) int64 {
	if r == isa.R0 {
		return 0
	}
	return regs[r]
}

func setRegOf(regs *[isa.NumIntRegs]int64, r isa.Reg, v int64) {
	if r != isa.R0 {
		regs[r] = v
	}
}

func predOf(preds *[isa.NumPredRegs]bool, p isa.PReg) bool {
	if p == isa.P0 {
		return true
	}
	return preds[p]
}

func setPredOf(preds *[isa.NumPredRegs]bool, p isa.PReg, v bool) {
	if p != isa.P0 && p != isa.PNone {
		preds[p] = v
	}
}

// targetIndex converts a byte address held in a register to a µop
// index; indirect jumps to garbage addresses land on index 0, which the
// timing model treats like any other (mispredicted) control transfer.
func targetIndex(addr int64) int {
	if i := prog.Index(uint64(addr)); i >= 0 {
		return i
	}
	return 0
}
