package prog

import (
	"fmt"
	"strconv"
	"strings"

	"wishbranch/internal/isa"
)

// Parse assembles the textual µop syntax produced by Disassemble (and
// by isa.Inst.String) back into a Program. It accepts:
//
//	LABEL:                      — label definition
//	12  add r1 = r2, r3         — optional leading µop index (ignored)
//	(p1) sub r4 = r5, 9         — guard prefix
//	cmp.lt p1, p2 = r3, r4      — compares, paired or single destination
//	br p2, LOOP                 — branch to a label or absolute index
//	wish.loop p1, LOOP          — wish branches
//	; comment / # comment       — ignored to end of line
//
// so Parse(p.Disassemble()) round-trips any program.
func Parse(src string) (*Program, error) {
	b := NewBuilder()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Label definition?
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
			b.Label(strings.TrimSuffix(line, ":"))
			continue
		}
		// Optional leading µop index from Disassemble output.
		if f := strings.Fields(line); len(f) > 1 {
			if _, err := strconv.Atoi(f[0]); err == nil {
				line = strings.TrimSpace(line[strings.Index(line, f[0])+len(f[0]):])
			}
		}
		if err := parseInst(b, line); err != nil {
			return nil, fmt.Errorf("prog: line %d: %q: %w", lineNo+1, raw, err)
		}
	}
	return b.Finish()
}

func stripComment(line string) string {
	for _, c := range []string{";", "#", "//"} {
		if i := strings.Index(line, c); i >= 0 {
			line = line[:i]
		}
	}
	return line
}

func parseInst(b *Builder, line string) error {
	guard := isa.P0
	if strings.HasPrefix(line, "(") {
		end := strings.Index(line, ")")
		if end < 0 {
			return fmt.Errorf("unterminated guard")
		}
		p, err := parsePReg(strings.TrimSpace(line[1:end]))
		if err != nil {
			return err
		}
		guard = p
		line = strings.TrimSpace(line[end+1:])
	}

	mnemonic, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	emit := func(in isa.Inst) {
		in.Guard = guard
		b.Emit(in)
	}

	switch {
	case mnemonic == "nop":
		emit(isa.Nop())
		return nil
	case mnemonic == "halt":
		emit(isa.Halt())
		return nil
	case mnemonic == "jmp":
		return emitBranch(b, isa.BNormal, 0, isa.P0, rest, false)
	case mnemonic == "br":
		p, target, err := splitCondTarget(rest)
		if err != nil {
			return err
		}
		return emitBranchTo(b, isa.BNormal, 0, p, target)
	case strings.HasPrefix(mnemonic, "wish."):
		var wt isa.WType
		switch strings.TrimPrefix(mnemonic, "wish.") {
		case "jump":
			wt = isa.WJump
		case "loop":
			wt = isa.WLoop
		case "join":
			wt = isa.WJoin
		default:
			return fmt.Errorf("unknown wish type %q", mnemonic)
		}
		p, target, err := splitCondTarget(rest)
		if err != nil {
			return err
		}
		return emitBranchTo(b, isa.BWish, wt, p, target)
	case mnemonic == "call":
		// call TARGET, rLINK
		parts := splitList(rest)
		if len(parts) != 2 {
			return fmt.Errorf("call wants 'target, link'")
		}
		lr, err := parseReg(parts[1])
		if err != nil {
			return err
		}
		if idx, err := strconv.Atoi(parts[0]); err == nil {
			in := isa.Call(idx)
			in.Dst = lr
			emit(in)
			return nil
		}
		b.CallL(parts[0])
		b.code[len(b.code)-1].Dst = lr
		b.code[len(b.code)-1].Guard = guard
		return nil
	case mnemonic == "ret":
		r, err := parseReg(rest)
		if err != nil {
			return err
		}
		in := isa.Ret()
		in.Src1 = r
		emit(in)
		return nil
	case mnemonic == "jmpi":
		r, err := parseReg(rest)
		if err != nil {
			return err
		}
		emit(isa.Inst{Op: isa.OpJmpInd, Src1: r, PDst: isa.PNone, PDst2: isa.PNone})
		return nil
	case strings.HasPrefix(mnemonic, "cmp."):
		return parseCmp(emit, mnemonic, rest)
	case mnemonic == "ld":
		// ld rD = [rB+off]
		dst, addr, err := splitAssign(rest)
		if err != nil {
			return err
		}
		d, err := parseReg(dst)
		if err != nil {
			return err
		}
		base, off, err := parseMem(addr)
		if err != nil {
			return err
		}
		emit(isa.Load(d, base, off))
		return nil
	case mnemonic == "st":
		// st [rB+off] = rV
		addr, val, err := splitAssign(rest)
		if err != nil {
			return err
		}
		base, off, err := parseMem(addr)
		if err != nil {
			return err
		}
		v, err := parseReg(val)
		if err != nil {
			return err
		}
		emit(isa.Store(base, off, v))
		return nil
	case mnemonic == "movi":
		dst, val, err := splitAssign(rest)
		if err != nil {
			return err
		}
		d, err := parseReg(dst)
		if err != nil {
			return err
		}
		imm, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return err
		}
		emit(isa.MovI(d, imm))
		return nil
	case mnemonic == "mov":
		dst, srcs, err := splitAssign(rest)
		if err != nil {
			return err
		}
		d, err := parseReg(dst)
		if err != nil {
			return err
		}
		s, err := parseReg(srcs)
		if err != nil {
			return err
		}
		emit(isa.Mov(d, s))
		return nil
	case mnemonic == "pset":
		dst, val, err := splitAssign(rest)
		if err != nil {
			return err
		}
		pd, err := parsePReg(dst)
		if err != nil {
			return err
		}
		imm, err := strconv.ParseInt(val, 0, 64)
		if err != nil {
			return err
		}
		emit(isa.PSet(pd, imm))
		return nil
	case mnemonic == "por" || mnemonic == "pand":
		dst, srcs, err := splitAssign(rest)
		if err != nil {
			return err
		}
		pd, err := parsePReg(dst)
		if err != nil {
			return err
		}
		parts := splitList(srcs)
		if len(parts) != 2 {
			return fmt.Errorf("%s wants two predicate sources", mnemonic)
		}
		p1, err := parsePReg(parts[0])
		if err != nil {
			return err
		}
		p2, err := parsePReg(parts[1])
		if err != nil {
			return err
		}
		if mnemonic == "por" {
			emit(isa.POr(pd, p1, p2))
		} else {
			emit(isa.PAnd(pd, p1, p2))
		}
		return nil
	case mnemonic == "pnot":
		dst, srcs, err := splitAssign(rest)
		if err != nil {
			return err
		}
		pd, err := parsePReg(dst)
		if err != nil {
			return err
		}
		ps, err := parsePReg(srcs)
		if err != nil {
			return err
		}
		emit(isa.PNot(pd, ps))
		return nil
	}

	// Integer ALU operations.
	op, ok := aluOps[mnemonic]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	dst, srcs, err := splitAssign(rest)
	if err != nil {
		return err
	}
	d, err := parseReg(dst)
	if err != nil {
		return err
	}
	parts := splitList(srcs)
	if len(parts) != 2 {
		return fmt.Errorf("%s wants two operands", mnemonic)
	}
	s1, err := parseReg(parts[0])
	if err != nil {
		return err
	}
	if imm, ierr := strconv.ParseInt(parts[1], 0, 64); ierr == nil {
		emit(isa.ALUI(op, d, s1, imm))
		return nil
	}
	s2, err := parseReg(parts[1])
	if err != nil {
		return err
	}
	emit(isa.ALU(op, d, s1, s2))
	return nil
}

var aluOps = map[string]isa.Op{
	"add": isa.OpAdd, "sub": isa.OpSub, "mul": isa.OpMul, "div": isa.OpDiv,
	"rem": isa.OpRem, "and": isa.OpAnd, "or": isa.OpOr, "xor": isa.OpXor,
	"shl": isa.OpShl, "shr": isa.OpShr,
}

var cmpCCs = map[string]isa.CmpCond{
	"eq": isa.CmpEQ, "ne": isa.CmpNE, "lt": isa.CmpLT,
	"le": isa.CmpLE, "gt": isa.CmpGT, "ge": isa.CmpGE,
}

func parseCmp(emit func(isa.Inst), mnemonic, rest string) error {
	cc, ok := cmpCCs[strings.TrimPrefix(mnemonic, "cmp.")]
	if !ok {
		return fmt.Errorf("unknown compare %q", mnemonic)
	}
	dsts, srcs, err := splitAssign(rest)
	if err != nil {
		return err
	}
	dparts := splitList(dsts)
	pd, err := parsePReg(dparts[0])
	if err != nil {
		return err
	}
	pd2 := isa.PNone
	if len(dparts) == 2 {
		if pd2, err = parsePReg(dparts[1]); err != nil {
			return err
		}
	}
	sparts := splitList(srcs)
	if len(sparts) != 2 {
		return fmt.Errorf("cmp wants two operands")
	}
	a, err := parseReg(sparts[0])
	if err != nil {
		return err
	}
	if imm, ierr := strconv.ParseInt(sparts[1], 0, 64); ierr == nil {
		emit(isa.CmpI(cc, pd, pd2, a, imm))
		return nil
	}
	bReg, err := parseReg(sparts[1])
	if err != nil {
		return err
	}
	emit(isa.Cmp(cc, pd, pd2, a, bReg))
	return nil
}

func emitBranch(b *Builder, bt isa.BType, wt isa.WType, guard isa.PReg, target string, _ bool) error {
	return emitBranchTo(b, bt, wt, guard, target)
}

func emitBranchTo(b *Builder, bt isa.BType, wt isa.WType, guard isa.PReg, target string) error {
	if idx, err := strconv.Atoi(target); err == nil {
		in := isa.Br(guard, idx)
		in.BType = bt
		in.WType = wt
		b.Emit(in)
		return nil
	}
	if bt == isa.BWish {
		b.WishL(wt, guard, target)
	} else {
		b.BrL(guard, target)
	}
	return nil
}

func splitCondTarget(rest string) (isa.PReg, string, error) {
	parts := splitList(rest)
	if len(parts) != 2 {
		return 0, "", fmt.Errorf("branch wants 'pN, target'")
	}
	p, err := parsePReg(parts[0])
	if err != nil {
		return 0, "", err
	}
	return p, parts[1], nil
}

func splitAssign(s string) (lhs, rhs string, err error) {
	lhs, rhs, ok := strings.Cut(s, "=")
	if !ok {
		return "", "", fmt.Errorf("missing '='")
	}
	return strings.TrimSpace(lhs), strings.TrimSpace(rhs), nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseReg(s string) (isa.Reg, error) {
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumIntRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func parsePReg(s string) (isa.PReg, error) {
	if !strings.HasPrefix(s, "p") {
		return 0, fmt.Errorf("bad predicate register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumPredRegs {
		return 0, fmt.Errorf("bad predicate register %q", s)
	}
	return isa.PReg(n), nil
}

// parseMem parses "[rB+off]" or "[rB-off]".
func parseMem(s string) (isa.Reg, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner[1:], "+-")
	if sep < 0 {
		r, err := parseReg(inner)
		return r, 0, err
	}
	sep++
	r, err := parseReg(inner[:sep])
	if err != nil {
		return 0, 0, err
	}
	off, err := strconv.ParseInt(inner[sep:], 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad offset in %q", s)
	}
	return r, off, nil
}
