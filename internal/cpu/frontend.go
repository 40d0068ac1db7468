package cpu

import (
	"fmt"

	"wishbranch/internal/bpred"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/obs"
	"wishbranch/internal/prog"
)

// fetch models the front end: up to FetchWidth µops per cycle, at most
// MaxCondBrPerCycle conditional branches, ending at the first
// predicted-taken branch (Table 2). The functional emulator advances in
// fetch order; after a detected misprediction a forked shadow walks the
// wrong path until the flush.
func (c *CPU) fetch() {
	if c.fetchHalted || c.cycle < c.nextFetch {
		return
	}
	budget := c.cfg.FetchWidth
	condBudget := c.cfg.MaxCondBrPerCycle
	for budget > 0 && condBudget > 0 {
		if c.fqCount >= len(c.fq) {
			return
		}
		var pc int
		if c.shadow != nil {
			if c.shadow.Halted() {
				return // wrong path ran off the program; stall until flush
			}
			pc = c.shadow.PC()
			if pc < 0 || pc >= len(c.prog.Code) {
				return
			}
		} else {
			if c.st.Halted {
				c.fetchHalted = true
				return
			}
			pc = c.st.PC
		}

		// Exiting a low-confidence wish jump/join region: the region's
		// target has been fetched (Figure 8 "target fetched").
		if c.mode == ModeLow && c.lowConfTarget >= 0 && pc >= c.lowConfTarget {
			c.lowConfTarget = -1
			if c.lowConfLoopPC < 0 {
				c.mode = ModeNormal
			}
		}

		// I-cache: stall fetch when the line misses.
		if line := prog.Addr(pc)>>6 + 1; line != c.curLine {
			ready := c.hier.AccessI(prog.Addr(pc), c.cycle)
			c.curLine = line
			if ready > c.cycle+uint64(c.cfg.Caches.L1I.Latency) {
				c.nextFetch = ready
				return
			}
		}

		inst := &c.code[pc]
		id, u := c.newUop()
		u.seq, u.pc = c.seq, pc
		u.wrongPath = c.shadow != nil
		c.seq++

		endGroup := false
		if inst.IsBranch() {
			if inst.IsCondBranch() {
				condBudget--
			}
			endGroup = c.fetchBranch(u, inst)
		} else {
			var stp emu.Step
			if c.shadow != nil {
				c.shadow.StepInto(&stp)
			} else {
				c.st.StepInto(&stp)
			}
			u.guardVal = stp.GuardTrue
			u.addr = stp.Addr
			if inst.Op == isa.OpHalt && c.shadow == nil {
				c.fetchHalted = true
				endGroup = true
			}
			// Predicate dependency elimination: record a hit before any
			// redefinition by this very instruction (§3.5.3).
			if g := inst.Guard; g != isa.P0 && g < isa.NumPredRegs {
				if c.elimValid[g] {
					u.predElim = true
					u.predElimVal = c.elimVal[g]
				}
			}
			if inst.WritesPred() {
				c.elimInvalidate(inst)
				c.notePredPair(inst)
			}
			// NO-FETCH oracle: predicated-false µops are ideally removed
			// and consume no fetch, window, or execution resources.
			if c.shadow == nil && c.cfg.NoFalseFetch && !stp.GuardTrue && inst.Op != isa.OpHalt {
				c.freeUop(id) // never entered any queue; no references exist
				continue
			}
		}

		c.res.FetchedUops++
		if c.ring != nil {
			var arg uint64
			if u.wrongPath {
				arg = 1
			}
			c.ring.Record(obs.Event{Cycle: c.cycle, Seq: u.seq, PC: u.pc, Kind: obs.EvFetch, Arg: arg})
		}
		u.dispReady = c.cycle + uint64(c.cfg.FrontEndDepth)
		c.fqPush(id)
		budget--
		if endGroup {
			return
		}
	}
}

// fetchBranch handles all control-transfer µops at fetch. It steps the
// emulator (or shadow), consults the predictors, runs the wish-branch
// mode machine, and starts wrong-path fetch on a detected
// misprediction. It reports whether the fetch group ends.
func (c *CPU) fetchBranch(u *uop, inst *isa.Inst) bool {
	var scratch emu.Step // discarded architectural effects
	pc64 := prog.Addr(u.pc)
	wrong := c.shadow != nil
	btbHit := c.btb.Lookup(pc64)

	bubble := false
	switch inst.Op {
	case isa.OpCall:
		u.takenFetch, u.actualTaken, u.guardVal = true, true, true
		if wrong {
			c.shadow.StepInto(&scratch)
		} else {
			c.st.StepInto(&scratch)
			c.ras.Push(u.pc + 1)
		}
		bubble = !btbHit

	case isa.OpRet:
		u.takenFetch, u.actualTaken, u.guardVal = true, true, true
		if wrong {
			c.shadow.StepInto(&scratch)
		} else {
			predTarget := c.ras.Pop()
			u.hist = c.bp.Hist()
			var stp emu.Step
			c.st.StepInto(&stp)
			u.flushPC = stp.NextPC
			if predTarget != stp.NextPC {
				c.startWrongPath(u, predTarget, stp.NextPC)
			}
		}
		bubble = !btbHit

	case isa.OpJmpInd:
		u.takenFetch, u.actualTaken, u.guardVal = true, true, true
		if wrong {
			c.shadow.StepInto(&scratch)
		} else {
			u.hist = c.bp.Hist()
			if c.itc == nil {
				// Built on first use: most programs have no indirect jump,
				// and the cache is the largest table a CPU would otherwise
				// fill at construction.
				c.itc = bpred.NewIndirectCache(c.cfg.IndirectEntries)
			}
			predTarget, ok := c.itc.Lookup(pc64, u.hist)
			var stp emu.Step
			c.st.StepInto(&stp)
			u.flushPC = stp.NextPC
			if !ok {
				predTarget = u.pc + 1 // no prediction: fall through until resolve
			}
			// Fold a bit of the predicted target into the path history so
			// target-correlated patterns (alternating jump-table cases)
			// are separable by history-indexed structures; a flush
			// repairs it with the actual target's bit.
			c.bp.Repair(u.hist, targetBit(predTarget))
			if predTarget != stp.NextPC {
				c.startWrongPath(u, predTarget, stp.NextPC)
			}
		}
		bubble = !btbHit

	case isa.OpBr:
		if inst.Guard == isa.P0 {
			// Unconditional direct branch.
			u.takenFetch, u.actualTaken, u.guardVal = true, true, true
			if wrong {
				c.shadow.StepForcedInto(&scratch, true)
			} else {
				c.st.StepInto(&scratch)
			}
			bubble = !btbHit
		} else if wrong {
			c.fetchCondWrong(u)
		} else {
			c.fetchCondCorrect(u, inst)
			if u.takenFetch && !btbHit {
				bubble = true
			}
		}

	default:
		panic(fmt.Sprintf("cpu: unexpected branch op %v", inst.Op))
	}

	c.btb.Insert(pc64)
	u.rasTop, u.rasVal = c.ras.Snapshot()
	if bubble {
		c.res.BTBMissBubbles++
		if next := c.cycle + uint64(c.cfg.BTBMissPenalty); next > c.nextFetch {
			c.nextFetch = next
		}
	}
	return u.takenFetch || bubble
}

// fetchCondCorrect handles a conditional branch fetched on the correct
// path: normal branches and all three wish-branch types.
func (c *CPU) fetchCondCorrect(u *uop, inst *isa.Inst) {
	pc64 := prog.Addr(u.pc)
	u.isCond = true
	u.hist = c.bp.Hist()
	u.pred = c.bp.Lookup(pc64)
	u.predValid = true
	predDir := u.pred.Taken
	if c.lp != nil && inst.Target <= u.pc {
		if t, ok := c.lp.Lookup(pc64); ok {
			predDir = t
		}
	}
	actual := c.st.PeekBranch()
	u.actualTaken = actual
	u.guardVal = actual
	if actual {
		u.flushPC = inst.Target
	} else {
		u.flushPC = u.pc + 1
	}
	if c.cfg.PerfectBP {
		predDir = actual
	}
	u.dirPred = predDir

	if inst.IsWish() && !c.cfg.PerfectBP {
		c.fetchWish(u, inst, predDir, actual)
		return
	}

	// Normal conditional branch (or PERFECT-CBP).
	u.takenFetch = predDir
	var scratch emu.Step
	if predDir == actual {
		c.st.StepInto(&scratch)
		return
	}
	c.st.StepInto(&scratch) // the emulator follows the architecturally correct path
	wrongPC := u.pc + 1
	if predDir {
		wrongPC = inst.Target
	}
	c.startWrongPath(u, wrongPC, u.flushPC)
}

// fetchWish applies the wish-branch semantics of §3.1–§3.2 and the
// Figure 8 mode machine to a correct-path wish branch.
func (c *CPU) fetchWish(u *uop, inst *isa.Inst, predDir, actual bool) {
	var scratch emu.Step // discarded architectural effects
	pc64 := prog.Addr(u.pc)
	wt := inst.WType

	// Confidence. Inside a low-confidence region the cascade rule of
	// Table 1 applies: following wish joins are forced not-taken without
	// consulting the estimator; a wish loop that put the front end in
	// low-confidence mode stays there until the loop exits.
	var high bool
	switch {
	case c.mode == ModeLow && c.lowConfTarget >= 0 && (wt == isa.WJoin || wt == isa.WJump):
		high = false
	case c.mode == ModeLow && wt == isa.WLoop && c.lowConfLoopPC == u.pc:
		high = false
	default:
		if c.cfg.PerfectConfidence {
			high = predDir == actual
		} else {
			high = c.jrs.Lookup(pc64, u.hist)
		}
	}
	u.highConf = high

	if wt == isa.WLoop {
		u.loopGen = c.loopGen[u.pc]
		defer func() {
			if !u.takenFetch {
				c.loopGen[u.pc]++ // the front end leaves the loop
			}
		}()
	}

	if high {
		c.mode = ModeHigh
		// Predicate dependency elimination (§3.5.3): the wish branch's
		// source predicate (and its complement partner from the defining
		// compare) are predicted so dependent predicated instructions
		// need not wait.
		c.elimSet(inst.Guard, predDir)
		u.takenFetch = predDir
		if wt == isa.WLoop {
			c.lastLoopPred[u.pc] = predDir
		}
		if predDir == actual {
			c.st.StepInto(&scratch)
			return
		}
		c.st.StepInto(&scratch)
		wrongPC := u.pc + 1
		if predDir {
			wrongPC = inst.Target
		}
		c.startWrongPath(u, wrongPC, u.flushPC)
		return
	}

	// Low confidence.
	c.mode = ModeLow
	if wt == isa.WJump || wt == isa.WJoin {
		// Forced not-taken: the predicated code executes both paths and
		// no flush is ever needed (§3.1). A low-confidence wish
		// jump/join carries no fetch-direction information (it is always
		// not-taken), so it is excluded from the global history — like
		// an unconditional branch — leaving other branches' history
		// contexts as clean as in the predicated binary, where these
		// branches do not exist. Shifting the predictor's guess instead
		// sprays random bits into the history and measurably degrades
		// every other branch (the interference effect the paper's §3.7
		// calls out).
		u.takenFetch = false
		c.bp.SetHist(u.pred.Hist)
		c.bp.RestoreLocal(prog.Addr(u.pc), u.pred.LHist)
		if inst.Target > c.lowConfTarget {
			c.lowConfTarget = inst.Target
		}
		c.st.StepForcedInto(&scratch, false)
		return
	}

	// Wish loop in low-confidence mode (§3.2): the loop predictor (here
	// the hybrid, optionally a trip-count predictor) steers fetch, and
	// the iterations are predicated.
	c.lowConfLoopPC = u.pc
	u.takenFetch = predDir
	c.lastLoopPred[u.pc] = predDir
	switch {
	case predDir == actual:
		c.st.StepForcedInto(&scratch, predDir)
		if !actual {
			c.exitLowLoop(u.pc)
		}
	case predDir && !actual:
		// Extra iteration: the loop body's predicate is now false, so
		// the fetched iteration flows through as NOPs. Whether this is
		// late-exit or no-exit is classified when the branch resolves.
		u.deferred = true
		c.st.StepForcedInto(&scratch, true)
	default:
		// Early exit: the front end leaves the loop too soon; this is a
		// real misprediction handled like a normal flush.
		u.mispredict = true
		u.loopCls = loopEarly
		c.st.StepInto(&scratch) // actual direction: back to the loop top
		c.startWrongPath(u, u.pc+1, inst.Target)
	}
}

// fetchCondWrong handles conditional branches on the wrong path: the
// predictor still steers fetch (keeping speculative history realistic),
// and the shadow emulator is forced in that direction. No misprediction
// bookkeeping: everything here will be squashed.
func (c *CPU) fetchCondWrong(u *uop) {
	u.isCond = true
	u.hist = c.bp.Hist()
	u.pred = c.bp.Lookup(pc64Of(u))
	predDir := u.pred.Taken
	u.dirPred = predDir
	u.takenFetch = predDir
	var stp emu.Step
	c.shadow.StepForcedInto(&stp, predDir)
	u.actualTaken = stp.GuardTrue
	u.guardVal = stp.GuardTrue
}

func pc64Of(u *uop) uint64 { return prog.Addr(u.pc) }

// targetBit reduces an indirect-branch target to the single bit folded
// into the path history.
func targetBit(target int) bool {
	b := target ^ target>>3 ^ target>>7
	return b&1 == 1
}

// startWrongPath begins wrong-path fetch after detecting that the
// branch u was mispredicted: fetch continues at wrongPC on a forked
// shadow state while the committed emulator (already stepped down the
// correct path) waits at actualPC for the flush.
func (c *CPU) startWrongPath(u *uop, wrongPC, actualPC int) {
	if c.pendingFlush {
		panic("cpu: nested correct-path misprediction")
	}
	u.mispredict = true
	u.flushPC = actualPC
	c.pendingFlush = true
	if c.shadowBuf == nil {
		c.shadowBuf = new(emu.Shadow)
	}
	c.st.ForkInto(c.shadowBuf, wrongPC)
	c.shadow = c.shadowBuf
}

// exitLowLoop leaves low-confidence loop mode when the loop exits
// (Figure 8 "wish loop is exited").
func (c *CPU) exitLowLoop(pc int) {
	if c.lowConfLoopPC == pc {
		c.lowConfLoopPC = -1
		if c.lowConfTarget < 0 {
			c.mode = ModeNormal
		}
	}
}

// elimSet installs the wish branch's predicted predicate value in the
// elimination buffer, along with the complement register if the
// predicate was produced by a paired compare (IA-64 style cmp writing
// p,!p), which the wish jump/join code of Figure 3 relies on.
func (c *CPU) elimSet(p isa.PReg, val bool) {
	if p == isa.P0 || p >= isa.NumPredRegs {
		return
	}
	c.elimValid[p], c.elimVal[p] = true, val
	if q := c.predPair[p]; q != isa.P0 && q < isa.NumPredRegs {
		c.elimValid[q], c.elimVal[q] = true, !val
	}
}

// elimInvalidate clears buffer entries for predicates redefined by a
// newly decoded instruction (§3.5.3 reset rule).
func (c *CPU) elimInvalidate(in *isa.Inst) {
	if in.PDst != isa.PNone && in.PDst < isa.NumPredRegs {
		c.elimValid[in.PDst] = false
	}
	if in.PDst2 != isa.PNone && in.PDst2 < isa.NumPredRegs {
		c.elimValid[in.PDst2] = false
	}
}

// notePredPair records complement pairing from compares that write a
// predicate and its complement.
func (c *CPU) notePredPair(in *isa.Inst) {
	if in.Op == isa.OpCmp && in.PDst != isa.PNone && in.PDst2 != isa.PNone {
		c.predPair[in.PDst] = in.PDst2
		c.predPair[in.PDst2] = in.PDst
		return
	}
	// Any other write breaks a previously recorded pairing.
	if in.PDst != isa.PNone && in.PDst < isa.NumPredRegs {
		if q := c.predPair[in.PDst]; q != isa.PNone {
			c.predPair[q] = isa.PNone
		}
		c.predPair[in.PDst] = isa.PNone
	}
}
