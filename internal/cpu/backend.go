package cpu

import (
	"fmt"

	"wishbranch/internal/config"
	"wishbranch/internal/isa"
	"wishbranch/internal/obs"
	"wishbranch/internal/prog"
)

// dispatch moves µops from the fetch queue into the window (up to
// FetchWidth per cycle), performing rename-time dependence analysis,
// including the C-style conditional-expression or select-µop treatment
// of predicated instructions (§2.1, §5.3.3).
func (c *CPU) dispatch() {
	for n := 0; n < c.cfg.FetchWidth && c.fqCount > 0; n++ {
		u := c.fqFront()
		if u.dispReady > c.cycle {
			return
		}
		need := 1
		if c.needsSelect(u) {
			need = 2
		}
		if c.robCount+need > len(c.rob) {
			c.acctFull = true
			return
		}
		c.fqPopFront()
		c.rename(u)
	}
}

// needsSelect reports whether dispatching u injects a select µop.
func (c *CPU) needsSelect(u *uop) bool {
	in := u.inst
	if c.cfg.PredMech != config.SelectUop || in.Guard == isa.P0 || in.IsBranch() {
		return false
	}
	if c.cfg.NoPredDepend || c.cfg.NoFalseFetch || u.predElim {
		return false
	}
	return in.WritesInt() || in.WritesPred()
}

// addIntSrcs/addPredSrcs/addLoadDeps/addOldDstDeps record u's register,
// predicate, and memory dependences against the fetch-order writer
// tables. They used to be closures inside rename; as methods the calls
// are direct (and mostly inlined), which matters because rename runs
// once per dispatched µop.
func (c *CPU) addIntSrcs(u *uop, in *isa.Inst) {
	srcs, n := in.IntSrcs()
	for i := 0; i < n; i++ {
		if srcs[i] != isa.R0 {
			u.addDep(c.intWriter[srcs[i]])
		}
	}
}

func (c *CPU) addPredSrcs(u *uop, in *isa.Inst) {
	ps, n := in.ReadsPredSrcs()
	for i := 0; i < n; i++ {
		if ps[i] != isa.P0 {
			u.addDep(c.predWriter[ps[i]])
		}
	}
}

func (c *CPU) addLoadDeps(u *uop, in *isa.Inst) {
	if in.Op != isa.OpLoad {
		return
	}
	if w := c.storeWriter.get(u.addr >> 3); w != nil && !w.squashed && w.seq < u.seq {
		u.fwdStore = true
		u.addDep(w) // store-to-load forwarding once the store executes
	}
}

func (c *CPU) addOldDstDeps(u *uop, in *isa.Inst) {
	if in.WritesInt() {
		u.addDep(c.intWriter[in.Dst])
	}
	if in.WritesPred() {
		if in.PDst != isa.PNone && in.PDst != isa.P0 {
			u.addDep(c.predWriter[in.PDst])
		}
		if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 {
			u.addDep(c.predWriter[in.PDst2])
		}
	}
}

// rename computes u's dependences, updates the fetch-order writer
// tables, allocates window entries, and wakes u if already ready.
func (c *CPU) rename(u *uop) {
	in := u.inst
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Seq: u.seq, PC: u.pc, Kind: obs.EvRename})
	}

	guarded := in.Guard != isa.P0 && !in.IsBranch()
	oracle := c.cfg.NoPredDepend || c.cfg.NoFalseFetch
	var sel *uop

	switch {
	case in.IsBranch():
		if in.Op == isa.OpBr && in.Guard != isa.P0 {
			u.addDep(c.predWriter[in.Guard]) // resolution needs the real predicate
		}
		if in.Op == isa.OpJmpInd || in.Op == isa.OpRet {
			c.addIntSrcs(u, in)
		}
	case guarded && oracle:
		// NO-DEPEND (and NO-FETCH): predicate dependencies ideally
		// removed; a predicated-false µop is a free NOP.
		if u.guardVal {
			c.addIntSrcs(u, in)
			c.addPredSrcs(u, in)
			c.addLoadDeps(u, in)
		}
	case guarded && u.predElim:
		// Predicate dependency elimination hit: the guard is assumed
		// ready with the predicted value (§3.5.3). A mispredicted value
		// is repaired by the wish branch's own flush.
		if u.predElimVal {
			c.addIntSrcs(u, in)
			c.addPredSrcs(u, in)
			c.addLoadDeps(u, in)
		}
	case guarded && c.cfg.PredMech == config.SelectUop &&
		!in.WritesInt() && !in.WritesPred():
		// Guarded µop with no register destination (a predicated store):
		// there is no value to merge, so no select µop — needsSelect
		// reserved a single window slot and a second push here would
		// overflow the window. The store consumes its predicate directly
		// instead: the store buffer cannot release a predicated store
		// until its guard resolves.
		c.addIntSrcs(u, in)
		c.addPredSrcs(u, in)
		c.addLoadDeps(u, in)
		u.addDep(c.predWriter[in.Guard])
	case guarded && c.cfg.PredMech == config.SelectUop:
		// The predicated µop executes without its predicate; the select
		// µop merges old/new values and carries the dependents.
		c.addIntSrcs(u, in)
		c.addPredSrcs(u, in)
		c.addLoadDeps(u, in)
		sel = c.newUop()
		sel.seq, sel.pc, sel.inst, sel.isSelect = u.seq, u.pc, in, true
		sel.wrongPath, sel.guardVal = u.wrongPath, u.guardVal
		sel.addDep(u)
		sel.addDep(c.predWriter[in.Guard])
		if in.WritesInt() {
			sel.addDep(c.intWriter[in.Dst])
		}
		if in.WritesPred() {
			if in.PDst != isa.PNone && in.PDst != isa.P0 {
				sel.addDep(c.predWriter[in.PDst])
			}
			if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 {
				sel.addDep(c.predWriter[in.PDst2])
			}
		}
	case guarded:
		// C-style conditional expression: reads the guard and the old
		// destination value as extra sources; always writes.
		c.addIntSrcs(u, in)
		c.addPredSrcs(u, in)
		c.addLoadDeps(u, in)
		u.addDep(c.predWriter[in.Guard])
		c.addOldDstDeps(u, in)
	default:
		c.addIntSrcs(u, in)
		c.addPredSrcs(u, in)
		c.addLoadDeps(u, in)
	}

	// Writer updates in fetch order. With C-style conversion a guarded
	// instruction always writes its destination, which is exactly what
	// makes renaming work (§2.1); in select-µop mode the select is the
	// architectural writer. A µop known to be predicated-false (oracle
	// knowledge, or a predicted-false predicate in high-confidence mode)
	// is transparent: consumers keep depending on the previous writer,
	// as ideal renaming would arrange.
	if c.updatesWriters(u) {
		writer := u
		if sel != nil {
			writer = sel
		}
		if in.WritesInt() {
			c.intWriter[in.Dst] = writer
		}
		if in.WritesPred() {
			if in.PDst != isa.PNone && in.PDst != isa.P0 {
				c.predWriter[in.PDst] = writer
			}
			if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 {
				c.predWriter[in.PDst2] = writer
			}
		}
	}
	if in.Op == isa.OpStore && u.guardVal {
		c.storeWriter.put(u.addr>>3, u)
	}

	c.robPush(u)
	if u.pendingDeps == 0 {
		c.readyQ.push(u)
	}
	if sel != nil {
		c.robPush(sel)
		if sel.pendingDeps == 0 {
			c.readyQ.push(sel)
		}
	}
}

// updatesWriters reports whether u becomes the rename writer of its
// destinations. False only for µops known not to write: guarded µops
// whose guard is architecturally false under the NO-DEPEND/NO-FETCH
// oracles, or predicted false by the predicate dependency elimination
// buffer.
func (c *CPU) updatesWriters(u *uop) bool {
	in := u.inst
	if in.Guard == isa.P0 || in.IsBranch() {
		return true
	}
	if (c.cfg.NoPredDepend || c.cfg.NoFalseFetch) && !u.guardVal {
		return false
	}
	if u.predElim && !u.predElimVal {
		return false
	}
	return true
}

// issue selects up to IssueWidth ready µops oldest-first and computes
// their completion times.
func (c *CPU) issue() {
	for n := 0; n < c.cfg.IssueWidth && len(c.readyQ) > 0; {
		u := c.readyQ.pop()
		if u.squashed {
			// Defensive: flush compacts the queue, so squashed entries
			// should never surface here.
			continue
		}
		u.doneCycle = c.execute(u)
		if u.doneCycle == c.cycle+1 {
			// Latency-1 fast lane: appended in ascending seq order (the
			// ready queue pops oldest-first), all due next cycle.
			c.nextComp = append(c.nextComp, compEvent{u.doneCycle, u})
		} else {
			c.compQ.push(compEvent{u.doneCycle, u})
		}
		n++
	}
}

// execute returns the completion cycle of u issued this cycle.
func (c *CPU) execute(u *uop) uint64 {
	in := u.inst
	if u.isSelect {
		return c.cycle + 1
	}
	switch in.Op {
	case isa.OpLoad:
		access := u.guardVal
		if c.cfg.PredMech == config.SelectUop && in.Guard != isa.P0 &&
			!u.predElim && !c.cfg.NoPredDepend && !c.cfg.NoFalseFetch {
			// Select-µop predicated loads execute before the predicate
			// is known, so they access the cache regardless.
			access = true
		}
		if !access || u.fwdStore {
			return c.cycle + 1
		}
		return c.hier.AccessD(u.addr, c.cycle+1, false)
	case isa.OpStore:
		return c.cycle + 1 // data written at retire
	default:
		return c.cycle + latency(in.Op)
	}
}

// completions drains finished µops for this cycle, wakes dependents,
// and resolves branches that require recovery decisions, oldest first.
// The resolve batch is a reused scratch slice: a batch entry squashed
// (and therefore pool-recycled) by an older entry's flush is skipped
// via its squashed flag, which stays readable until the pool hands the
// µop out again — reallocation only happens in later pipeline stages.
func (c *CPU) completions() {
	// Merge the latency-1 lane (all due this cycle, ascending seq) with
	// the heap by (cycle, seq), so the pop order is identical to the
	// single-heap implementation. The lane always drains completely: its
	// events were appended last live cycle for this one, and skippable
	// never jumps past a due completion.
	lane := c.nextComp
	li := 0
drain:
	for {
		laneDue := li < len(lane) && lane[li].cycle <= c.cycle
		heapDue := len(c.compQ) > 0 && c.compQ[0].cycle <= c.cycle
		var u *uop
		switch {
		case laneDue && (!heapDue ||
			c.compQ[0].cycle > lane[li].cycle ||
			(c.compQ[0].cycle == lane[li].cycle && c.compQ[0].u.seq > lane[li].u.seq)):
			u = lane[li].u
			lane[li] = compEvent{}
			li++
		case heapDue:
			u = c.compQ.pop().u
		default:
			break drain
		}
		if u.squashed {
			continue // defensive: flush compacts the queue
		}
		u.done = true
		deps := u.dependents
		for _, d := range deps {
			if d.squashed || d.done {
				continue
			}
			d.pendingDeps--
			if d.pendingDeps == 0 {
				c.readyQ.push(d)
			}
		}
		for i := range deps {
			deps[i] = nil
		}
		u.dependents = deps[:0] // keep the chunk for reuse after recycling
		if (u.mispredict || u.deferred) && !u.wrongPath {
			c.resolved = append(c.resolved, u)
		}
	}
	if li == len(lane) {
		c.nextComp = lane[:0]
	} else if li > 0 {
		n := copy(lane, lane[li:])
		for i := n; i < len(lane); i++ {
			lane[i] = compEvent{}
		}
		c.nextComp = lane[:n]
	}
	if len(c.resolved) == 0 {
		return
	}
	// Oldest first: an older flush squashes younger resolutions.
	for i := 1; i < len(c.resolved); i++ {
		for j := i; j > 0 && c.resolved[j].seq < c.resolved[j-1].seq; j-- {
			c.resolved[j], c.resolved[j-1] = c.resolved[j-1], c.resolved[j]
		}
	}
	for _, u := range c.resolved {
		if !u.squashed {
			c.resolve(u)
		}
	}
	for i := range c.resolved {
		c.resolved[i] = nil
	}
	c.resolved = c.resolved[:0]
}

// resolve implements the branch misprediction detection/recovery module
// of §3.5.4.
func (c *CPU) resolve(u *uop) {
	if u.mispredict {
		// Normal branches, high-confidence wish branches, indirect
		// branches and returns, and wish-loop early exits: flush.
		c.flush(u, u.flushPC, false)
		return
	}
	// Deferred low-confidence wish loop (actual not-taken, predicted
	// taken): consult the front-end last-prediction buffer.
	if c.loopGen[u.pc] != u.loopGen {
		// The front end exited (and possibly re-entered) this loop after
		// u was fetched: late exit, nothing to flush. The paper's
		// hardware flushes unnecessarily on re-entry (footnote 8); here
		// the correct path has run past the loop, so the flush must not
		// happen.
		u.loopCls = loopLate
		return
	}
	if last := c.lastLoopPred[u.pc]; !last {
		// Late exit: the front end already left the loop; the extra
		// iterations flow through as NOPs and no flush is needed.
		u.loopCls = loopLate
		return
	}
	// No exit: the front end is still fetching iterations; flush and
	// fetch the loop's fall-through block.
	u.loopCls = loopNoExit
	c.flush(u, u.pc+1, true)
}

// flush squashes everything younger than u, repairs front-end state,
// redirects fetch to redirectPC, and recycles every squashed µop: the
// scheduler queues are compacted and the surviving window's dependent
// lists scrubbed first, so nothing in the machine can reach a pooled
// µop afterwards.
func (c *CPU) flush(u *uop, redirectPC int, noExit bool) {
	c.res.Flushes++
	squashedBefore := c.res.Squashed

	// Accounting: charge the flush to u's static PC and mark the
	// pipeline as recovering until the first post-flush µop retires
	// (everything fetched from here on has seq >= c.seq).
	c.recoverRec = c.brTab.At(u.pc)
	c.recoverRec.Flushes++
	c.recoverSeq = c.seq

	// Squash the window tail younger than u.
	for c.robCount > 0 {
		i := (c.robTail - 1 + len(c.rob)) % len(c.rob)
		v := c.rob[i]
		if v.seq <= u.seq {
			break
		}
		v.squashed = true
		c.rob[i] = nil
		c.robTail = i
		c.robCount--
		c.res.Squashed++
		c.squashBuf = append(c.squashBuf, v)
	}
	// Fetch-queue µops were never renamed, so nothing references them:
	// straight back to the pool.
	for c.fqCount > 0 {
		q := c.fqPopFront()
		q.squashed = true
		c.res.Squashed++
		c.pool.put(q)
	}

	// Scrub every remaining reference to the squashed window tail, then
	// recycle it: scheduler queues first, then the survivors' dependent
	// lists (dependents are always younger, so squashed entries can hide
	// anywhere in them).
	c.readyQ.compact()
	c.compQ.compact()
	// The fast lane is normally empty here (flushes happen in resolve,
	// after completions drained it), but compact defensively: order is
	// preserved, so the seq invariant holds.
	k := 0
	for _, e := range c.nextComp {
		if !e.u.squashed {
			c.nextComp[k] = e
			k++
		}
	}
	for i := k; i < len(c.nextComp); i++ {
		c.nextComp[i] = compEvent{}
	}
	c.nextComp = c.nextComp[:k]

	// Rebuild fetch-order rename state from the surviving window, and
	// scrub dependent lists in the same pass.
	c.intWriter = [isa.NumIntRegs]*uop{}
	c.predWriter = [isa.NumPredRegs]*uop{}
	c.storeWriter.reset()
	c.robFor(func(v *uop) {
		k := 0
		for _, d := range v.dependents {
			if !d.squashed {
				v.dependents[k] = d
				k++
			}
		}
		for i := k; i < len(v.dependents); i++ {
			v.dependents[i] = nil
		}
		v.dependents = v.dependents[:k]
		in := v.inst
		if c.updatesWriters(v) {
			if in.WritesInt() {
				c.intWriter[in.Dst] = v
			}
			if in.WritesPred() {
				if in.PDst != isa.PNone && in.PDst != isa.P0 {
					c.predWriter[in.PDst] = v
				}
				if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 {
					c.predWriter[in.PDst2] = v
				}
			}
		}
		if in.Op == isa.OpStore && v.guardVal && !v.isSelect {
			c.storeWriter.put(v.addr>>3, v)
		}
	})
	for i, v := range c.squashBuf {
		c.pool.put(v)
		c.squashBuf[i] = nil
	}
	c.squashBuf = c.squashBuf[:0]

	// Predictor repair.
	switch {
	case u.isCond:
		c.bp.Repair(u.pred.Hist, u.actualTaken)
		c.bp.RepairLocal(prog.Addr(u.pc), u.pred.LHist, u.actualTaken)
	case u.inst.Op == isa.OpJmpInd:
		// Fetch folded the predicted target's bit into the history;
		// repair with the actual target's bit.
		c.bp.Repair(u.hist, targetBit(u.flushPC))
	default:
		c.bp.SetHist(u.hist)
	}
	c.ras.Restore(u.rasTop, u.rasVal)
	if c.lp != nil {
		c.lp.ResetSpec()
	}

	// Wish front-end state: a misprediction signal returns the mode
	// machine to normal (Figure 8) and resets the elimination buffer
	// (§3.5.3).
	c.mode = ModeNormal
	c.lowConfTarget = -1
	c.lowConfLoopPC = -1
	c.elimValid = [isa.NumPredRegs]bool{}
	c.elimVal = [isa.NumPredRegs]bool{}
	if noExit {
		// The front end now exits the loop; record it so younger
		// deferred instances (already squashed) cannot misclassify.
		c.lastLoopPred[u.pc] = false
		c.loopGen[u.pc]++
	}

	// Fetch redirect. For a detected misprediction the emulator already
	// sits on the correct path; for a wish-loop no-exit flush every µop
	// fetched since the mispredicted instance was a predicated-false
	// NOP, so repositioning the PC is architecturally safe (§3.5.4).
	c.shadow = nil
	c.pendingFlush = nil
	if noExit {
		c.st.PC = redirectPC
	} else if c.st.PC != redirectPC {
		panic(fmt.Sprintf("cpu: flush redirect mismatch: emulator at %d, expected %d", c.st.PC, redirectPC))
	}
	c.fetchHalted = c.st.Halted
	c.nextFetch = c.cycle + 1
	c.curLine = 0
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Seq: u.seq, PC: u.pc, Kind: obs.EvFlush,
			Arg: c.res.Squashed - squashedBefore})
	}
}

// retire commits up to RetireWidth completed µops in order, returning
// each to the pool once its writer-table references are cleared.
func (c *CPU) retire() {
	for n := 0; n < c.cfg.RetireWidth && c.robCount > 0; n++ {
		u := c.rob[c.robHead]
		if u == nil || u.squashed {
			panic("cpu: squashed µop at window head")
		}
		if !u.done || u.doneCycle > c.cycle {
			return
		}
		c.rob[c.robHead] = nil
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		c.retireUop(u)
		c.pool.put(u)
		if c.res.Halted {
			return
		}
	}
}

// clearWriters removes u from the rename writer tables at retire. A
// retired writer is semantically inert (addDep skips done producers),
// so this changes no schedule — it only makes the µop unreachable and
// therefore safe to recycle.
func (c *CPU) clearWriters(u *uop) {
	in := u.inst
	if in.WritesInt() && c.intWriter[in.Dst] == u {
		c.intWriter[in.Dst] = nil
	}
	if in.WritesPred() {
		if in.PDst != isa.PNone && in.PDst != isa.P0 && c.predWriter[in.PDst] == u {
			c.predWriter[in.PDst] = nil
		}
		if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 && c.predWriter[in.PDst2] == u {
			c.predWriter[in.PDst2] = nil
		}
	}
}

func (c *CPU) retireUop(u *uop) {
	c.res.RetiredUops++
	in := u.inst
	c.clearWriters(u)

	// Accounting: count this retire, classify it as useful work or
	// predication overhead, and end flush recovery once post-flush
	// work commits.
	c.acctRetired++
	useful := !u.isSelect && (in.IsBranch() || in.Guard == isa.P0 || u.guardVal)
	if useful {
		c.acctUseful++
	}
	if c.recoverRec != nil && u.seq >= c.recoverSeq {
		c.recoverRec = nil
	}
	if c.ring != nil {
		var arg uint64
		if u.isSelect {
			arg = 1
		}
		c.ring.Record(obs.Event{Cycle: c.cycle, Seq: u.seq, PC: u.pc, Kind: obs.EvRetire, Arg: arg})
	}

	if u.isSelect {
		return
	}
	c.res.ProgUops++
	pc64 := prog.Addr(u.pc)

	if in.Op == isa.OpStore && u.guardVal {
		c.hier.AccessD(u.addr, c.cycle, true)
		c.storeWriter.del(u.addr>>3, u)
	}

	if u.isCond {
		c.res.CondBranches++
		rec := c.brTab.At(u.pc)
		rec.Retired++
		if u.dirPred != u.actualTaken {
			c.res.MispredCondBr++
			rec.Mispredicts++
		}
		if in.IsWish() {
			if u.highConf {
				rec.ConfHigh++
			} else {
				rec.ConfLow++
			}
		}
		if u.predValid {
			c.bp.Commit(pc64, u.pred, u.actualTaken)
		}
		if c.lp != nil && in.Target <= u.pc {
			c.lp.Commit(pc64, u.actualTaken)
		}
		if in.IsWish() {
			if !c.cfg.PerfectConfidence && !c.cfg.PerfectBP {
				c.jrs.Update(pc64, u.hist, u.dirPred == u.actualTaken)
			}
			c.wishStats(u)
		}
	}
	if in.Op == isa.OpJmpInd {
		c.itc.Update(pc64, u.hist, u.flushPC)
	}
	if in.Op == isa.OpHalt && u.guardVal {
		c.res.Halted = true
	}
}

// wishStats classifies a retired wish branch for Figures 11 and 13.
func (c *CPU) wishStats(u *uop) {
	var w *WishClass
	switch u.inst.WType {
	case isa.WJump:
		w = &c.res.WishJump
	case isa.WJoin:
		w = &c.res.WishJoin
	case isa.WLoop:
		w = &c.res.WishLoop
	default:
		return
	}
	mis := u.dirPred != u.actualTaken
	if u.highConf {
		if mis {
			w.HighMispred++
		} else {
			w.HighCorrect++
		}
		return
	}
	if !mis {
		w.LowCorrect++
		return
	}
	w.LowMispred++
	if u.inst.WType == isa.WLoop {
		switch u.loopCls {
		case loopEarly:
			w.LowEarly++
		case loopNoExit:
			w.LowNoExit++
		default:
			w.LowLate++
		}
	}
}
