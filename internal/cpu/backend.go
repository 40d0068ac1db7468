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
		id := c.fq[c.fqHead]
		u := &c.uops[id]
		if u.dispReady > c.cycle {
			return
		}
		if c.windowFull(u) {
			c.acctFull = true
			return
		}
		c.fqPopFront()
		c.rename(id, u)
	}
}

// needsSelect reports whether dispatching u injects a select µop.
func (c *CPU) needsSelect(u *uop) bool {
	in := &c.code[u.pc]
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
func (c *CPU) addIntSrcs(id uid, u *uop, in *isa.Inst) {
	srcs, n := in.IntSrcs()
	for i := 0; i < n; i++ {
		if srcs[i] != isa.R0 {
			c.addDep(id, u, c.intWriter[srcs[i]])
		}
	}
}

func (c *CPU) addPredSrcs(id uid, u *uop, in *isa.Inst) {
	ps, n := in.ReadsPredSrcs()
	for i := 0; i < n; i++ {
		if ps[i] != isa.P0 {
			c.addDep(id, u, c.predWriter[ps[i]])
		}
	}
}

func (c *CPU) addLoadDeps(id uid, u *uop, in *isa.Inst) {
	if in.Op != isa.OpLoad {
		return
	}
	if w := c.storeWriter.get(u.addr >> 3); w != 0 {
		if s := &c.uops[w]; !s.squashed && s.seq < u.seq {
			u.fwdStore = true
			c.addDep(id, u, w) // store-to-load forwarding once the store executes
		}
	}
}

func (c *CPU) addOldDstDeps(id uid, u *uop, in *isa.Inst) {
	if in.WritesInt() {
		c.addDep(id, u, c.intWriter[in.Dst])
	}
	if in.WritesPred() {
		if in.PDst != isa.PNone && in.PDst != isa.P0 {
			c.addDep(id, u, c.predWriter[in.PDst])
		}
		if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 {
			c.addDep(id, u, c.predWriter[in.PDst2])
		}
	}
}

// rename computes u's dependences, updates the fetch-order writer
// tables, allocates window entries, and wakes u if already ready.
func (c *CPU) rename(id uid, u *uop) {
	in := &c.code[u.pc]
	if c.ring != nil {
		c.ring.Record(obs.Event{Cycle: c.cycle, Seq: u.seq, PC: u.pc, Kind: obs.EvRename})
	}

	guarded := in.Guard != isa.P0 && !in.IsBranch()
	oracle := c.cfg.NoPredDepend || c.cfg.NoFalseFetch
	var sid uid // the injected select µop, if any
	var sel *uop

	switch {
	case in.IsBranch():
		if in.Op == isa.OpBr && in.Guard != isa.P0 {
			c.addDep(id, u, c.predWriter[in.Guard]) // resolution needs the real predicate
		}
		if in.Op == isa.OpJmpInd || in.Op == isa.OpRet {
			c.addIntSrcs(id, u, in)
		}
	case guarded && oracle:
		// NO-DEPEND (and NO-FETCH): predicate dependencies ideally
		// removed; a predicated-false µop is a free NOP.
		if u.guardVal {
			c.addIntSrcs(id, u, in)
			c.addPredSrcs(id, u, in)
			c.addLoadDeps(id, u, in)
		}
	case guarded && u.predElim:
		// Predicate dependency elimination hit: the guard is assumed
		// ready with the predicted value (§3.5.3). A mispredicted value
		// is repaired by the wish branch's own flush.
		if u.predElimVal {
			c.addIntSrcs(id, u, in)
			c.addPredSrcs(id, u, in)
			c.addLoadDeps(id, u, in)
		}
	case guarded && c.cfg.PredMech == config.SelectUop &&
		!in.WritesInt() && !in.WritesPred():
		// Guarded µop with no register destination (a predicated store):
		// there is no value to merge, so no select µop — needsSelect
		// reserved a single window slot and a second push here would
		// overflow the window. The store consumes its predicate directly
		// instead: the store buffer cannot release a predicated store
		// until its guard resolves.
		c.addIntSrcs(id, u, in)
		c.addPredSrcs(id, u, in)
		c.addLoadDeps(id, u, in)
		c.addDep(id, u, c.predWriter[in.Guard])
	case guarded && c.cfg.PredMech == config.SelectUop:
		// The predicated µop executes without its predicate; the select
		// µop merges old/new values and carries the dependents.
		c.addIntSrcs(id, u, in)
		c.addPredSrcs(id, u, in)
		c.addLoadDeps(id, u, in)
		sid, sel = c.newUop()
		sel.seq, sel.pc, sel.isSelect = u.seq, u.pc, true
		sel.wrongPath, sel.guardVal = u.wrongPath, u.guardVal
		c.addDep(sid, sel, id)
		c.addDep(sid, sel, c.predWriter[in.Guard])
		c.addOldDstDeps(sid, sel, in)
	case guarded:
		// C-style conditional expression: reads the guard and the old
		// destination value as extra sources; always writes.
		c.addIntSrcs(id, u, in)
		c.addPredSrcs(id, u, in)
		c.addLoadDeps(id, u, in)
		c.addDep(id, u, c.predWriter[in.Guard])
		c.addOldDstDeps(id, u, in)
	default:
		c.addIntSrcs(id, u, in)
		c.addPredSrcs(id, u, in)
		c.addLoadDeps(id, u, in)
	}

	// Writer updates in fetch order. With C-style conversion a guarded
	// instruction always writes its destination, which is exactly what
	// makes renaming work (§2.1); in select-µop mode the select is the
	// architectural writer. A µop known to be predicated-false (oracle
	// knowledge, or a predicted-false predicate in high-confidence mode)
	// is transparent: consumers keep depending on the previous writer,
	// as ideal renaming would arrange.
	if c.updatesWriters(u, in) {
		writer := id
		if sel != nil {
			writer = sid
		}
		c.setWriters(in, writer)
	}
	if in.Op == isa.OpStore && u.guardVal {
		c.storeWriter.put(u.addr>>3, id)
	}

	c.robPush(id)
	if u.pendingDeps == 0 {
		c.readyQ.push(u.seq, id)
	}
	if sel != nil {
		c.robPush(sid)
		if sel.pendingDeps == 0 {
			c.readyQ.push(sel.seq, sid)
		}
	}
}

// setWriters makes id the rename writer of in's destinations.
func (c *CPU) setWriters(in *isa.Inst, id uid) {
	if in.WritesInt() {
		c.intWriter[in.Dst] = id
	}
	if in.WritesPred() {
		if in.PDst != isa.PNone && in.PDst != isa.P0 {
			c.predWriter[in.PDst] = id
		}
		if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 {
			c.predWriter[in.PDst2] = id
		}
	}
}

// updatesWriters reports whether u becomes the rename writer of its
// destinations. False only for µops known not to write: guarded µops
// whose guard is architecturally false under the NO-DEPEND/NO-FETCH
// oracles, or predicted false by the predicate dependency elimination
// buffer.
func (c *CPU) updatesWriters(u *uop, in *isa.Inst) bool {
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
		id := c.readyQ.pop()
		u := &c.uops[id]
		if u.squashed {
			// Defensive: flush compacts the queue, so squashed entries
			// should never surface here.
			continue
		}
		u.doneCycle = c.execute(u)
		e := compEvent{u.doneCycle, u.seq, id}
		if u.doneCycle == c.cycle+1 {
			// Latency-1 fast lane: appended in ascending seq order (the
			// ready queue pops oldest-first), all due next cycle.
			c.nextComp = append(c.nextComp, e)
		} else {
			c.compQ.push(e)
		}
		n++
	}
}

// execute returns the completion cycle of u issued this cycle.
func (c *CPU) execute(u *uop) uint64 {
	if u.isSelect {
		return c.cycle + 1
	}
	in := &c.code[u.pc]
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
// (and therefore returned to the arena) by an older entry's flush is
// skipped via its squashed flag, which stays readable until the arena
// hands the slot out again — reallocation only happens in later
// pipeline stages.
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
		var id uid
		switch {
		case laneDue && (!heapDue ||
			c.compQ[0].cycle > lane[li].cycle ||
			(c.compQ[0].cycle == lane[li].cycle && c.compQ[0].seq > lane[li].seq)):
			id = lane[li].id
			li++
		case heapDue:
			id = c.compQ.pop().id
		default:
			break drain
		}
		u := &c.uops[id]
		if u.squashed {
			continue // defensive: flush compacts the queue
		}
		u.done = true
		c.wake(u)
		if (u.mispredict || u.deferred) && !u.wrongPath {
			c.resolved = append(c.resolved, id)
		}
	}
	if li == len(lane) {
		c.nextComp = lane[:0]
	} else if li > 0 {
		c.nextComp = lane[:copy(lane, lane[li:])]
	}
	if len(c.resolved) == 0 {
		return
	}
	// Oldest first: an older flush squashes younger resolutions.
	r := c.resolved
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && c.uops[r[j]].seq < c.uops[r[j-1]].seq; j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
	for _, id := range r {
		if u := &c.uops[id]; !u.squashed {
			c.resolve(u)
		}
	}
	c.resolved = r[:0]
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
// scheduler queues are compacted and the squashed consumers popped off
// the surviving window's wakeup lists first, so nothing in the machine
// can reach a free slot afterwards.
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
		i := c.robTail - 1
		if i < 0 {
			i = len(c.rob) - 1
		}
		id := c.rob[i]
		v := &c.uops[id]
		if v.seq <= u.seq {
			break
		}
		v.squashed = true
		c.robTail = i
		c.robCount--
		c.res.Squashed++
		c.squashBuf = append(c.squashBuf, id)
	}
	// Fetch-queue µops were never renamed, so nothing references them:
	// straight back to the arena.
	for c.fqCount > 0 {
		id := c.fqPopFront()
		c.uops[id].squashed = true
		c.res.Squashed++
		c.freeUop(id)
	}

	// Drop every remaining reference to the squashed window tail, then
	// recycle it: scheduler queues first, then the survivors' wakeup
	// lists.
	c.readyQ.compact(c.uops)
	c.compQ.compact(c.uops)
	// The fast lane is normally empty here (flushes happen in resolve,
	// after completions drained it), but compact defensively: order is
	// preserved, so the seq invariant holds.
	k := 0
	for _, e := range c.nextComp {
		if !c.uops[e.id].squashed {
			c.nextComp[k] = e
			k++
		}
	}
	c.nextComp = c.nextComp[:k]

	// Rebuild fetch-order rename state from the surviving window, and
	// pop squashed consumers off wakeup lists in the same pass.
	c.intWriter = [isa.NumIntRegs]uid{}
	c.predWriter = [isa.NumPredRegs]uid{}
	c.storeWriter.reset()
	for n, i := 0, c.robHead; n < c.robCount; n++ {
		id := c.rob[i]
		v := &c.uops[id]
		c.dropSquashedWaiters(v)
		in := &c.code[v.pc]
		if c.updatesWriters(v, in) {
			c.setWriters(in, id)
		}
		if in.Op == isa.OpStore && v.guardVal && !v.isSelect {
			c.storeWriter.put(v.addr>>3, id)
		}
		if i++; i == len(c.rob) {
			i = 0
		}
	}
	for _, id := range c.squashBuf {
		c.freeUop(id)
	}
	c.squashBuf = c.squashBuf[:0]

	// Predictor repair.
	switch {
	case u.isCond:
		c.bp.Repair(u.pred.Hist, u.actualTaken)
		c.bp.RepairLocal(prog.Addr(u.pc), u.pred.LHist, u.actualTaken)
	case c.code[u.pc].Op == isa.OpJmpInd:
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
	c.pendingFlush = false
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
// each to the arena once its writer-table references are cleared.
func (c *CPU) retire() {
	for n := 0; n < c.cfg.RetireWidth && c.robCount > 0; n++ {
		id := c.rob[c.robHead]
		u := &c.uops[id]
		if u.squashed {
			panic("cpu: squashed µop at window head")
		}
		if !u.done || u.doneCycle > c.cycle {
			return
		}
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		c.retireUop(id, u)
		c.freeUop(id)
		if c.res.Halted {
			return
		}
	}
}

// clearWriters removes µop id from the rename writer tables at retire.
// A retired writer is semantically inert (addDep skips done producers),
// so this changes no schedule — it only makes the slot unreachable and
// therefore safe to recycle.
func (c *CPU) clearWriters(in *isa.Inst, id uid) {
	if in.WritesInt() && c.intWriter[in.Dst] == id {
		c.intWriter[in.Dst] = 0
	}
	if in.WritesPred() {
		if in.PDst != isa.PNone && in.PDst != isa.P0 && c.predWriter[in.PDst] == id {
			c.predWriter[in.PDst] = 0
		}
		if in.PDst2 != isa.PNone && in.PDst2 != isa.P0 && c.predWriter[in.PDst2] == id {
			c.predWriter[in.PDst2] = 0
		}
	}
}

func (c *CPU) retireUop(id uid, u *uop) {
	c.res.RetiredUops++
	in := &c.code[u.pc]
	c.clearWriters(in, id)

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
		c.storeWriter.del(u.addr>>3, id)
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
			c.wishStats(u, in.WType)
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
func (c *CPU) wishStats(u *uop, wt isa.WType) {
	var w *WishClass
	switch wt {
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
	if wt == isa.WLoop {
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
