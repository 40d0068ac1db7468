// Package cpu is the cycle-level out-of-order processor model. It
// reproduces the paper's baseline machine (Table 2) and all of the
// wish-branch hardware of §3.5: the front-end mode state machine
// (Figure 8), the predicate dependency elimination buffer (§3.5.3), the
// wish-loop last-prediction buffer with early/late/no-exit recovery
// (§3.5.4), a dedicated JRS confidence estimator (§3.5.5), and both
// predication mechanisms (C-style conditional expressions and
// select-µops, §2.1/§5.3.3), plus the oracle knobs of the Figure 2
// limit study (NO-DEPEND, NO-FETCH, PERFECT-CBP, perfect confidence).
//
// Simulation is execution-driven: a functional emulator advances in
// fetch order along the path the front end actually follows. Wrong
// paths after a detected misprediction are walked with a forked shadow
// state (mirroring the paper's Pin-based wrong-path trace threads), and
// low-confidence wish-branch paths are followed directly, since
// predication makes both directions architecturally equivalent.
//
// The host-side hot path is engineered to be allocation-free in steady
// state and to skip dead cycles in bulk (DESIGN.md §10): µops live in
// one preallocated, pointer-free arena recycled at retire and flush,
// the scheduler runs on concrete heaps and flat tables instead of
// interfaces and maps, and Run jumps the cycle counter straight to the
// next event when no pipeline stage can make progress. All of this is
// observationally invisible — results are bit-identical to the
// one-cycle-at-a-time reference mode (SetCycleSkipping), which the
// equivalence suites enforce.
package cpu

import (
	"context"
	"fmt"

	"wishbranch/internal/bpred"
	"wishbranch/internal/cache"
	"wishbranch/internal/conf"
	"wishbranch/internal/config"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/obs"
	"wishbranch/internal/prog"
)

// CPU simulates one program on one machine configuration. Create with
// New and call Run once.
type CPU struct {
	cfg  *config.Machine
	prog *prog.Program

	code      []isa.Inst  // prog.Code: a µop's instruction is code[u.pc]
	st        *emu.State  // fetch-order architectural state (correct path)
	shadow    *emu.Shadow // active while fetching a wrong path
	shadowBuf *emu.Shadow // reusable shadow storage (one wrong path at a time)

	hier *cache.Hierarchy
	bp   *bpred.Hybrid
	btb  *bpred.BTB
	ras  *bpred.RAS
	itc  *bpred.IndirectCache // nil until the first correct-path indirect jump
	jrs  *conf.JRS
	lp   *bpred.LoopPredictor

	cycle uint64
	seq   uint64

	// Fetch state.
	nextFetch    uint64 // earliest cycle fetch may proceed
	fetchHalted  bool   // HALT fetched on the correct path
	curLine      uint64 // I-cache line currently streaming (+1; 0 = none)
	pendingFlush bool   // a fetch-detected misprediction awaits resolve

	// Wish-branch front-end state (Figure 8 state machine).
	mode          Mode
	lowConfTarget int // jump/join low-conf region exit PC (-1 = none)
	lowConfLoopPC int // static PC of the wish loop holding low-conf mode (-1)
	// Predicate dependency elimination buffer (§3.5.3), kept as flat
	// per-register arrays: the buffer is consulted for every guarded
	// µop fetched.
	elimValid [isa.NumPredRegs]bool
	elimVal   [isa.NumPredRegs]bool
	predPair  [isa.NumPredRegs]isa.PReg // complement pairing from last defining cmp
	// lastLoopPred holds, per static wish-loop PC, the last fetched
	// prediction; loopGen counts how many times the front end has left
	// each loop. A deferred (extra-iteration) instance whose generation
	// is stale resolves as late-exit: the front end exited (and
	// possibly re-entered) the loop, so there is nothing to flush. The
	// paper's hardware would unnecessarily flush on re-entry
	// (footnote 8); an execution-driven model must not, because the
	// correct path has executed real work past the loop by then. Both
	// are dense arrays indexed by static PC — programs are small and
	// PC-dense, so this is a plain load where a map hit used to be.
	lastLoopPred []bool
	loopGen      []uint64

	// The µop arena: every µop in the fetch queue or the window lives
	// in uops (slot 0 unused, see uid), and free is its LIFO free list.
	uops []uop
	free []uid

	// Queues and window, both fixed rings. The fetch queue's capacity
	// is the front-end depth in µops.
	fq       []uid
	fqHead   int
	fqCount  int
	rob      []uid
	robHead  int
	robTail  int
	robCount int

	// Fetch-order rename state.
	intWriter   [isa.NumIntRegs]uid
	predWriter  [isa.NumPredRegs]uid
	storeWriter *storeTab

	readyQ seqHeap
	compQ  compHeap
	// nextComp is the latency-1 completion fast lane: events issued this
	// cycle that complete next cycle. Issue pops the ready queue
	// oldest-first, so appends arrive in ascending sequence order and the
	// lane needs no sifting; it drains completely every time it comes
	// due, before any new event can be appended. Longer latencies go
	// through the compQ heap, which now only sees the uncommon cases
	// (multiplies, divides, cache misses).
	nextComp []compEvent

	resolved  []uid // scratch for completions' resolve batch
	squashBuf []uid // scratch for flush's squashed-window batch
	skipOff   bool  // disable event-driven cycle skipping (reference mode)

	res Result

	// Cycle accounting (internal/obs): per-cycle trackers feeding the
	// stall-taxonomy attribution in account(). recoverRec is the
	// attribution record of the branch whose flush the pipeline is
	// currently recovering from (nil = not recovering); recoverSeq is
	// the first sequence number fetched after that flush, so recovery
	// ends when post-flush work first retires.
	brTab       *obs.BranchTable
	recoverRec  *obs.BranchStat
	recoverSeq  uint64
	acctRetired int  // µops retired this cycle
	acctUseful  int  // of those, useful (non-select, non-NOP) µops
	acctFull    bool // dispatch was blocked on window space this cycle
	ring        *obs.Ring

	// dbgSkipped counts cycles elided by event skipping (read by
	// TestCycleSkippingActuallySkips). Not part of Result.
	dbgSkipped uint64
}

// New builds a simulator for program p under machine cfg. The initial
// memory image is applied via init (may be nil).
func New(cfg *config.Machine, p *prog.Program, init func(*emu.Memory)) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	st := emu.New(p)
	if init != nil {
		init(st.Mem)
	}
	fqCap := cfg.FrontEndDepth*cfg.FetchWidth + cfg.FetchWidth
	slots := fqCap + cfg.ROBSize // the most µops that can be live at once
	c := &CPU{
		cfg:           cfg,
		prog:          p,
		code:          p.Code,
		st:            st,
		hier:          cache.NewHierarchy(cfg.Caches),
		bp:            bpred.NewHybrid(cfg.Hybrid),
		btb:           bpred.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		ras:           bpred.NewRAS(cfg.RASDepth),
		jrs:           conf.NewJRS(cfg.JRS),
		mode:          ModeNormal,
		lowConfTarget: -1,
		lowConfLoopPC: -1,
		lastLoopPred:  make([]bool, len(p.Code)),
		loopGen:       make([]uint64, len(p.Code)),
		uops:          make([]uop, slots+1),
		free:          make([]uid, slots),
		fq:            make([]uid, fqCap),
		rob:           make([]uid, cfg.ROBSize),
		storeWriter:   newStoreTab(cfg.ROBSize),
		brTab:         obs.NewBranchTable(len(p.Code)),
	}
	// Hand out low slots first: free is popped from the end.
	for i := range c.free {
		c.free[i] = uid(slots - i)
	}
	if cfg.UseLoopPredictor {
		c.lp = bpred.NewLoopPredictor(cfg.LoopPredEntries)
		c.lp.Bias = cfg.LoopPredictorBias
	}
	for i := range c.predPair {
		c.predPair[i] = isa.PNone
	}
	return c, nil
}

// SetCycleSkipping toggles event-driven cycle skipping (on by
// default). Skipping is a pure host-side optimization: results are
// bit-identical either way, which TestCycleSkipEquivalence enforces
// across the full workload × variant × machine sweep. The
// one-cycle-at-a-time reference mode exists for that test and for
// debugging.
func (c *CPU) SetCycleSkipping(on bool) { c.skipOff = !on }

// Run simulates until the program's HALT retires or maxCycles elapse
// (0 = default limit of 2^40 cycles). It returns the collected result;
// an error means the cycle limit was hit. The result is detached from
// the CPU: holding it does not keep the simulator reachable, and
// nothing the CPU does afterwards changes it. Run does not measure host
// time: the result is a pure function of the program and machine
// configuration (callers that want wall-clock throughput time the call
// themselves).
func (c *CPU) Run(maxCycles uint64) (*Result, error) {
	return c.RunContext(context.Background(), maxCycles)
}

// cancelCheckInterval is how many scheduler wake-ups RunContext lets
// pass between cancellation polls. Each wake-up is either one live
// cycle or one bulk event-skip jump, so the poll rides the existing
// event-skip cadence instead of adding a per-cycle branch: a dead
// stretch of a million cycles costs one poll, and a fully live pipeline
// polls every 32Ki cycles. The poll is a non-blocking select on a
// channel obtained once before the loop, so the hot path stays
// allocation-free (TestRunContextZeroAlloc).
const cancelCheckInterval = 1 << 15

// RunContext is Run with cooperative cancellation: when ctx is
// cancelled (or its deadline passes), the simulation stops at the next
// cancellation poll and returns the partial result together with an
// error wrapping ctx.Err(). A context that can never be cancelled
// (context.Background, context.TODO) has a nil Done channel, so every
// poll falls through.
//
// Cancellation is a host-side concern only: a run that completes
// before the context fires returns a result bit-identical to Run's
// (TestRunContextEquivalence). Every returned result, partial or not,
// is a detached snapshot, as Run's is: a CPU resumed after a
// cancellation leaves the partial result it returned untouched
// (TestResumeLeavesEarlierResult).
func (c *CPU) RunContext(ctx context.Context, maxCycles uint64) (*Result, error) {
	done := ctx.Done()
	// An already-cancelled context must not simulate anything: without
	// this upfront poll a dead context would still run up to 32Ki
	// wake-ups before the first countdown poll. Returning here leaves
	// the CPU in a clean resumable state — the µop arena, free-list,
	// and writer tables are untouched, so a later RunContext call picks
	// up exactly where this one stopped (TestRunContextPreCancelled).
	select {
	case <-done:
		return c.stopCancelled(ctx)
	default:
	}
	if maxCycles == 0 {
		maxCycles = 1 << 40
	}
	countdown := cancelCheckInterval
	for !c.res.Halted {
		if c.cycle >= maxCycles {
			return c.finishRun(), fmt.Errorf("cpu: cycle limit %d reached (pc=%d, retired=%d)",
				maxCycles, c.st.PC, c.res.RetiredUops)
		}
		c.stepOrSkip(maxCycles)
		if countdown--; countdown == 0 {
			countdown = cancelCheckInterval
			select {
			case <-done:
				return c.stopCancelled(ctx)
			default:
			}
		}
	}
	return c.finishRun(), nil
}

// stopCancelled ends a run interrupted by ctx, returning the partial
// result and an error wrapping ctx.Err().
func (c *CPU) stopCancelled(ctx context.Context) (*Result, error) {
	return c.finishRun(), fmt.Errorf("cpu: run cancelled at cycle %d (pc=%d, retired=%d): %w",
		c.cycle, c.st.PC, c.res.RetiredUops, ctx.Err())
}

// Advance runs the pipeline for up to n more cycles and reports
// whether the program has halted. Unlike Run it performs no
// end-of-run flattening, so a steady-state window advanced this way
// allocates nothing — it exists for the host-performance suite
// (TestSteadyStateZeroAlloc, bench_test.go); call Run afterwards to
// finish the simulation and collect the result.
func (c *CPU) Advance(n uint64) bool {
	limit := c.cycle + n
	for !c.res.Halted && c.cycle < limit {
		c.stepOrSkip(limit)
	}
	return c.res.Halted
}

// stepOrSkip advances the simulation by one live cycle, or jumps over
// a maximal run of dead cycles in one step. limit caps the jump so
// cycle-limit truncation behaves identically in both modes.
func (c *CPU) stepOrSkip(limit uint64) {
	if !c.skipOff {
		if n := c.skippable(limit); n > 0 {
			c.bulkAccount(n)
			return
		}
	}
	c.completions()
	c.retire()
	c.issue()
	c.dispatch()
	c.fetch()
	c.account(1)
	c.cycle++
}

// skippable returns how many cycles can be skipped from the current
// one, or 0 if any pipeline stage has work this cycle. A cycle is dead
// when no completion event is due, the window head cannot retire,
// nothing is ready to issue, dispatch is blocked, and fetch is blocked.
// Dispatch is blocked when the fetch queue is empty, when its front
// µop has not yet reached its dispatch cycle, or when the window has
// no room for it (only a completion, through retire, can make room).
// Fetch is blocked when it is stalled (I-cache miss, BTB bubble),
// halted, stuck on a wrong path, or the fetch queue is full.
// During a dead stretch the machine state is frozen except for the
// cycle counter, so the per-cycle accounting attribution is constant —
// bulkAccount exploits exactly that. The jump target is the earliest
// future event: the next completion, the front µop's dispatch cycle,
// the fetch-resume cycle (also an attribution boundary: structural →
// fetch-stall), or the caller's cycle limit.
func (c *CPU) skippable(limit uint64) uint64 {
	if len(c.compQ) > 0 && c.compQ[0].cycle <= c.cycle {
		return 0
	}
	if len(c.nextComp) > 0 && c.nextComp[0].cycle <= c.cycle {
		return 0
	}
	if c.robCount > 0 && c.uops[c.rob[c.robHead]].done {
		return 0
	}
	if len(c.readyQ) > 0 {
		return 0
	}
	target := limit
	if c.fqCount > 0 {
		u := &c.uops[c.fq[c.fqHead]]
		if u.dispReady > c.cycle {
			target = min(target, u.dispReady)
		} else if !c.windowFull(u) {
			return 0
		}
	}
	if !c.fetchHalted && c.cycle >= c.nextFetch && c.fqCount < len(c.fq) && !c.shadowStuck() {
		return 0
	}
	if len(c.compQ) > 0 && c.compQ[0].cycle < target {
		target = c.compQ[0].cycle
	}
	if len(c.nextComp) > 0 && c.nextComp[0].cycle < target {
		target = c.nextComp[0].cycle
	}
	if c.cycle < c.nextFetch && c.nextFetch < target {
		target = c.nextFetch
	}
	if target <= c.cycle {
		return 0
	}
	return target - c.cycle
}

// windowFull reports that the window has no room for u, the front µop
// of the fetch queue, and its select µop if it injects one.
func (c *CPU) windowFull(u *uop) bool {
	need := 1
	if c.needsSelect(u) {
		need = 2
	}
	return c.robCount+need > len(c.rob)
}

// shadowStuck reports that wrong-path fetch cannot produce µops: the
// shadow ran into HALT or off the program. Only the pending flush can
// unstick it, so fetch is not "active" for skipping purposes.
func (c *CPU) shadowStuck() bool {
	if c.shadow == nil {
		return false
	}
	if c.shadow.Halted() {
		return true
	}
	pc := c.shadow.PC()
	return pc < 0 || pc >= len(c.prog.Code)
}

// bulkAccount attributes n skipped cycles at once through account,
// which then picks the same bucket for all of them as it would for
// each: nothing retired, the head is not done, every input to the
// decision tree is frozen for the whole stretch, and dispatch is
// blocked on window space exactly when the front µop has reached its
// dispatch cycle. Both partition identities are preserved exactly —
// the flush-recovery charge goes to the same branch record, in the
// same amount, as n single-cycle accounts would post.
func (c *CPU) bulkAccount(n uint64) {
	c.acctFull = c.fqCount > 0 && c.uops[c.fq[c.fqHead]].dispReady <= c.cycle
	c.account(n)
	c.dbgSkipped += n
	c.cycle += n
}

// account closes n cycles for the observability layer: it attributes
// them to exactly one stall-taxonomy bucket (the accounting identity:
// buckets partition total cycles) and resets the per-cycle trackers.
// The live cycle loop closes one cycle at a time. Priority: retires
// beat stalls; flush recovery beats every other stall; an empty window
// is a front-end problem, a non-empty one a back-end problem.
func (c *CPU) account(n uint64) {
	var b obs.Bucket
	switch {
	case c.acctUseful > 0:
		b = obs.UsefulRetire
	case c.acctRetired > 0:
		// Only predication overhead retired: predicated-false NOPs or
		// injected select µops.
		b = obs.WishNOP
	case c.recoverRec != nil:
		// Refilling after a flush; also charged to the flushing branch,
		// so per-branch flush cycles sum exactly to this bucket.
		b = obs.FlushRecovery
		c.recoverRec.FlushCycles += n
	case c.robCount == 0:
		if c.fqCount == 0 && c.cycle < c.nextFetch {
			b = obs.Structural // I-cache miss or BTB decode bubble
		} else {
			b = obs.FetchStall // front-end pipeline fill
		}
	default:
		head := &c.uops[c.rob[c.robHead]]
		switch {
		case !head.done && c.predSerial(head):
			b = obs.PredSerial
		case c.acctFull:
			b = obs.WindowFull
		default:
			b = obs.ExecLatency
		}
	}
	c.res.Acct.Buckets[b] += n
	c.acctRetired, c.acctUseful, c.acctFull = 0, 0, false
}

// predSerial reports that a window head waiting to complete is a
// predicated µop or an injected select µop: predication, not execution
// latency, is what holds the window.
func (c *CPU) predSerial(head *uop) bool {
	if head.isSelect {
		return true
	}
	in := &c.code[head.pc]
	return in.Guard != isa.P0 && !in.IsBranch()
}

// AttachTrace connects a bounded event ring; every fetch, rename,
// retire, and flush event of the rest of the run is recorded into it.
// Tracing is observational only — it never changes simulation results.
func (c *CPU) AttachTrace(r *obs.Ring) { c.ring = r }

// finishRun flattens the end-of-run statistics into the result (cycle
// count, cache totals and a freshly sorted per-branch attribution
// table) and returns a detached heap copy of it: the caller's result
// keeps only its own Branches slice reachable, not the simulator, and a
// later resumed run cannot change it.
func (c *CPU) finishRun() *Result {
	c.res.Cycles = c.cycle
	c.res.L1I = c.hier.L1I.Stats
	c.res.L1D = c.hier.L1D.Stats
	c.res.L2 = c.hier.L2.Stats
	c.res.Mem = c.hier.Mem.Stats
	c.res.Branches = c.brTab.Sorted()
	r := c.res
	return &r
}

// Mode returns the current front-end wish mode (for tests and the
// state-machine experiments).
func (c *CPU) Mode() Mode { return c.mode }

// ArchState exposes the committed architectural state (registers,
// predicates, memory). After Run completes it holds the program's final
// state; tests compare it against a pure functional-emulator run to
// verify that the pipeline's speculative machinery (wrong-path shadows,
// forced wish-branch directions, flush repositioning) never corrupts
// architecture.
func (c *CPU) ArchState() *emu.State { return c.st }

// fqPush appends to the fetch queue; callers check capacity first
// (fetch's own queue-full test), so overflow is a programming error.
func (c *CPU) fqPush(id uid) {
	if c.fqCount == len(c.fq) {
		panic("cpu: fetch queue overflow")
	}
	i := c.fqHead + c.fqCount
	if i >= len(c.fq) {
		i -= len(c.fq)
	}
	c.fq[i] = id
	c.fqCount++
}

// fqPopFront removes and returns the oldest queued µop.
func (c *CPU) fqPopFront() uid {
	id := c.fq[c.fqHead]
	c.fqHead++
	if c.fqHead == len(c.fq) {
		c.fqHead = 0
	}
	c.fqCount--
	return id
}

// robPush appends to the window; caller must ensure space.
func (c *CPU) robPush(id uid) {
	c.rob[c.robTail] = id
	c.robTail++
	if c.robTail == len(c.rob) {
		c.robTail = 0
	}
	c.robCount++
}
