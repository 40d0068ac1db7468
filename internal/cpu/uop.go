package cpu

import (
	"wishbranch/internal/bpred"
	"wishbranch/internal/isa"
)

// Mode is the front-end mode of the wish-branch state machine
// (Figure 8 of the paper).
type Mode uint8

const (
	// ModeNormal (00): no wish branch outstanding; default behaviour.
	ModeNormal Mode = iota
	// ModeHigh (01): the last wish branch was high-confidence; the
	// branch predictor is used and the branch's predicate is predicted
	// (predicate dependency elimination, §3.5.3).
	ModeHigh
	// ModeLow (10): the last wish branch was low-confidence; wish
	// jumps/joins are forced not-taken and predicated code executes,
	// wish loops stay predicated until the loop exits.
	ModeLow
)

func (m Mode) String() string {
	switch m {
	case ModeHigh:
		return "high-conf"
	case ModeLow:
		return "low-conf"
	}
	return "normal"
}

// loopClass classifies a mispredicted low-confidence wish loop
// (§3.5.4): early-exit flushes like a normal misprediction, late-exit
// costs nothing, no-exit flushes from the loop's fall-through.
type loopClass uint8

const (
	loopNone loopClass = iota
	loopEarly
	loopLate
	loopNoExit
)

// maxDeps bounds the distinct producers a µop can wait on. The worst
// case is a C-style guarded store: two integer sources, a predicate
// source, the guard's writer, and a prior in-flight store to the same
// word (store-to-load pairs route through the same array). addDep
// deduplicates, so the bound is on distinct producers, not addDep
// calls.
const maxDeps = 5

// uop is one in-flight dynamic µop. µops are pooled: fetch allocates
// from the per-CPU free list and retire/flush recycle, so a steady-
// state simulation allocates no µops at all. All fields are reset at
// allocation (not at free), because scrubbed references may still be
// examined — never followed — after a µop returns to the pool within
// the same cycle.
type uop struct {
	seq  uint64
	pc   int
	inst *isa.Inst // static instruction (points into the program)

	wrongPath bool
	squashed  bool

	// Architectural facts captured at fetch from the emulator (shadow
	// values on the wrong path).
	guardVal    bool
	addr        uint64
	actualTaken bool // branches: architecturally correct direction
	flushPC     int  // branches: µop index fetch resumes at after a flush

	// Prediction state (branches).
	isCond     bool
	predValid  bool // hybrid Lookup was performed (commit needed)
	pred       bpred.Pred
	hist       uint64 // global history at fetch (before this branch)
	takenFetch bool   // direction the front end followed
	dirPred    bool   // final predictor direction (incl. loop-predictor override)
	mispredict bool   // fetch-detected real misprediction: flush at resolve
	deferred   bool   // low-conf wish loop extra iteration: classify at resolve
	highConf   bool   // confidence estimate (wish branches)
	loopCls    loopClass
	loopGen    uint64 // wish loops: front-end loop generation at fetch
	rasTop     int
	rasVal     int

	// Predicate dependency elimination (recorded at fetch; §3.5.3).
	predElim    bool
	predElimVal bool

	// Scheduling.
	deps        [maxDeps]*uop
	pendingDeps int
	dependents  []*uop
	done        bool
	doneCycle   uint64
	isSelect    bool // injected select µop (select-µop predication)
	fwdStore    bool // load forwarded from an in-flight store
	dispReady   uint64
}

// depOverflowPanic makes addDep panic instead of saturating when a µop
// exceeds maxDeps distinct producers. Tests flip it on (see
// TestMain/uop_test.go) so a dependence-analysis change that widens the
// worst case fails loudly; release builds saturate — the extra
// dependence is dropped, which can only make the schedule optimistic,
// never deadlock it.
var depOverflowPanic = false

func (u *uop) addDep(d *uop) {
	if d == nil || d.done || d == u {
		return
	}
	for i := 0; i < u.pendingDeps; i++ {
		if u.deps[i] == d {
			return
		}
	}
	if u.pendingDeps == maxDeps {
		if depOverflowPanic {
			panic("cpu: µop exceeds maxDeps distinct producers")
		}
		return
	}
	u.deps[u.pendingDeps] = d
	u.pendingDeps++
	d.dependents = append(d.dependents, u)
}

// uopPool recycles µops. Fields are reset at allocation so that a
// freed µop's squashed flag stays readable until the pool hands it out
// again; the dependents backing array is retained across reuse, which
// is what makes dependence bookkeeping allocation-free once every
// pooled µop has grown a large enough chunk.
type uopPool struct {
	free []*uop
}

func (p *uopPool) get() *uop {
	n := len(p.free)
	if n == 0 {
		return &uop{}
	}
	u := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	deps := u.dependents[:0]
	*u = uop{}
	u.dependents = deps
	return u
}

// put returns u to the pool. The caller must have removed every live
// reference to u (queues, writer tables, survivors' dependents); u's
// own fields are deliberately left intact until reallocation.
func (p *uopPool) put(u *uop) {
	p.free = append(p.free, u)
}

// seqHeap is a min-heap of µops ordered by age (sequence number); the
// scheduler issues oldest-first. It is a concrete (monomorphic)
// re-implementation of container/heap's sift algorithm: no interface
// boxing on push/pop, and — because sequence numbers in the queue are
// unique at any instant — the pop order is identical to the
// container/heap version it replaced.
type seqHeap []*uop

func (h *seqHeap) push(u *uop) {
	*h = append(*h, u)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[j].seq >= s[i].seq {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *seqHeap) pop() *uop {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	siftDownSeq(s, 0, n)
	u := s[n]
	s[n] = nil
	*h = s[:n]
	return u
}

func siftDownSeq(s []*uop, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s[j2].seq < s[j1].seq {
			j = j2
		}
		if s[j].seq >= s[i].seq {
			return
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// compact removes squashed entries in place and restores the heap
// property (container/heap Init order). Called at flush so recycled
// µops never linger in the scheduler.
func (h *seqHeap) compact() {
	s := *h
	k := 0
	for _, u := range s {
		if !u.squashed {
			s[k] = u
			k++
		}
	}
	for i := k; i < len(s); i++ {
		s[i] = nil
	}
	s = s[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDownSeq(s, i, k)
	}
	*h = s
}

// compEvent schedules a µop completion at an absolute cycle.
type compEvent struct {
	cycle uint64
	u     *uop
}

// compHeap is a concrete min-heap of completion events ordered by
// (cycle, seq). Keys are unique at any instant — a select µop shares
// its base µop's sequence number but always completes after the base
// event has been popped — so pop order matches container/heap exactly.
type compHeap []compEvent

func (h compHeap) less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].u.seq < h[j].u.seq
}

func (h *compHeap) push(e compEvent) {
	*h = append(*h, e)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *compHeap) pop() compEvent {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	siftDownComp(s, 0, n)
	e := s[n]
	s[n] = compEvent{}
	*h = s[:n]
	return e
}

func siftDownComp(s compHeap, i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			return
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

// compact removes events of squashed µops and restores the heap
// property.
func (h *compHeap) compact() {
	s := *h
	k := 0
	for _, e := range s {
		if !e.u.squashed {
			s[k] = e
			k++
		}
	}
	for i := k; i < len(s); i++ {
		s[i] = compEvent{}
	}
	s = s[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDownComp(s, i, k)
	}
	*h = s
}

// latency returns the execution latency of a non-load µop.
func latency(op isa.Op) uint64 {
	switch op {
	case isa.OpMul:
		return 4
	case isa.OpDiv, isa.OpRem:
		return 12
	default:
		return 1
	}
}
