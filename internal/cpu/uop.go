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

// uid names a µop by its slot in the CPU's arena (CPU.uops). Slot 0 is
// never handed out, so the zero uid means "no µop": zeroed writer
// tables, store-table values and list links are all empty.
type uid int32

// wref names one dependence edge, the k-th producer slot of consumer
// u, as u<<3 | k; 0 ends a wakeup list. A producer's wakeup list
// threads through its consumers' depNext links, youngest consumer
// first, so an edge costs no storage outside the two µops it joins.
type wref int32

func edge(u uid, k int32) wref { return wref(u)<<3 | wref(k) }

// uop is one in-flight dynamic µop. µops live in a per-CPU arena and
// refer to each other by uid, so a uop holds no pointers: the arena is
// invisible to the garbage collector and the cycle loop does no
// write-barrier work. Fetch and rename allocate from the arena's free
// list and retire/flush return slots to it. All fields are reset at
// allocation (not at free), because a freed slot's squashed flag may
// still be examined later in the same cycle.
type uop struct {
	seq       uint64
	doneCycle uint64
	dispReady uint64

	// Scheduling. deps holds the producers recorded at rename; depNext
	// links this µop into each producer's wakeup list (wakeHead heads
	// this µop's own list of waiting consumers).
	pendingDeps int32
	wakeHead    wref
	deps        [maxDeps]uid
	depNext     [maxDeps]wref

	// Flags, grouped so the scheduler's checks share a cache line with
	// the fields above.
	done        bool
	squashed    bool
	wrongPath   bool
	isSelect    bool // injected select µop (select-µop predication)
	fwdStore    bool // load forwarded from an in-flight store
	guardVal    bool
	actualTaken bool // branches: architecturally correct direction
	isCond      bool
	predValid   bool // hybrid Lookup was performed (commit needed)
	takenFetch  bool // direction the front end followed
	dirPred     bool // final predictor direction (incl. loop-predictor override)
	mispredict  bool // fetch-detected real misprediction: flush at resolve
	deferred    bool // low-conf wish loop extra iteration: classify at resolve
	highConf    bool // confidence estimate (wish branches)
	// Predicate dependency elimination (recorded at fetch; §3.5.3).
	predElim    bool
	predElimVal bool
	loopCls     loopClass

	pc      int // static instruction (index into the program)
	flushPC int // branches: µop index fetch resumes at after a flush

	// Architectural facts captured at fetch from the emulator (shadow
	// values on the wrong path).
	addr uint64

	// Prediction state (branches).
	pred    bpred.Pred
	hist    uint64 // global history at fetch (before this branch)
	loopGen uint64 // wish loops: front-end loop generation at fetch
	rasTop  int
	rasVal  int
}

// depOverflowPanic makes addDep panic instead of saturating when a µop
// exceeds maxDeps distinct producers. Tests flip it on (see
// TestMain/uop_test.go) so a dependence-analysis change that widens the
// worst case fails loudly; release builds saturate — the extra
// dependence is dropped, which can only make the schedule optimistic,
// never deadlock it.
var depOverflowPanic = false

// addDep makes µop id (at u) wait for producer d: it records d and
// links the edge at the head of d's wakeup list. Rename runs in fetch
// order, so every list stays ordered youngest consumer first — which
// is what lets flush drop squashed consumers by popping a prefix.
func (c *CPU) addDep(id uid, u *uop, d uid) {
	if d == 0 || d == id {
		return
	}
	p := &c.uops[d]
	if p.done {
		return
	}
	k := u.pendingDeps
	for i := int32(0); i < k; i++ {
		if u.deps[i] == d {
			return
		}
	}
	if k == maxDeps {
		if depOverflowPanic {
			panic("cpu: µop exceeds maxDeps distinct producers")
		}
		return
	}
	u.deps[k] = d
	u.depNext[k] = p.wakeHead
	p.wakeHead = edge(id, k)
	u.pendingDeps = k + 1
}

// wake walks u's wakeup list at completion, counting down each waiting
// consumer and queueing those left with no pending producer. The order
// does not matter: the ready queue pops by unique sequence number.
func (c *CPU) wake(u *uop) {
	for e := u.wakeHead; e != 0; {
		id := uid(e >> 3)
		d := &c.uops[id]
		e = d.depNext[e&7]
		if d.squashed || d.done {
			continue // defensive: flush pops squashed consumers
		}
		d.pendingDeps--
		if d.pendingDeps == 0 {
			c.readyQ.push(d.seq, id)
		}
	}
	u.wakeHead = 0
}

// dropSquashedWaiters pops the squashed consumers off u's wakeup list.
// They are the youngest µops in the machine and the list is youngest
// first, so they form a prefix.
func (c *CPU) dropSquashedWaiters(u *uop) {
	e := u.wakeHead
	for e != 0 {
		d := &c.uops[e>>3]
		if !d.squashed {
			break
		}
		e = d.depNext[e&7]
	}
	u.wakeHead = e
}

// newUop takes a slot from the arena and resets it. The arena holds as
// many slots as the fetch queue and the window together, and fetch and
// rename allocate only once they know the µop fits, so running out is
// a programming error, like a fetch-queue overflow.
func (c *CPU) newUop() (uid, *uop) {
	n := len(c.free) - 1
	if n < 0 {
		panic("cpu: µop arena exhausted")
	}
	id := c.free[n]
	c.free = c.free[:n]
	u := &c.uops[id]
	*u = uop{}
	return id, u
}

// freeUop returns slot id to the arena. The caller must have removed
// every live reference to it (queues, writer tables, wakeup lists);
// the slot's fields stay intact until it is handed out again.
func (c *CPU) freeUop(id uid) { c.free = append(c.free, id) }

// readyEnt is a ready-queue entry: the issue key travels with the slot
// so sifting never touches the arena.
type readyEnt struct {
	seq uint64
	id  uid
}

// seqHeap is a min-heap of ready µops ordered by age (sequence
// number); the scheduler issues oldest-first. It is a concrete
// (monomorphic) re-implementation of container/heap's sift algorithm,
// and — because sequence numbers in the queue are unique at any
// instant — the pop order does not depend on push order.
type seqHeap []readyEnt

func (h *seqHeap) push(seq uint64, id uid) {
	*h = append(*h, readyEnt{seq, id})
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

func (h *seqHeap) pop() uid {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	siftDownSeq(s, 0, n)
	id := s[n].id
	*h = s[:n]
	return id
}

func siftDownSeq(s []readyEnt, i, n int) {
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
// slots never linger in the scheduler.
func (h *seqHeap) compact(uops []uop) {
	s := *h
	k := 0
	for _, e := range s {
		if !uops[e.id].squashed {
			s[k] = e
			k++
		}
	}
	s = s[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDownSeq(s, i, k)
	}
	*h = s
}

// compEvent schedules a µop completion at an absolute cycle; seq is the
// µop's, carried for ordering.
type compEvent struct {
	cycle uint64
	seq   uint64
	id    uid
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
	return h[i].seq < h[j].seq
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
func (h *compHeap) compact(uops []uop) {
	s := *h
	k := 0
	for _, e := range s {
		if !uops[e.id].squashed {
			s[k] = e
			k++
		}
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
