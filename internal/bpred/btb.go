package bpred

// BTB is a set-associative branch target buffer with LRU replacement.
// It models only hit/miss timing: a hit lets fetch redirect to a taken
// target in the same cycle. The paper extends each BTB entry with the
// wish-branch hint bits (§3.5.1) so fetch can act on wish semantics
// before decode; the front end reads those bits from the decoded
// instruction instead, so an entry holds no payload.
type BTB struct {
	ways    int
	setMask uint64
	tags    []uint64 // way w of set s at s*ways+w; 0 = invalid, else pc+1
	lru     []uint32 // same layout as tags
	clock   uint32
}

// NewBTB builds a BTB with the given number of entries (power of two)
// and associativity. The paper's baseline is 4K entries, 4-way.
func NewBTB(entries, ways int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 || ways <= 0 || entries%ways != 0 {
		panic("bpred: BTB entries must be a power of two divisible by ways")
	}
	return &BTB{
		ways:    ways,
		setMask: uint64(entries/ways - 1),
		tags:    make([]uint64, entries),
		lru:     make([]uint32, entries),
	}
}

// set returns the tag and LRU entries of pc's set.
func (b *BTB) set(pc uint64) ([]uint64, []uint32) {
	i := int(pc&b.setMask) * b.ways
	return b.tags[i : i+b.ways], b.lru[i : i+b.ways]
}

// Lookup reports whether the branch at pc hits, and marks a hit most
// recently used.
func (b *BTB) Lookup(pc uint64) bool {
	tags, lru := b.set(pc)
	for w, t := range tags {
		if t == pc+1 {
			b.clock++
			lru[w] = b.clock
			return true
		}
	}
	return false
}

// Insert installs pc, or refreshes it if present, evicting LRU on
// conflict.
func (b *BTB) Insert(pc uint64) {
	tags, lru := b.set(pc)
	victim := 0
	for w, t := range tags {
		if t == pc+1 || t == 0 {
			victim = w
			break
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	b.clock++
	tags[victim] = pc + 1
	lru[victim] = b.clock
}

// RAS is a fixed-depth return address stack with overwrite-on-overflow
// semantics and cheap top-of-stack repair.
type RAS struct {
	stack []int
	top   int // index of next push slot
}

// NewRAS returns a RAS with the given depth (the paper uses 64).
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("bpred: RAS depth must be positive")
	}
	return &RAS{stack: make([]int, depth)}
}

// Push records a return address (µop index) at a call.
func (r *RAS) Push(retPC int) {
	r.stack[r.top] = retPC
	r.top = (r.top + 1) % len(r.stack)
}

// Pop predicts the target of a return.
func (r *RAS) Pop() int {
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	return r.stack[r.top]
}

// Snapshot captures top-of-stack state for flush repair.
func (r *RAS) Snapshot() (top int, val int) {
	return r.top, r.stack[r.top%len(r.stack)]
}

// Restore rewinds to a snapshot (TOS-pointer repair; entries clobbered
// by deeper wrong-path call/return pairs are not recovered, as in real
// hardware without a full checkpoint).
func (r *RAS) Restore(top, val int) {
	r.top = top
	r.stack[top%len(r.stack)] = val
}

// IndirectCache predicts indirect branch targets: a direct-mapped table
// indexed by PC XORed with global history (the paper's 64K-entry
// indirect target cache).
type IndirectCache struct {
	targets []int
	mask    uint64
}

// NewIndirectCache builds the cache; entries must be a power of two.
func NewIndirectCache(entries int) *IndirectCache {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: indirect cache entries must be a power of two")
	}
	t := make([]int, entries)
	for i := range t {
		t[i] = -1
	}
	return &IndirectCache{targets: t, mask: uint64(entries - 1)}
}

// Lookup predicts the target for the indirect branch at pc under
// history hist; ok is false if no target has been learned.
func (c *IndirectCache) Lookup(pc, hist uint64) (int, bool) {
	t := c.targets[(pc^hist)&c.mask]
	return t, t >= 0
}

// Update learns the actual target.
func (c *IndirectCache) Update(pc, hist uint64, target int) {
	c.targets[(pc^hist)&c.mask] = target
}
