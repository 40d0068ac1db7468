// Package cache models the on-chip memory hierarchy of the paper's
// baseline machine (Table 2): a 64 KB 4-way 2-cycle L1 instruction
// cache, a 64 KB 4-way 2-cycle L1 data cache, a unified 1 MB 8-way
// 6-cycle 8-bank L2, all with 64-byte lines and LRU replacement, backed
// by memory with a 300-cycle minimum latency behind a 32-byte-wide
// core-to-memory bus running at a 4:1 frequency ratio.
//
// The model is latency/occupancy based: an access returns the absolute
// cycle at which its data is available, accounting for hit latency,
// lower-level miss service, bank busy time, and bus serialization.
package cache

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   int // hit latency in cycles
	Banks     int // 0 or 1 = unbanked
}

// Stats accumulates per-level counters.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative write-back, write-allocate cache level.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	tags      []uint64 // tag+1; 0 = invalid
	dirty     []bool
	lru       []uint32
	ready     []uint64 // cycle the line's fill completes (0 = long resident)
	clock     uint32
	bankMask  uint64
	bankFree  []uint64

	next backend

	Stats Stats
}

// backend is the level an access falls through to on a miss.
type backend interface {
	// fill services a miss for the line containing addr, starting no
	// earlier than cycle, and returns the cycle the line arrives.
	fill(addr uint64, cycle uint64) uint64
}

// New builds a cache level on top of next (a lower Cache or a Memory).
func New(cfg Config, next backend) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a power of two: " + cfg.Name)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines <= 0 || cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		panic("cache: size/line/ways mismatch: " + cfg.Name)
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two: " + cfg.Name)
	}
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, lines),
		dirty:   make([]bool, lines),
		lru:     make([]uint32, lines),
		ready:   make([]uint64, lines),
		next:    next,
	}
	ls := uint(0)
	for 1<<ls < cfg.LineBytes {
		ls++
	}
	c.lineShift = ls
	banks := cfg.Banks
	if banks <= 1 {
		banks = 1
	}
	if banks&(banks-1) != 0 {
		panic("cache: bank count must be a power of two: " + cfg.Name)
	}
	c.bankMask = uint64(banks - 1)
	c.bankFree = make([]uint64, banks)
	return c
}

// Access looks up addr starting at the given cycle and returns the
// absolute cycle the data is available. Writes allocate like reads and
// mark the line dirty (write-back); dirty evictions are charged to the
// lower level's bandwidth but do not delay the access that caused them.
func (c *Cache) Access(addr uint64, cycle uint64, write bool) uint64 {
	c.Stats.Accesses++
	line := addr >> c.lineShift
	bank := int(line & c.bankMask)
	start := cycle
	if c.bankFree[bank] > start {
		start = c.bankFree[bank]
	}
	c.bankFree[bank] = start + 1 // pipelined: one new access per bank per cycle

	set := line & c.setMask
	base := int(set) * c.cfg.Ways
	tag := line + 1
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == tag {
			c.clock++
			c.lru[base+w] = c.clock
			if write {
				c.dirty[base+w] = true
			}
			// A hit on a line whose fill is still in flight cannot
			// complete before the fill does (MSHR merge semantics).
			done := start + uint64(c.cfg.Latency)
			if r := c.ready[base+w]; r > done {
				done = r
			}
			return done
		}
	}

	// Miss: fill from below.
	c.Stats.Misses++
	done := c.next.fill(addr, start+uint64(c.cfg.Latency))
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == 0 {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	if c.tags[victim] != 0 && c.dirty[victim] {
		// Write back the victim; consumes lower-level bandwidth only.
		victimAddr := (c.tags[victim] - 1) << c.lineShift
		c.next.fill(victimAddr, done)
	}
	c.clock++
	c.tags[victim] = tag
	c.dirty[victim] = write
	c.lru[victim] = c.clock
	c.ready[victim] = done
	return done
}

// fill lets a Cache serve as the backend of a higher level.
func (c *Cache) fill(addr uint64, cycle uint64) uint64 {
	return c.Access(addr, cycle, false)
}

// Contains reports whether the line holding addr is present (for tests).
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// Memory is the DRAM + bus model terminating the hierarchy.
type Memory struct {
	// MinLatency is the paper's 300-cycle minimum memory latency.
	MinLatency int
	// Banks is the number of DRAM banks (the paper uses 32); a bank is
	// busy for BankBusy cycles per access.
	Banks    int
	BankBusy int
	// BusCycles is the core-cycle cost of moving one line over the
	// core-to-memory bus: a 64-byte line over a 32-byte bus at a 4:1
	// frequency ratio is 2 transfers × 4 cycles = 8 cycles.
	BusCycles int

	bankFree []uint64
	busFree  uint64

	Stats Stats
}

// NewMemory returns the Table 2 memory model.
func NewMemory() *Memory {
	return &Memory{MinLatency: 300, Banks: 32, BankBusy: 64, BusCycles: 8}
}

func (m *Memory) fill(addr uint64, cycle uint64) uint64 {
	m.Stats.Accesses++
	m.Stats.Misses++
	if m.bankFree == nil {
		if m.Banks <= 0 || m.Banks&(m.Banks-1) != 0 {
			panic("cache: memory bank count must be a power of two")
		}
		m.bankFree = make([]uint64, m.Banks)
	}
	bank := int(addr >> 6 & uint64(m.Banks-1))
	start := cycle
	if m.bankFree[bank] > start {
		start = m.bankFree[bank]
	}
	m.bankFree[bank] = start + uint64(m.BankBusy)
	ready := start + uint64(m.MinLatency)
	busStart := ready
	if m.busFree > busStart {
		busStart = m.busFree
	}
	m.busFree = busStart + uint64(m.BusCycles)
	return busStart + uint64(m.BusCycles)
}

// Hierarchy bundles the Table 2 memory system.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Mem *Memory
}

// HierarchyConfig allows overriding the defaults; zero fields use
// Table 2 values.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
}

// DefaultHierarchyConfig returns Table 2's cache parameters.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L1D: Config{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, Latency: 2},
		L2:  Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 8, Latency: 6, Banks: 8},
	}
}

// NewHierarchy builds the full memory system.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	mem := NewMemory()
	l2 := New(cfg.L2, mem)
	return &Hierarchy{
		L1I: New(cfg.L1I, l2),
		L1D: New(cfg.L1D, l2),
		L2:  l2,
		Mem: mem,
	}
}

// AccessI fetches instruction bytes at addr; returns data-ready cycle.
func (h *Hierarchy) AccessI(addr uint64, cycle uint64) uint64 {
	return h.L1I.Access(addr, cycle, false)
}

// AccessD performs a data access; returns data-ready cycle.
func (h *Hierarchy) AccessD(addr uint64, cycle uint64, write bool) uint64 {
	return h.L1D.Access(addr, cycle, write)
}
