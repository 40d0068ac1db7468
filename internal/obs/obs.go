// Package obs is the simulator's observability layer: cycle
// accounting, per-branch penalty attribution, a bounded event trace,
// and a schema-versioned machine-readable stats snapshot.
//
// The load-bearing contract is the accounting identity: every
// simulated cycle is attributed to exactly one Bucket of the stall
// taxonomy, so the buckets always partition total cycles —
//
//	Σ Accounting.Buckets == Result.Cycles
//
// and every flush-recovery cycle is simultaneously charged to the
// static branch whose flush is being recovered from, so
//
//	Σ BranchStat.FlushCycles == Accounting.Buckets[FlushRecovery].
//
// Both identities are enforced by TestCycleAccountingIdentity across
// all workloads × compiler variants × machine configurations, which
// makes the accounting a safe lens for optimizing the hot simulation
// loop: an attribution bug cannot hide as a plausible-looking skew.
//
// The package is a leaf: internal/cpu imports it to fill in the
// records; obs itself knows nothing about the pipeline.
package obs

import "fmt"

// Bucket is one cause in the stall taxonomy. Every simulated cycle
// belongs to exactly one bucket, decided by a fixed priority: retires
// beat stall attribution, flush recovery beats all other stalls, and
// an empty window is a front-end problem while a non-empty window is a
// back-end problem. See DESIGN.md §9 for the full decision tree.
type Bucket uint8

const (
	// UsefulRetire: at least one useful µop (not an injected select
	// µop, not a predicated-false NOP) retired this cycle.
	UsefulRetire Bucket = iota
	// WishNOP: µops retired this cycle, but all of them were
	// predication overhead — predicated-false NOPs flowing through a
	// low-confidence wish region, or injected select µops. This is the
	// paper's "useless predicated fetch" cost made visible.
	WishNOP
	// FlushRecovery: nothing retired and the pipeline is refilling
	// after a misprediction flush. Each such cycle is also charged to
	// the static branch that caused the flush (BranchStat.FlushCycles).
	FlushRecovery
	// PredSerial: nothing retired and the window head is a predicated
	// µop (or its select µop) still waiting to execute — the
	// predicate-dependence serialization of §2.1/Figure 2 (NO-DEPEND).
	PredSerial
	// ExecLatency: nothing retired and the window head is an
	// unpredicated µop still executing (load misses, long ops).
	ExecLatency
	// WindowFull: nothing retired, the head is executing, and dispatch
	// was blocked this cycle because the window is out of entries.
	WindowFull
	// FetchStall: nothing retired and the window is empty — the front
	// end has not delivered µops (pipeline fill after startup, or the
	// fetch queue is still marching through the front-end stages).
	FetchStall
	// Structural: nothing retired, the window is empty, and fetch is
	// stalled on a structural front-end event: an I-cache miss or a
	// BTB-miss decode bubble.
	Structural

	// NumBuckets is the taxonomy size.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"useful-retire",
	"wish-nop",
	"flush-recovery",
	"pred-serial",
	"exec-latency",
	"window-full",
	"fetch-stall",
	"structural",
}

func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket-%d", uint8(b))
}

// Buckets lists the taxonomy in canonical (report) order.
func Buckets() []Bucket {
	bs := make([]Bucket, NumBuckets)
	for i := range bs {
		bs[i] = Bucket(i)
	}
	return bs
}

// Accounting holds the per-bucket cycle counts of one run. The
// in-memory and JSON representation is a fixed-order array; bucket
// order is part of the snapshot and result-store schema, so reordering
// or extending the taxonomy requires a schema bump in both.
type Accounting struct {
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Total sums all buckets; by the accounting identity it equals the
// run's total cycle count.
func (a *Accounting) Total() uint64 {
	var t uint64
	for _, n := range a.Buckets {
		t += n
	}
	return t
}

// Share returns bucket b's fraction of all attributed cycles.
func (a *Accounting) Share(b Bucket) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(a.Buckets[b]) / float64(t)
}

// BranchStat is the attribution record of one static branch: how often
// it retired, how often it was mispredicted, how many flushes it
// caused, how many pipeline-refill cycles those flushes cost, and how
// the confidence estimator judged it (wish branches only).
type BranchStat struct {
	PC          int    `json:"pc"`
	Retired     uint64 `json:"retired"`
	Mispredicts uint64 `json:"mispredicts"`
	Flushes     uint64 `json:"flushes"`
	FlushCycles uint64 `json:"flush_cycles"`
	ConfHigh    uint64 `json:"conf_high"`
	ConfLow     uint64 `json:"conf_low"`
}

// BranchTable accumulates BranchStats by static PC during a run. It is
// a dense PC-indexed array: programs are small and PC-dense, so At is
// an array load and never allocates after construction. Sorted output
// does not depend on first-use order: the sort order is total (ties
// broken by PC).
type BranchTable struct {
	dense   []BranchStat
	seen    []bool
	touched []int32 // PCs with records, in first-use order
}

// NewBranchTable returns an empty table covering PCs [0, n).
// All storage is allocated up front; At never allocates.
func NewBranchTable(n int) *BranchTable {
	return &BranchTable{
		dense:   make([]BranchStat, n),
		seen:    make([]bool, n),
		touched: make([]int32, 0, n),
	}
}

// At returns the record for pc, creating it on first use.
func (t *BranchTable) At(pc int) *BranchStat {
	if !t.seen[pc] {
		t.seen[pc] = true
		t.dense[pc].PC = pc
		t.touched = append(t.touched, int32(pc))
	}
	return &t.dense[pc]
}

// Len returns the number of static branches recorded.
func (t *BranchTable) Len() int {
	return len(t.touched)
}

// Sorted flattens the table deterministically: most flush cycles
// first, then most mispredicts, then lowest PC — the "top offending
// branches" order.
func (t *BranchTable) Sorted() []BranchStat {
	out := make([]BranchStat, 0, len(t.touched))
	for _, pc := range t.touched {
		out = append(out, t.dense[pc])
	}
	// Insertion sort: tables are small (static branch count) and this
	// avoids pulling in sort for a leaf package hot path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && branchLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func branchLess(a, b BranchStat) bool {
	if a.FlushCycles != b.FlushCycles {
		return a.FlushCycles > b.FlushCycles
	}
	if a.Mispredicts != b.Mispredicts {
		return a.Mispredicts > b.Mispredicts
	}
	return a.PC < b.PC
}
