package lab

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"wishbranch/internal/cpu"
)

// gcResult builds a result whose encoded record is a few hundred bytes,
// so byte bounds in these tests are easy to reason about.
func gcResult(i int) *cpu.Result {
	r := &cpu.Result{Cycles: uint64(i) + 1, RetiredUops: uint64(i) * 7, Halted: true}
	for j := range r.Acct.Buckets {
		r.Acct.Buckets[j] = uint64(i + j)
	}
	return r
}

func gcKey(i int) string { return fmt.Sprintf("gc-key-%d", i) }

// putN writes n records and returns the per-record on-disk size (all
// records here encode to the same size).
func putN(t *testing.T, st *Store, n int) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Put(gcKey(i), gcResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(st.path(hashKey(gcKey(0))))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestStoreGCEvictsLRU(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := putN(t, st, 1)
	// Bound: room for exactly 3 records.
	if err := st.SetMaxBytes(3 * size); err != nil {
		t.Fatal(err)
	}
	putN(t, st, 3)
	if st.Bytes() != 3*size || st.Evictions() != 0 {
		t.Fatalf("3 records: bytes=%d evictions=%d", st.Bytes(), st.Evictions())
	}

	// Touch key 0 so key 1 becomes the LRU victim.
	if st.Get(gcKey(0)) == nil {
		t.Fatal("warm get missed")
	}
	if err := st.Put(gcKey(3), gcResult(3)); err != nil {
		t.Fatal(err)
	}
	if st.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions())
	}
	if st.Bytes() > st.MaxBytes() {
		t.Fatalf("bytes %d over bound %d after eviction", st.Bytes(), st.MaxBytes())
	}
	if st.Get(gcKey(1)) != nil {
		t.Error("LRU record survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if st.Get(gcKey(i)) == nil {
			t.Errorf("recently-used record %d was evicted", i)
		}
	}
}

// TestStoreGCScanSeedsFromModTime: SetMaxBytes on a pre-populated store
// learns existing sizes and evicts oldest-modified first.
func TestStoreGCScanSeedsFromModTime(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := putN(t, st, 3)
	// Make record 1 clearly the oldest regardless of filesystem
	// timestamp granularity.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(st.path(hashKey(gcKey(1))), old, old); err != nil {
		t.Fatal(err)
	}
	if err := st.SetMaxBytes(2 * size); err != nil {
		t.Fatal(err)
	}
	if st.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1 (already over bound at scan)", st.Evictions())
	}
	if st.Get(gcKey(1)) != nil {
		t.Error("oldest record survived the scan eviction")
	}
	if st.Get(gcKey(0)) == nil || st.Get(gcKey(2)) == nil {
		t.Error("newer records were evicted instead of the oldest")
	}
	if st.Bytes() != 2*size {
		t.Errorf("Bytes = %d, want %d", st.Bytes(), 2*size)
	}
}

func TestStoreGCDisable(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := putN(t, st, 2)
	if err := st.SetMaxBytes(10 * size); err != nil {
		t.Fatal(err)
	}
	if st.MaxBytes() == 0 || st.Bytes() == 0 {
		t.Fatal("bound not active after SetMaxBytes")
	}
	if err := st.SetMaxBytes(0); err != nil {
		t.Fatal(err)
	}
	if st.MaxBytes() != 0 || st.Bytes() != 0 || st.Evictions() != 0 {
		t.Error("SetMaxBytes(0) did not disable the bound")
	}
	// Unbounded again: puts must not evict.
	putN(t, st, 2)
	if st.Get(gcKey(0)) == nil || st.Get(gcKey(1)) == nil {
		t.Error("record lost with the bound disabled")
	}
}

// TestEvictionNeverBreaksCampaign is the GC's safety contract: a bound
// far too small for the campaign degrades the store to misses — every
// result is still produced, still correct, and the campaign completes.
func TestEvictionNeverBreaksCampaign(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	var calls atomic.Uint64
	backend := func(_ context.Context, s Spec) (*cpu.Result, error) {
		calls.Add(1)
		var i int
		fmt.Sscanf(s.Bench, "synthetic-%d", &i)
		return gcResult(i), nil
	}
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Bench: fmt.Sprintf("synthetic-%d", i), Scale: 1}
	}

	// Bound: barely two records. Almost every Put triggers an eviction.
	if err := st.Put(gcKey(0), gcResult(0)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(st.path(hashKey(gcKey(0))))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMaxBytes(2 * fi.Size()); err != nil {
		t.Fatal(err)
	}

	l := New()
	l.Workers = 2
	l.Store = st
	l.Backend = backend
	l.Warm(specs)
	if st.Evictions() == 0 {
		t.Fatal("campaign under a 2-record bound caused no evictions")
	}
	for i, s := range specs {
		r, err := l.Result(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != uint64(i)+1 {
			t.Errorf("spec %d: wrong result after evictions: cycles=%d", i, r.Cycles)
		}
	}
	c := l.Counters()
	if c.Fresh != n {
		t.Errorf("fresh = %d, want %d", c.Fresh, n)
	}

	// A second, fresh scheduler over the GC'd store: evicted records are
	// just misses that re-produce — same results, no errors.
	l2 := New()
	l2.Store = st
	l2.Backend = backend
	for i, s := range specs {
		r, err := l2.Result(s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != uint64(i)+1 {
			t.Errorf("spec %d: wrong result on cold re-read", i)
		}
	}
	if got := l2.Counters(); got.Fresh+got.DiskHits != n {
		t.Errorf("second pass: fresh+hits = %d, want %d", got.Fresh+got.DiskHits, n)
	}
}
