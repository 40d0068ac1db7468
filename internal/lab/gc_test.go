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

// putN writes n records and returns the per-record on-disk size, its
// frame's (all records here encode to the same size).
func putN(t *testing.T, st *Store, n int) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.Put(gcKey(i), gcResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, size := frameOf(t, st, gcKey(0))
	return size
}

func TestStoreGCEvictsLRU(t *testing.T) {
	st := openStore(t, t.TempDir())
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
// learns existing sizes and evicts the oldest-written record first: by
// segment modification time, then by offset within a segment.
func TestStoreGCScanSeedsFromModTime(t *testing.T) {
	dir := t.TempDir()
	// Record 1 in a segment of its own, written by a store that has
	// finished, and made clearly the oldest regardless of filesystem
	// timestamp granularity.
	first, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put(gcKey(1), gcResult(1)); err != nil {
		t.Fatal(err)
	}
	oldSeg, _, size := frameOf(t, first, gcKey(1))
	first.Close()
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(oldSeg, old, old); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	for _, i := range []int{0, 2} {
		if err := st.Put(gcKey(i), gcResult(i)); err != nil {
			t.Fatal(err)
		}
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
	if _, err := os.Stat(oldSeg); !os.IsNotExist(err) {
		t.Errorf("the emptied segment of a finished writer was not unlinked: %v", err)
	}

	// Within one segment, the record at the lower offset is older.
	if err := st.SetMaxBytes(size); err != nil {
		t.Fatal(err)
	}
	if st.Get(gcKey(0)) != nil || st.Get(gcKey(2)) == nil {
		t.Error("the later-written record was evicted instead of the earlier one")
	}
}

func TestStoreGCDisable(t *testing.T) {
	st := openStore(t, t.TempDir())
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
	st := openStore(t, t.TempDir())
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
	_, _, size := frameOf(t, st, gcKey(0))
	if err := st.SetMaxBytes(2 * size); err != nil {
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

// TestStoreBoundHoldsOnDisk: under a 20-record bound, 500 puts never
// leave more than the bound on disk — walked after every put — and
// Bytes is what the walk finds. The 20 most recently written records
// survive, and every other record was evicted once.
func TestStoreBoundHoldsOnDisk(t *testing.T) {
	const n = 500
	dir := t.TempDir()
	st := openStore(t, dir)
	// The last record is the largest: its varints are the longest.
	if err := st.Put(gcKey(n-1), gcResult(n-1)); err != nil {
		t.Fatal(err)
	}
	_, _, size := frameOf(t, st, gcKey(n-1))
	if err := st.SetMaxBytes(20 * size); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(gcKey(i), gcResult(i)); err != nil {
			t.Fatal(err)
		}
		files, onDisk := schemaFiles(t, dir)
		if onDisk > st.MaxBytes() || onDisk != st.Bytes() {
			t.Fatalf("after put %d: %d bytes in %d files on disk, Bytes %d, bound %d",
				i, onDisk, len(files), st.Bytes(), st.MaxBytes())
		}
	}
	kept := 0
	for i := 0; i < n; i++ {
		if st.Get(gcKey(i)) != nil {
			kept++
		} else if i >= n-20 {
			t.Errorf("record %d, among the last 20 written, was evicted", i)
		}
	}
	if int(st.Evictions()) != n+1-kept { // the first record was put twice
		t.Errorf("evictions = %d with %d of %d records kept", st.Evictions(), kept, n)
	}
}

// TestStoreReclaimSkipsLiveWriter: a bounded store never unlinks a
// segment another open store holds; its records are not victims. Once
// that writer closes, the segment is fair game.
func TestStoreReclaimSkipsLiveWriter(t *testing.T) {
	dir := t.TempDir()
	writer := openStore(t, dir)
	size := putN(t, writer, 2)
	held, _, _ := frameOf(t, writer, gcKey(0))

	st := openStore(t, dir)
	if err := st.Put(gcKey(2), gcResult(2)); err != nil {
		t.Fatal(err)
	}
	if err := st.SetMaxBytes(2 * size); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(held); err != nil {
		t.Fatalf("a live writer's segment was unlinked: %v", err)
	}
	if st.Get(gcKey(0)) == nil || st.Get(gcKey(1)) == nil || st.Get(gcKey(2)) != nil {
		t.Error("victims came from a live writer's segment instead of the store's own")
	}

	writer.Close()
	if err := st.Put(gcKey(3), gcResult(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(held); !os.IsNotExist(err) {
		t.Errorf("a finished writer's segment was kept past the bound: %v", err)
	}
	if files, onDisk := schemaFiles(t, dir); onDisk > st.MaxBytes() {
		t.Errorf("%d bytes in %v on disk, bound %d", onDisk, files, st.MaxBytes())
	}
	if st.Get(gcKey(3)) == nil {
		t.Error("the newest record was evicted")
	}
}
