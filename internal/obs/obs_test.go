package obs

import "testing"

func TestBucketNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Buckets() {
		name := b.String()
		if name == "" {
			t.Errorf("bucket %d has no name", b)
		}
		if seen[name] {
			t.Errorf("duplicate bucket name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != int(NumBuckets) {
		t.Errorf("%d named buckets, want %d", len(seen), NumBuckets)
	}
	if got := Bucket(200).String(); got != "bucket-200" {
		t.Errorf("out-of-range bucket name = %q", got)
	}
}

func TestAccountingTotalAndShare(t *testing.T) {
	var a Accounting
	if a.Total() != 0 || a.Share(UsefulRetire) != 0 {
		t.Error("empty accounting is not zero")
	}
	a.Buckets[UsefulRetire] = 75
	a.Buckets[FlushRecovery] = 25
	if a.Total() != 100 {
		t.Errorf("total = %d, want 100", a.Total())
	}
	if s := a.Share(FlushRecovery); s != 0.25 {
		t.Errorf("share = %v, want 0.25", s)
	}
}

// TestBranchTableSortedAndSums drives the table through an
// interleaved first-use order with ties in every sort key, so an
// ordering bug surfaces, and checks the sorted order, the per-branch
// sums, and the flush-cycle total over Sorted().
func TestBranchTableSortedAndSums(t *testing.T) {
	tab := NewBranchTable(64)
	ops := []struct {
		pc          int
		flush, misp uint64
	}{
		{30, 10, 0}, {10, 100, 2}, {20, 10, 5}, {40, 0, 0},
		{10, 0, 1}, {5, 10, 5}, {63, 10, 0},
	}
	for _, op := range ops {
		r := tab.At(op.pc)
		r.FlushCycles += op.flush
		r.Mispredicts += op.misp
		r.Retired++
	}
	if tab.Len() != 6 {
		t.Fatalf("len = %d, want 6", tab.Len())
	}
	got := tab.Sorted()
	// Cycles desc, then mispredicts desc, then pc asc.
	wantPCs := []int{10, 5, 20, 30, 63, 40}
	if len(got) != len(wantPCs) {
		t.Fatalf("sorted = %v, want PCs %v", got, wantPCs)
	}
	var flushSum uint64
	for i, want := range wantPCs {
		if got[i].PC != want {
			t.Fatalf("sorted order = %v, want PCs %v", got, wantPCs)
		}
		flushSum += got[i].FlushCycles
	}
	if flushSum != 140 {
		t.Errorf("flush cycle sum over Sorted() = %d, want 140", flushSum)
	}
	if r := got[0]; r.FlushCycles != 100 || r.Mispredicts != 3 || r.Retired != 2 {
		t.Errorf("pc 10 = %+v, want 100 flush cycles, 3 mispredicts, 2 retired", r)
	}
	// At returns the same record on re-lookup.
	if tab.At(10).FlushCycles != 100 {
		t.Error("At did not return the existing record")
	}
}

func TestRingWrapAndCounts(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Cycle: uint64(i), Seq: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d (oldest-to-newest)", i, e.Cycle, want)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Record(Event{Cycle: 1, Kind: EvFetch})
	r.Record(Event{Cycle: 2, Kind: EvRetire, Arg: 1})
	evs := r.Events()
	if len(evs) != 2 || r.Dropped() != 0 {
		t.Fatalf("retained %d dropped %d, want 2/0", len(evs), r.Dropped())
	}
}

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Record(Event{Cycle: 1}) // must not panic
	if r.Events() != nil || r.Total() != 0 || r.Dropped() != 0 {
		t.Error("nil ring is not empty")
	}
}

func TestEventStrings(t *testing.T) {
	cases := map[string]Event{
		"fetch":        {Kind: EvFetch},
		"rename":       {Kind: EvRename},
		"retire":       {Kind: EvRetire},
		"flush":        {Kind: EvFlush, Arg: 3},
		"(3 squashed)": {Kind: EvFlush, Arg: 3},
		"(wrong path)": {Kind: EvFetch, Arg: 1},
		"(select µop)": {Kind: EvRetire, Arg: 1},
	}
	for want, e := range cases {
		if s := e.String(); !contains(s, want) {
			t.Errorf("event %+v rendered %q, missing %q", e, s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(4096)
	e := Event{Cycle: 1, Seq: 2, PC: 3, Kind: EvFetch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cycle = uint64(i)
		r.Record(e)
	}
}
