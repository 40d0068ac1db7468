package cluster

import (
	"fmt"
	"testing"
)

func mkWorkers(urls ...string) []*Worker {
	ws := make([]*Worker, len(urls))
	for i, u := range urls {
		ws[i] = &Worker{URL: u}
		ws[i].alive.Store(true)
	}
	return ws
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v3|bench=gzip|scale=%d|...", i)
	}
	return out
}

// TestRingDeterministicAndBalanced: the ring is a pure function of the
// membership set, and virtual nodes spread keys roughly evenly.
func TestRingDeterministicAndBalanced(t *testing.T) {
	ws := mkWorkers("http://a", "http://b", "http://c")
	r1 := BuildRing(ws, 0)
	r2 := BuildRing(ws, 0)
	counts := map[string]int{}
	for _, k := range keys(3000) {
		h1 := r1.Lookup(k, 1)[0]
		h2 := r2.Lookup(k, 1)[0]
		if h1 != h2 {
			t.Fatalf("key %q homed at %s and %s on identically-built rings", k, h1.URL, h2.URL)
		}
		counts[h1.URL]++
	}
	for url, n := range counts {
		if n < 3000*15/100 {
			t.Errorf("worker %s owns %d of 3000 keys — below the 15%% balance floor (distribution %v)",
				url, n, counts)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d of 3 workers own any keys: %v", len(counts), counts)
	}
}

// TestRingMinimalReshuffle is the consistent-hashing property that
// makes sharding worth having: removing one worker re-homes only the
// keys it owned — every other worker's shard (and therefore its warm
// memo table and store) is untouched — and each re-homed key lands on
// its old ring successor, the node failover was already pointed at.
func TestRingMinimalReshuffle(t *testing.T) {
	ws := mkWorkers("http://a", "http://b", "http://c")
	full := BuildRing(ws, 0)
	without := BuildRing([]*Worker{ws[0], ws[2]}, 0) // b removed

	moved := 0
	for _, k := range keys(3000) {
		cands := full.Lookup(k, 2)
		home, successor := cands[0], cands[1]
		newHome := without.Lookup(k, 1)[0]
		if home != ws[1] {
			if newHome != home {
				t.Fatalf("key %q moved from %s to %s although its home survived", k, home.URL, newHome.URL)
			}
			continue
		}
		moved++
		if newHome != successor {
			t.Errorf("key %q re-homed to %s, want its old successor %s", k, newHome.URL, successor.URL)
		}
	}
	if moved == 0 {
		t.Error("no key was homed at the removed worker — the reshuffle property went untested")
	}
}

// TestRingLookupShapes covers the edge shapes: distinctness, n beyond
// membership, the empty ring, and single-worker rings.
func TestRingLookupShapes(t *testing.T) {
	ws := mkWorkers("http://a", "http://b", "http://c")
	r := BuildRing(ws, 8)
	got := r.Lookup("some-key", 2)
	if len(got) != 2 || got[0] == got[1] {
		t.Errorf("Lookup(k, 2) = %v, want two distinct workers", got)
	}
	if got := r.Lookup("some-key", 10); len(got) != 3 {
		t.Errorf("Lookup(k, 10) returned %d workers, want all 3", len(got))
	}
	if got := r.Lookup("some-key", 0); got != nil {
		t.Errorf("Lookup(k, 0) = %v, want nil", got)
	}
	empty := BuildRing(nil, 0)
	if empty.Lookup("k", 1) != nil {
		t.Error("empty ring claims workers")
	}
	solo := BuildRing(ws[:1], 0)
	if got := solo.Lookup("k", 2); len(got) != 1 || got[0] != ws[0] {
		t.Error("single-worker ring does not route everything to it")
	}
}
