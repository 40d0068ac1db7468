package cluster

import (
	"sort"
	"testing"

	"wishbranch/internal/exp"
	"wishbranch/internal/lab"
)

// campaignKeys returns the distinct cache keys of a full-scale
// campaign, the traffic a coordinator places: every experiment's
// declared run-set, with no simulation.
func campaignKeys(t *testing.T) []string {
	t.Helper()
	l := exp.NewLab()
	seen := map[string]bool{}
	var keys []string
	for _, e := range exp.All() {
		if e.Runs == nil {
			continue
		}
		for _, s := range e.Runs(l) {
			if k := s.Key(); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	if len(keys) != 594 {
		t.Fatalf("the campaign declares %d distinct keys, want 594", len(keys))
	}
	return keys
}

// fleets are the worker URL sets the placement tests use: the three
// workers scripts/e2e_cluster.sh starts, and the README's example
// fleet.
var fleets = [][]string{
	{"http://127.0.0.1:18091", "http://127.0.0.1:18092", "http://127.0.0.1:18093"},
	{"http://h1:8081", "http://h2:8081", "http://h3:8081"},
}

// ranked returns r's workers, live or dead, in key's rendezvous order:
// the first is the key's home while it lives, and each later one is
// where the key goes while every worker before it is dead.
func ranked(r *Registry, key string) []*Worker {
	h := lab.KeyHash(key)
	ws := append([]*Worker(nil), r.Workers()...)
	sort.SliceStable(ws, func(i, j int) bool { return mix(h^ws[i].seed) > mix(h^ws[j].seed) })
	return ws
}

// homeCounts counts the keys each worker homes.
func homeCounts(r *Registry, keys []string) map[string]int {
	counts := map[string]int{}
	for _, k := range keys {
		counts[r.home(k).URL]++
	}
	return counts
}

// TestHomeBalancesTheCampaign: each of three workers homes at least a
// quarter of a campaign's keys, for both fleets, and placement is a
// function of the set of workers, not of the order they were listed
// in.
func TestHomeBalancesTheCampaign(t *testing.T) {
	keys := campaignKeys(t)
	for _, urls := range fleets {
		r := NewRegistry(urls)
		counts := homeCounts(r, keys)
		for _, u := range urls {
			if 4*counts[u] < len(keys) {
				t.Errorf("%s homes %d of %d keys, under a quarter (all: %v)", u, counts[u], len(keys), counts)
			}
		}

		reordered := NewRegistry([]string{urls[2], urls[0], urls[1]})
		for _, k := range keys {
			if a, b := r.home(k).URL, reordered.home(k).URL; a != b {
				t.Fatalf("key %q homes at %s, and at %s when the workers are listed in another order", k, a, b)
			}
		}
	}
}

// TestHomeDeathMovesOnlyItsKeys: marking a worker dead re-homes only
// the keys it homed, each to the worker that ranks next for it, and
// marking it live again moves every one of them back.
func TestHomeDeathMovesOnlyItsKeys(t *testing.T) {
	keys := campaignKeys(t)
	r := NewRegistry(fleets[0])
	before := make([]*Worker, len(keys))
	for i, k := range keys {
		before[i] = r.home(k)
	}

	victim := r.Workers()[1]
	r.MarkDead(victim)
	moved := 0
	for i, k := range keys {
		got := r.home(k)
		if before[i] != victim {
			if got != before[i] {
				t.Fatalf("key %q moved from %s to %s although its home lives", k, before[i].URL, got.URL)
			}
			continue
		}
		moved++
		if next := ranked(r, k)[1]; got != next {
			t.Errorf("key %q re-homed to %s, want %s, which ranks next for it", k, got.URL, next.URL)
		}
	}
	if moved == 0 {
		t.Fatal("the dead worker homed no key, so no move was checked")
	}

	r.MarkLive(victim)
	for i, k := range keys {
		if got := r.home(k); got != before[i] {
			t.Fatalf("key %q homes at %s after the resurrection, want %s again", k, got.URL, before[i].URL)
		}
	}
}

// TestHomeLiveSetEdges: placing a key allocates nothing, one live
// worker homes every key, and no live worker homes none.
func TestHomeLiveSetEdges(t *testing.T) {
	keys := campaignKeys(t)
	r := NewRegistry(fleets[1])
	if n := testing.AllocsPerRun(100, func() { r.home(keys[0]) }); n != 0 {
		t.Errorf("home allocates %v times per call, want 0", n)
	}
	ws := r.Workers()
	r.MarkDead(ws[0])
	r.MarkDead(ws[2])
	if n := homeCounts(r, keys)[ws[1].URL]; n != len(keys) {
		t.Errorf("the one live worker homes %d of %d keys, want all", n, len(keys))
	}

	r.MarkDead(ws[1])
	if w := r.home(keys[0]); w != nil {
		t.Errorf("home = %s with no live worker, want nil", w.URL)
	}
	if w := NewRegistry(nil).home(keys[0]); w != nil {
		t.Errorf("home = %s on an empty registry, want nil", w.URL)
	}
}
