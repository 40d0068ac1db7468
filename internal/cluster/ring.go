package cluster

import (
	"sort"
	"strconv"

	"wishbranch/internal/lab"
)

// DefaultReplicas is the number of virtual nodes each worker gets on
// the hash ring. More replicas smooth the key distribution across
// workers at the cost of a larger (still tiny) sorted point table.
const DefaultReplicas = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned
// by a worker.
type ringPoint struct {
	hash uint64
	w    *Worker
}

// Ring is an immutable consistent-hash ring over a set of workers.
// Every cache key hashes to a position; the first worker clockwise
// from that position is the key's home. Because the ring is built from
// worker URLs — not from the key set — adding or removing one worker
// re-homes only the keys that worker owned: every other worker's
// singleflight memo table and persistent store stay hot for its shard.
//
// Rings are rebuilt (never mutated) when membership changes; see
// Registry.Ring.
type Ring struct {
	points []ringPoint
}

// BuildRing places replicas virtual nodes per worker on the ring,
// hashing "URL#i" with the same lab.KeyHash that positions cache keys.
// Points are sorted by (hash, URL) so the ring — and therefore every
// key→worker assignment — is a pure function of the membership set.
func BuildRing(workers []*Worker, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	pts := make([]ringPoint, 0, len(workers)*replicas)
	for _, w := range workers {
		for i := 0; i < replicas; i++ {
			pts = append(pts, ringPoint{lab.KeyHash(w.URL + "#" + strconv.Itoa(i)), w})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].w.URL < pts[j].w.URL
	})
	return &Ring{points: pts}
}

// Lookup returns up to n distinct workers for key, in ring order: the
// first is the key's home, the rest are its failover successors.
// Walking clockwise from the key's hash position means the successor
// set is stable too — when a home worker dies, every one of its keys
// re-homes to the same node.
func (r *Ring) Lookup(key string, n int) []*Worker {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := lab.KeyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	out := make([]*Worker, 0, n)
	seen := make(map[string]bool, n)
	for range r.points {
		p := r.points[i]
		if !seen[p.w.URL] {
			seen[p.w.URL] = true
			out = append(out, p.w)
			if len(out) == n {
				break
			}
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}
