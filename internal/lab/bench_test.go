package lab

import (
	"fmt"
	"testing"

	"wishbranch/internal/cpu"
	"wishbranch/internal/obs"
)

// benchResult builds a store-shaped result with a realistic branch
// table, so the warm-read benchmark pays representative decode costs.
func benchResult() *cpu.Result {
	r := &cpu.Result{Cycles: 123456, RetiredUops: 654321, Halted: true}
	for i := 0; i < 16; i++ {
		r.Branches = append(r.Branches, obs.BranchStat{
			PC: 64 * i, Retired: uint64(1000 + i), Mispredicts: uint64(i),
		})
	}
	return r
}

// BenchmarkStoreWarm measures the warm hit path a cached campaign
// lives on: GetHashed with a precomputed hash against a binary record
// already on disk. The file read dominates; allocations cover the read
// buffer plus the decoded Result and its branch slice.
func BenchmarkStoreWarm(b *testing.B) {
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := testSpec().Keyed()
	if err := st.PutHashed(k.Key, k.Hash, benchResult()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := st.GetHashed(k.Key, k.Hash); r == nil {
			b.Fatal("warm store missed")
		}
	}
}

// BenchmarkSpecKeyed measures the key cache's hit path, which a warm
// campaign takes about six times per distinct spec (every experiment
// that reads a run keys it again): no reflection, no SHA-256, no
// allocation.
func BenchmarkSpecKeyed(b *testing.B) {
	s := testSpec()
	s.Keyed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKeyed = s.Keyed()
	}
}

var benchKeyed Keyed

// BenchmarkStorePut measures the durable write path (temp file, fsync,
// rename) — the cost a cold campaign pays once per fresh simulation.
func BenchmarkStorePut(b *testing.B) {
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := benchResult()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("bench-put-%d", i)
		if err := st.Put(key, r); err != nil {
			b.Fatal(err)
		}
	}
}
