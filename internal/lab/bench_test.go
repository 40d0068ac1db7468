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
// lives on: GetHashed against a frame already on disk, an index lookup
// and one positioned read. Allocations cover the frame buffer plus the
// decoded Result and its branch slice.
func BenchmarkStoreWarm(b *testing.B) {
	st := openStore(b, b.TempDir())
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

// BenchmarkStorePut measures the durable write path (one append of a
// frame to the active segment, then fsync) — the cost a cold campaign
// pays once per fresh simulation. The bounded case holds the store at
// 20 records, so every put evicts one and rewrites the segment that
// held it: the cost of a put under eviction pressure.
func BenchmarkStorePut(b *testing.B) {
	for _, bound := range []int64{0, 20} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			st := openStore(b, b.TempDir())
			r := benchResult()
			if err := st.Put("bench-put-size", r); err != nil {
				b.Fatal(err)
			}
			_, _, size := frameOf(b, st, "bench-put-size")
			if err := st.SetMaxBytes(bound * size); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("bench-put-%06d", i)
				if err := st.Put(key, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
