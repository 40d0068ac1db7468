package workload

// Deterministic data generation: a splitmix64 PRNG seeded from the
// benchmark name and input set, so every run of every experiment sees
// exactly the same "input file". (math/rand is avoided to keep the
// stream stable across Go releases.)

type rng struct{ s uint64 }

// newRNG seeds a generator from a benchmark name and input set.
func newRNG(bench string, in Input) *rng {
	h := uint64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(bench); i++ {
		h ^= uint64(bench[i])
		h *= 1099511628211
	}
	h ^= uint64(in+1) * 0x9E3779B97F4A7C15
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// Memory layout shared by the benchmarks: each array lives in its own
// region, far enough apart that regions never overlap at the sizes the
// workloads use.
const (
	dataBase = 1 << 20 // primary input array
	auxBase  = 1 << 22 // secondary array
	hashBase = 1 << 23 // hash-table region (sized to miss in L2)
	nodeBase = 1 << 27 // linked-structure region
)
