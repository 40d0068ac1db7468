// Package artifact is the once-per-process build+compile cache.
//
// A campaign sweeps machine configurations far more often than it
// sweeps programs: `wishbench -exp all` runs 558 simulations over only
// a few dozen distinct (bench, input, scale, variant, thresholds)
// combinations. Before this cache every lab.Spec.simulate re-ran
// workload.Build (which synthesizes the whole scaled input data set)
// and compiler.CompileOpt from scratch; now the first simulation of a
// combination builds the artifact under a singleflight guard and every
// later one — concurrent or sequential — shares the same compiled
// *prog.Program. The hit path is a mutex + map lookup: zero
// allocations (TestArtifactHitZeroAlloc).
//
// The data image is shared one level further out. workload.Build takes
// only (bench, input, scale), so variant and thresholds cannot shape the
// image, and every artifact of one (bench, input, scale) shares one
// workload build: its source, compiled per variant, and one frozen
// emu.Image. The image is synthesized on the first call of an
// artifact's Mem — not in Get, so callers that only compile pay
// nothing for it — and every later run maps it into its fresh
// emu.Memory copy-on-write instead of re-synthesizing it. Keying the
// image by artifact instead would hold one copy per variant and
// threshold pair: the mcf stand-in's 12 MB pointer-chase image, which is
// what reproduces the paper's §5.1 mcf result, dozens of times over.
//
// Sharing is safe because artifacts are immutable after construction:
// nothing in the simulator writes prog.Code — cpu.New builds per-CPU
// tables from it, µops hold *isa.Inst pointers into it but only read —
// and nothing writes an image's pages, since a Memory copies a page
// before its first store to it. That audit is enforced, not assumed:
// TestArtifactSharedProgramRaceFree runs many CPUs over one cached
// program and one image under -race, and TestArtifactMutationGuard
// re-fingerprints cached programs and images after heavy use
// (Artifact.Verify: FNV-1a over every instruction field plus entry and
// block structure, and over every page of the image).
package artifact

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
	"wishbranch/internal/prog"
	"wishbranch/internal/workload"
)

// Key identifies one artifact: everything workload.Build and
// compiler.CompileOpt consume, and nothing they don't (machine
// configuration and cycle limits do not shape the binary). The struct
// is comparable by design — it is the cache's map key.
type Key struct {
	Bench      string
	Input      workload.Input
	Variant    compiler.Variant
	Scale      float64
	Thresholds compiler.Thresholds
}

// Artifact is one immutable build+compile product. Prog is shared by
// every simulation of the key, concurrently; treat it as read-only. Mem
// gives a fresh emu.Memory the workload's initial data: it shares the
// frozen image of the artifact's (bench, input, scale) into it,
// building that image on first use.
type Artifact struct {
	Prog *prog.Program
	Mem  workload.MemInit
	// Code is the artifact's code identity: the first program of the
	// same workload build whose Code and Entry equal Prog's, compared
	// instruction by instruction (a fingerprint collision would hand
	// one binary's results to another). Artifacts with equal Code run
	// the same instructions over the same data image, so two variants
	// or threshold pairs that compile alike simulate alike; equal code
	// built at another scale is another build and another identity.
	// Prog stays each artifact's own program: static statistics and
	// disassembly read its labels and block starts.
	Code *prog.Program

	// fp is the program fingerprint taken at construction, before the
	// artifact was ever shared. Verify re-derives it to prove no
	// simulation mutated the program.
	fp  uint64
	src *source
}

// srcKey identifies one workload build: workload.Build's arguments.
type srcKey struct {
	Bench string
	Input workload.Input
	Scale float64
}

// source is one workload build, shared by every artifact of its srcKey.
type source struct {
	src  *compiler.Source
	init workload.MemInit // synthesizes the data set; run once, into img

	imgOnce sync.Once
	img     *emu.Image

	codeMu sync.Mutex
	codes  []*prog.Program // the build's distinct programs, first compiled first
}

// intern returns the first program of the build whose code and entry
// equal p's, recording p if it is the first.
func (s *source) intern(p *prog.Program) *prog.Program {
	s.codeMu.Lock()
	defer s.codeMu.Unlock()
	for _, q := range s.codes {
		if q.Entry == p.Entry && slices.Equal(q.Code, p.Code) {
			return q
		}
	}
	s.codes = append(s.codes, p)
	return p
}

// image returns the frozen data image, building it on first use.
func (s *source) image() *emu.Image {
	s.imgOnce.Do(func() { s.img = emu.NewImage(s.init) })
	return s.img
}

// share is every artifact's Mem: it maps the image into m.
func (s *source) share(m *emu.Memory) { s.image().ShareInto(m) }

// slot is a singleflight slot: the first requester builds, everyone
// else waits on done. Errors are cached too — a key that cannot
// compile will not compile better the second time, and re-running the
// whole build to rediscover that would put the failure path's cost
// back on the campaign.
type slot[V any] struct {
	done chan struct{}
	val  V
	err  error
}

var (
	mu      sync.Mutex
	table   = map[Key]*slot[*Artifact]{}
	sources = map[srcKey]*slot[*source]{}
)

// once returns m's value for k, building it exactly once per process
// no matter how many goroutines ask concurrently. m is one of the
// package tables, which mu guards.
func once[K comparable, V any](m map[K]*slot[V], k K, build func(K) (V, error)) (V, error) {
	mu.Lock()
	s, ok := m[k]
	if !ok {
		s = &slot[V]{done: make(chan struct{})}
		m[k] = s
	}
	mu.Unlock()
	if !ok {
		s.val, s.err = build(k)
		close(s.done)
	}
	<-s.done
	return s.val, s.err
}

// Get returns the artifact for k, building it exactly once per process
// per key no matter how many goroutines ask concurrently.
func Get(k Key) (*Artifact, error) {
	return once(table, k, build)
}

func build(k Key) (*Artifact, error) {
	s, err := once(sources, srcKey{k.Bench, k.Input, k.Scale}, buildSource)
	if err != nil {
		return nil, err
	}
	p, err := compiler.CompileOpt(s.src, k.Variant, k.Thresholds)
	if err != nil {
		return nil, err
	}
	return &Artifact{Prog: p, Mem: s.share, Code: s.intern(p), fp: Fingerprint(p), src: s}, nil
}

func buildSource(k srcKey) (*source, error) {
	b, ok := workload.ByName(k.Bench)
	if !ok {
		return nil, fmt.Errorf("artifact: unknown benchmark %q", k.Bench)
	}
	src, init := b.Build(k.Input, k.Scale)
	return &source{src: src, init: init}, nil
}

// Verify re-fingerprints the shared program and the shared memory image
// and reports any drift — i.e. some simulation mutated what every other
// simulation of this key is reading. The program is checked against its
// construction-time fingerprint; the image against a fresh synthesis of
// the same data set, so building an image costs no fingerprint outside
// Verify. It exists for the mutation-guard test; a failure here is a
// correctness bug in the simulator, not a cache problem.
func (a *Artifact) Verify() error {
	if got := Fingerprint(a.Prog); got != a.fp {
		return fmt.Errorf("artifact: shared program mutated: fingerprint %#x, was %#x at build time", got, a.fp)
	}
	if got, want := a.src.image().Fingerprint(), emu.NewImage(a.src.init).Fingerprint(); got != want {
		return fmt.Errorf("artifact: shared memory image mutated: fingerprint %#x, a fresh build is %#x", got, want)
	}
	return nil
}

// Reset drops the process-wide cache, images included. Tests and the
// benchmark use it to force rebuilds; production code never needs it
// (artifacts are immutable and keys are complete).
func Reset() {
	mu.Lock()
	clear(table)
	clear(sources)
	mu.Unlock()
}

// Len reports the number of cached artifact keys (including in-flight
// builds).
func Len() int {
	mu.Lock()
	defer mu.Unlock()
	return len(table)
}

// Fingerprint hashes everything the simulator reads from a program:
// every field of every instruction, the entry point, and the block
// structure. FNV-1a over fixed-width words — deterministic, cheap
// enough to re-run after a campaign, and sensitive to any single-field
// mutation.
func Fingerprint(p *prog.Program) uint64 {
	h := fnv.New64a()
	var w [8]byte
	word := func(v uint64) {
		w[0] = byte(v)
		w[1] = byte(v >> 8)
		w[2] = byte(v >> 16)
		w[3] = byte(v >> 24)
		w[4] = byte(v >> 32)
		w[5] = byte(v >> 40)
		w[6] = byte(v >> 48)
		w[7] = byte(v >> 56)
		h.Write(w[:]) //nolint:errcheck // fnv never fails
	}
	word(uint64(p.Entry))
	word(uint64(len(p.Code)))
	for i := range p.Code {
		in := &p.Code[i]
		word(uint64(in.Op))
		word(uint64(in.Guard))
		word(uint64(in.Dst))
		word(uint64(in.Src1))
		word(uint64(in.Src2))
		word(uint64(in.Imm))
		if in.UseImm {
			word(1)
		} else {
			word(0)
		}
		word(uint64(in.CC))
		word(uint64(in.PDst))
		word(uint64(in.PDst2))
		word(uint64(in.PSrc1))
		word(uint64(in.PSrc2))
		word(uint64(in.BType))
		word(uint64(in.WType))
		word(uint64(in.Target))
	}
	word(uint64(len(p.BlockStarts)))
	for _, b := range p.BlockStarts {
		word(uint64(b))
	}
	return h.Sum64()
}
