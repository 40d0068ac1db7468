package artifact

import (
	"sync"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/emu"
	"wishbranch/internal/workload"
)

func testKey(variant compiler.Variant) Key {
	return Key{
		Bench:      "gzip",
		Input:      workload.InputA,
		Variant:    variant,
		Scale:      0.05,
		Thresholds: compiler.DefaultThresholds(),
	}
}

// TestArtifactSingleflight: any number of concurrent first requests
// for one key build exactly one artifact — everyone gets the same
// pointer, and the table holds one entry.
func TestArtifactSingleflight(t *testing.T) {
	Reset()
	const goroutines = 16
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := Get(testKey(compiler.WishJumpJoin))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			arts[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("goroutine %d got a different artifact pointer than goroutine 0", i)
		}
	}
	if n := Len(); n != 1 {
		t.Fatalf("cache holds %d entries after %d concurrent gets of one key, want 1", n, goroutines)
	}
	if arts[0] == nil || arts[0].Prog == nil || arts[0].Mem == nil {
		t.Fatalf("incomplete artifact: %+v", arts[0])
	}
}

// TestArtifactDistinctKeys: keys differing in any component build
// distinct artifacts.
func TestArtifactDistinctKeys(t *testing.T) {
	Reset()
	a, err := Get(testKey(compiler.WishJumpJoin))
	if err != nil {
		t.Fatal(err)
	}
	variants := []Key{
		testKey(compiler.NormalBranch),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Scale = 0.1; return k }(),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Input = workload.InputB; return k }(),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Bench = "mcf"; return k }(),
		func() Key { k := testKey(compiler.WishJumpJoin); k.Thresholds.WishJump++; return k }(),
	}
	for i, k := range variants {
		b, err := Get(k)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if b == a {
			t.Errorf("variant %d shares the base key's artifact", i)
		}
	}
	if n := Len(); n != 1+len(variants) {
		t.Fatalf("cache holds %d entries, want %d", n, 1+len(variants))
	}
}

// TestArtifactErrors: an unknown benchmark fails, and the failure is
// cached (same singleflight slot, not a rebuild per request).
func TestArtifactErrors(t *testing.T) {
	Reset()
	k := testKey(compiler.WishJumpJoin)
	k.Bench = "no-such-bench"
	if _, err := Get(k); err == nil {
		t.Fatal("unknown benchmark built successfully")
	}
	if _, err := Get(k); err == nil {
		t.Fatal("cached failure turned into success")
	}
	if n := Len(); n != 1 {
		t.Fatalf("error entry not cached: %d entries", n)
	}
}

// TestArtifactHitZeroAlloc pins the hit path at zero allocations: a
// warm Get is a mutex and a map probe, nothing else. This is the
// "artifact-cache hit path" half of the PR's allocation acceptance
// criterion (the codec half lives in cpu.TestResultCodecZeroAlloc).
func TestArtifactHitZeroAlloc(t *testing.T) {
	Reset()
	k := testKey(compiler.WishJumpJoin)
	if _, err := Get(k); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Get(k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Get allocates %v objects per run, want 0", n)
	}
}

// mcfKey is testKey's mcf twin: the mcf stand-in's 12 MB pointer-chase
// image is the one the image cache exists for.
func mcfKey(variant compiler.Variant) Key {
	k := testKey(variant)
	k.Bench = "mcf"
	return k
}

// TestArtifactSharedProgramRaceFree is the -race half of the
// immutability audit: many concurrent CPUs (different machine
// configurations, including the select-µop lowering) simulate shared
// cached programs, and two mcf binaries over one shared data image.
// Any write to prog.Code — which µops reach via *isa.Inst pointers — or
// to a page of the image is a data race here and fails the CI race job.
func TestArtifactSharedProgramRaceFree(t *testing.T) {
	Reset()
	var arts []*Artifact
	for _, k := range []Key{testKey(compiler.WishJumpJoin), mcfKey(compiler.NormalBranch), mcfKey(compiler.BaseMax)} {
		art, err := Get(k)
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, art)
	}
	if arts[1].src != arts[2].src {
		t.Fatal("two mcf variants at one input and scale do not share a workload build")
	}
	machines := []*config.Machine{
		config.DefaultMachine(),
		config.DefaultMachine().WithSelectUop(),
		config.DefaultMachine().WithWindow(128).WithDepth(10),
	}
	const perMachine = 4
	var wg sync.WaitGroup
	results := make([]uint64, len(arts)*len(machines)*perMachine)
	for ai, art := range arts {
		for mi, m := range machines {
			for j := 0; j < perMachine; j++ {
				wg.Add(1)
				go func(slot int, art *Artifact, m *config.Machine) {
					defer wg.Done()
					c, err := cpu.New(m, art.Prog, art.Mem)
					if err != nil {
						t.Error(err)
						return
					}
					res, err := c.Run(0)
					if err != nil {
						t.Error(err)
						return
					}
					results[slot] = res.Cycles
				}((ai*len(machines)+mi)*perMachine+j, art, m)
			}
		}
	}
	wg.Wait()
	for g := 0; g < len(results); g += perMachine {
		for j := 1; j < perMachine; j++ {
			if results[g+j] != results[g] {
				t.Errorf("artifact %d, machine %d: concurrent runs disagree: %d vs %d cycles",
					g/perMachine/len(machines), g/perMachine%len(machines), results[g+j], results[g])
			}
		}
	}
	for i, art := range arts {
		if err := art.Verify(); err != nil {
			t.Errorf("artifact %d: %v", i, err)
		}
	}
}

// TestArtifactMutationGuard is the fingerprint half of the audit:
// simulate every variant of a bench off the cache, then re-verify
// every cached artifact against its construction-time fingerprint.
// The negative case proves the fingerprint actually detects mutations.
func TestArtifactMutationGuard(t *testing.T) {
	Reset()
	var arts []*Artifact
	for _, v := range compiler.Variants() {
		art, err := Get(testKey(v))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*config.Machine{config.DefaultMachine(), config.DefaultMachine().WithSelectUop()} {
			c, err := cpu.New(m, art.Prog, art.Mem)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(0); err != nil {
				t.Fatal(err)
			}
		}
		arts = append(arts, art)
	}
	for i, art := range arts {
		if err := art.Verify(); err != nil {
			t.Errorf("artifact %d: %v", i, err)
		}
	}

	// Negative: a single-field mutation must be caught.
	art := arts[0]
	art.Prog.Code[0].Imm ^= 1
	if err := art.Verify(); err == nil {
		t.Error("Verify missed a mutated instruction field")
	}
	art.Prog.Code[0].Imm ^= 1
	if err := art.Verify(); err != nil {
		t.Errorf("fingerprint did not recover after undoing the mutation: %v", err)
	}

	// Negative: one changed word of the shared image must be caught too.
	// 1 MiB is where the stand-ins keep their primary input array.
	const word = 1 << 20
	src := art.src
	shared := src.image()
	src.img = emu.NewImage(func(m *emu.Memory) {
		src.init(m)
		m.Store(word, m.Load(word)^1)
	})
	if err := art.Verify(); err == nil {
		t.Error("Verify missed a mutated image word")
	}
	src.img = shared
	if err := art.Verify(); err != nil {
		t.Errorf("image fingerprint did not recover after undoing the mutation: %v", err)
	}
}

// TestArtifactImageSharedAndLazy: every artifact of one (bench, input,
// scale) shares one data image, whatever its variant and thresholds;
// another input gets its own; and Get never builds an image — the first
// Mem call does.
func TestArtifactImageSharedAndLazy(t *testing.T) {
	Reset()
	get := func(k Key) *Artifact {
		t.Helper()
		a, err := Get(k)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	thr := mcfKey(compiler.WishJumpJoin)
	thr.Thresholds.WishJump++
	other := mcfKey(compiler.WishJumpJoin)
	other.Input = workload.InputB
	a, b, c, d := get(mcfKey(compiler.NormalBranch)), get(mcfKey(compiler.BaseMax)), get(thr), get(other)
	if a.src != b.src || a.src != c.src {
		t.Fatal("artifacts differing only in variant or thresholds do not share a workload build")
	}
	if a.src == d.src {
		t.Fatal("artifacts of different inputs share a workload build")
	}
	if a.src.img != nil || d.src.img != nil {
		t.Fatal("Get built a data image")
	}
	m := emu.NewMemory()
	b.Mem(m)
	img := a.src.img
	if img == nil {
		t.Fatal("Mem did not build the data image")
	}
	if d.src.img != nil {
		t.Error("Mem of one input built another input's image")
	}
	c.Mem(emu.NewMemory())
	if a.src.img != img {
		t.Error("a second Mem call rebuilt the image")
	}
	if m.Footprint() < 8<<20 {
		t.Errorf("the shared mcf image shows %d bytes, want its multi-megabyte data set", m.Footprint())
	}
}

// TestArtifactCodeIdentity: artifacts of one workload build that
// compile to equal code share a code identity (vpr's normal and
// BASE-DEF binaries are the same code), each keeps its own program, and
// the same code built at another scale is another identity.
func TestArtifactCodeIdentity(t *testing.T) {
	Reset()
	get := func(v compiler.Variant, scale float64) *Artifact {
		k := testKey(v)
		k.Bench, k.Scale = "vpr", scale
		a, err := Get(k)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	normal, def, all := get(compiler.NormalBranch, 0.05), get(compiler.BaseDef, 0.05), get(compiler.BaseMax, 0.05)
	if normal.Code != normal.Prog || def.Code != normal.Code {
		t.Fatal("equal code of one build has two code identities")
	}
	if def.Prog == normal.Prog {
		t.Error("an interned artifact lost its own program")
	}
	if all.Code == normal.Code {
		t.Error("different code shares a code identity")
	}
	if other := get(compiler.NormalBranch, 0.02); other.Code == normal.Code {
		t.Error("equal code built at two scales shares a code identity")
	}
}
