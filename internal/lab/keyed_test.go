package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

// TestSpecKeyGolden pins the key bytes of the default spec. Store
// addresses, journal frames, wire keys and worker placement all derive
// from them, so a store written by an earlier build must still hit: a
// change here is a deliberate cache break and bumps SchemaVersion.
func TestSpecKeyGolden(t *testing.T) {
	const (
		wantLen  = 797
		wantHash = "7142163b0c9820a4f256c0b9899615e2654f52ab670db89a261fc0e0dd816af9"
	)
	s := testSpec()
	if got := len(s.Key()); got != wantLen {
		t.Errorf("key is %d bytes, want %d: %s", got, wantLen, s.Key())
	}
	if got := s.Hash(); got != wantHash {
		t.Errorf("key hash = %s, want %s", got, wantHash)
	}
	if k := s.Keyed(); k.Hash != wantHash {
		t.Errorf("Keyed hash = %s, want %s", k.Hash, wantHash)
	}
}

// TestKeyedMatchesKey: for any spec, the key and hash that Keyed, Key
// and Hash return from the key cache equal the uncached derivation and
// an independent SHA-256, and Keyed returns the caller's own spec.
func TestKeyedMatchesKey(t *testing.T) {
	specs := []Spec{
		testSpec(),
		func() Spec { s := testSpec(); s.Variant = compiler.WishJumpJoin; return s }(),
		func() Spec { s := testSpec(); s.Machine = config.DefaultMachine().WithSelectUop(); return s }(),
		func() Spec { s := testSpec(); s.Bench = "mcf"; s.Input = workload.InputC; return s }(),
		func() Spec { s := testSpec(); s.Scale = 0.125; s.MaxCycles = 1000; return s }(),
		// A nil machine and a zero one must not share a cache entry.
		func() Spec { s := testSpec(); s.Machine = nil; return s }(),
		func() Spec { s := testSpec(); s.Machine = &config.Machine{}; return s }(),
		{}, // even an ill-formed spec has a computable key
	}
	for i, s := range specs {
		want := s.key()
		sum := sha256.Sum256([]byte(want))
		wantHash := hex.EncodeToString(sum[:])
		for pass := 0; pass < 2; pass++ { // the second pass is a cache hit
			k := s.Keyed()
			if k.Key != want || s.Key() != want {
				t.Errorf("spec %d pass %d: cached key %q / Key() %q != derived %q", i, pass, k.Key, s.Key(), want)
			}
			if k.Hash != wantHash || s.Hash() != wantHash {
				t.Errorf("spec %d pass %d: cached hash %q / Hash() %q != independent SHA-256 %q", i, pass, k.Hash, s.Hash(), wantHash)
			}
			if k.Spec != s {
				t.Errorf("spec %d pass %d: Keyed dropped or altered the spec", i, pass)
			}
		}
	}
}

// TestKeyedFollowsMachineMutation: the cache is keyed by the machine's
// value, so a machine mutated in place after keying keys afresh.
func TestKeyedFollowsMachineMutation(t *testing.T) {
	s := testSpec()
	before := s.Keyed()
	s.Machine.ROBSize = 128
	after := s.Keyed()
	if after.Key == before.Key {
		t.Fatal("mutating the machine in place did not change the key")
	}
	if after.Key != s.key() {
		t.Errorf("key after mutation = %q, want %q", after.Key, s.key())
	}
	if after.Spec.Machine != s.Machine {
		t.Error("Keyed returned a machine other than the caller's")
	}
}

// TestKeyCacheBounded: keying more distinct specs than the cap leaves
// the cache at or under it, and every key still equals the uncached
// derivation, including those keyed after the cache was cleared.
func TestKeyCacheBounded(t *testing.T) {
	s := testSpec()
	for i := 0; i <= keyCacheCap; i++ {
		s.MaxCycles = uint64(i + 1)
		if got, want := s.Key(), s.key(); got != want {
			t.Fatalf("spec %d: key %q, want %q", i, got, want)
		}
	}
	keyCache.RLock()
	n := len(keyCache.m)
	keyCache.RUnlock()
	if n > keyCacheCap {
		t.Errorf("key cache holds %d entries, cap is %d", n, keyCacheCap)
	}
}

// TestKeyCacheNaNScale: a NaN scale equals itself in the cache key, so
// keying one NaN-scale spec twice adds at most one entry. A float key
// would add one per call, since NaN != NaN.
func TestKeyCacheNaNScale(t *testing.T) {
	s := testSpec()
	s.Bench = "nan-scale-probe" // counted below; no other test keys it
	s.Scale = math.NaN()
	for i := 0; i < 2; i++ {
		if got, want := s.Key(), s.key(); got != want {
			t.Fatalf("call %d: key %q, want %q", i, got, want)
		}
	}
	keyCache.RLock()
	n := 0
	for id := range keyCache.m {
		if id.bench == s.Bench {
			n++
		}
	}
	keyCache.RUnlock()
	if n > 1 {
		t.Errorf("keying one NaN-scale spec twice left %d cache entries", n)
	}
}

// TestKeyedConcurrent: goroutines keying overlapping specs all get the
// uncached derivation (run under -race in CI).
func TestKeyedConcurrent(t *testing.T) {
	var specs []Spec
	for _, v := range []compiler.Variant{compiler.NormalBranch, compiler.WishJumpJoin, compiler.WishJumpJoinLoop} {
		for _, rob := range []int{128, 256, 512} {
			s := testSpec()
			s.Variant = v
			s.Machine = s.Machine.WithWindow(rob)
			specs = append(specs, s)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := specs[(g+i)%len(specs)]
				k := s.Keyed()
				if k.Key != s.key() || k.Hash != hashKey(k.Key) {
					t.Errorf("goroutine %d: %s keyed to %q", g, s, k.Key)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMachineKeyableByValue guards the key cache's by-value machine
// key: config.Machine may hold only bool, integer, string, struct and
// array fields. A pointer would let the machine change without its
// value changing (a stale key), a float would make NaN miss forever,
// and a slice, map or interface would not compare at all.
func TestMachineKeyableByValue(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(fmt.Sprintf("%s[%d]", path, ty.Len()), ty.Elem())
		default:
			t.Errorf("%s is a %s; the key cache keys config.Machine by value and cannot hold one", path, ty.Kind())
		}
	}
	walk("Machine", reflect.TypeOf(config.Machine{}))
}

// TestResultKeyedSharesMemoWithResult: a Keyed request and a plain
// Result request for the same spec land on the same memo entry — the
// cached-key path is an optimization, not a second namespace.
func TestResultKeyedSharesMemoWithResult(t *testing.T) {
	l := New()
	s := testSpec()
	s.Scale = 0.02
	if _, err := l.Result(s); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ResultKeyed(t.Context(), s.Keyed()); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Fresh != 1 || c.MemHits != 1 {
		t.Errorf("counters = %+v, want one fresh run and one memo hit", c)
	}
}
