// Package lab runs simulation campaigns: batches of (benchmark, input,
// binary variant, machine) simulations, de-duplicated, fanned out
// across a bounded worker pool, and memoized both in memory and in a
// persistent content-addressed result store.
//
// The data flow is
//
//	Spec (what to simulate)
//	  → Key (a complete, versioned signature of everything that
//	         affects simulation behaviour)
//	  → Lab (singleflight scheduler: memory cache → store → simulate)
//	  → Store (atomic on-disk records keyed by SHA-256 of the Key)
//
// Aggregation stays in the caller: experiments warm their run-set with
// Lab.Warm (parallel, unordered) and then render tables serially, so
// output is byte-identical regardless of the worker count.
package lab

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"

	"wishbranch/internal/artifact"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/obs"
	"wishbranch/internal/workload"
)

// SchemaVersion versions the cache-key schema. Bump it whenever the
// meaning of a key changes in a way the signature itself cannot
// capture — e.g. a simulator behaviour fix that alters results for an
// unchanged configuration. Version 1 was the hand-rolled format-string
// signature of internal/exp, which silently aliased entries when a
// config.Machine field was added; version 2 derives the machine
// signature exhaustively from the struct; version 3 adds the
// cycle-accounting fields (Result.Acct, Result.Branches) — a v2
// record would decode with empty accounting and violate the
// buckets-partition-cycles identity, so it must read as a miss.
const SchemaVersion = 3

// Spec fully identifies one simulation. Two Specs with equal Keys
// produce identical results; everything that affects simulation
// behaviour must be represented here.
type Spec struct {
	Bench   string
	Input   workload.Input
	Variant compiler.Variant
	Machine *config.Machine
	// Scale is the workload size multiplier (workload.DefaultScale is
	// the paper's reduced-input size). It is part of the spec — not
	// shared mutable state — so concurrent runs at different scales
	// cannot cross-contaminate.
	Scale float64
	// Thresholds are the compiler's §4.2.2 conversion thresholds.
	Thresholds compiler.Thresholds
	// MaxCycles bounds the simulation (0 = no practical limit). A
	// truncated run is a different result, so it is part of the key.
	MaxCycles uint64
}

// Validate reports an ill-formed spec before it reaches a worker.
func (s Spec) Validate() error {
	if _, ok := workload.ByName(s.Bench); !ok {
		return fmt.Errorf("lab: unknown benchmark %q", s.Bench)
	}
	if s.Machine == nil {
		return fmt.Errorf("lab: %s: nil machine", s.Bench)
	}
	if err := workload.ValidateScale(s.Scale); err != nil {
		return fmt.Errorf("lab: %s: %w", s.Bench, err)
	}
	if err := s.Thresholds.Validate(); err != nil {
		return fmt.Errorf("lab: %s: %w", s.Bench, err)
	}
	return s.Machine.Validate()
}

// Key returns the complete, versioned signature of the spec. Equal
// keys ⇒ identical simulation results.
func (s Spec) Key() string { return s.Keyed().Key }

// Hash returns the SHA-256 of the key, the store's content address.
func (s Spec) Hash() string { return s.Keyed().Hash }

// Keyed pairs a Spec with its cache key and content hash. Hot paths
// (Lab, serve, cluster) build a Keyed once per item and thread it
// through, so a memo probe, a store lookup and a worker placement of
// one campaign item share one key cache lookup.
type Keyed struct {
	Spec Spec
	Key  string
	Hash string
}

// Keyed returns the spec's key and content hash. They are derived once
// per distinct spec value per process (keyCache); the returned Spec is
// always s itself, never a cached copy.
func (s Spec) Keyed() Keyed {
	id := s.id()
	keyCache.RLock()
	kh, ok := keyCache.m[id]
	keyCache.RUnlock()
	if !ok {
		// Derived outside the lock: two racing misses compute the
		// same pure value, so the second store is harmless.
		k := s.key()
		kh = [2]string{k, hashKey(k)}
		keyCache.Lock()
		if len(keyCache.m) >= keyCacheCap {
			clear(keyCache.m)
		}
		keyCache.m[id] = kh
		keyCache.Unlock()
	}
	return Keyed{Spec: s, Key: kh[0], Hash: kh[1]}
}

// keyCacheCap bounds keyCache at about 5 MB (an entry is about 1.3 KB:
// the machine value plus a ~800-byte key and its hash). A campaign has
// 594 distinct specs; the cap is there because serve keys a campaign
// before admitting it, so refused requests must not grow the cache
// without limit. A full cache is cleared, not evicted piecemeal: the
// next keying of each live spec refills it.
const keyCacheCap = 4096

// keyCache maps a spec value to its key and hash. It is a typed map,
// not a sync.Map: sync.Map hashes its interface keys by reflection,
// which alone cost more than a whole typed hit.
var keyCache = struct {
	sync.RWMutex
	m map[specID][2]string
}{m: make(map[specID][2]string)}

// specID is a Spec by value, the comparable key of keyCache. The
// machine is held by value, not by pointer: a machine mutated in place
// must key afresh, and experiments build a fresh *Machine per run-set,
// so pointer identity would never hit. Scale is held as its bits so a
// NaN scale (which Validate rejects, but which is still keyed on error
// paths) equals itself.
type specID struct {
	bench      string
	input      workload.Input
	variant    compiler.Variant
	machine    config.Machine
	nilMachine bool
	scale      uint64
	thresholds compiler.Thresholds
	maxCycles  uint64
}

func (s Spec) id() specID {
	id := specID{
		bench:      s.Bench,
		input:      s.Input,
		variant:    s.Variant,
		nilMachine: s.Machine == nil,
		scale:      math.Float64bits(s.Scale),
		thresholds: s.Thresholds,
		maxCycles:  s.MaxCycles,
	}
	if s.Machine != nil {
		id.machine = *s.Machine
	}
	return id
}

// key derives the spec's key without the cache.
func (s Spec) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v%d|bench=%s|input=%d|variant=%d|scale=%s|maxcycles=%d|N=%d|L=%d|machine=",
		SchemaVersion, s.Bench, int(s.Input), int(s.Variant),
		strconv.FormatFloat(s.Scale, 'g', -1, 64), s.MaxCycles,
		s.Thresholds.WishJump, s.Thresholds.WishLoop)
	b.WriteString(MachineSig(s.Machine))
	return b.String()
}

// KeyHash maps a cache key (or a worker URL) to a uint64. It is the
// sharding hash of internal/cluster: a coordinator ranks the live
// workers for each Spec.Key() by rendezvous hashing over the KeyHash of
// the key and of each worker's URL, so every key has one home worker
// whose memo table and store stay hot for it. The definition lives
// next to Key so the cache key and the sharding hash evolve together —
// FNV-1a over the exact bytes the key is made of.
func KeyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return h.Sum64()
}

// Simulate builds, compiles, and runs the spec. It is pure: safe to
// call from any number of goroutines.
func (s Spec) Simulate() (*cpu.Result, error) {
	return s.simulate(context.Background(), nil)
}

// SimulateContext is Simulate with cooperative cancellation: the
// context's cancellation or deadline stops the cycle loop (via
// cpu.RunContext) and surfaces as an error wrapping ctx.Err().
func (s Spec) SimulateContext(ctx context.Context) (*cpu.Result, error) {
	return s.simulate(ctx, nil)
}

// SimulateInstrumented is Simulate with an observer hook: attach, when
// non-nil, receives the constructed CPU before the run starts — e.g.
// to connect an obs.Ring event trace. Instrumentation is observational
// only and must not change results; instrumented runs are therefore
// never cached (callers that want the store go through Simulate).
func (s Spec) SimulateInstrumented(attach func(*cpu.CPU)) (*cpu.Result, error) {
	return s.simulate(context.Background(), attach)
}

func (s Spec) simulate(ctx context.Context, attach func(*cpu.CPU)) (*cpu.Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Build+compile go through the once-per-process artifact cache:
	// every machine sweep over the same binary shares one compiled
	// program (immutable — see package artifact's audit tests), and
	// every run of the workload shares one copy-on-write data image
	// instead of re-synthesizing it.
	art, err := artifact.Get(artifact.Key{
		Bench:      s.Bench,
		Input:      s.Input,
		Variant:    s.Variant,
		Scale:      s.Scale,
		Thresholds: s.Thresholds,
	})
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(s.Machine, art.Prog, art.Mem)
	if err != nil {
		return nil, err
	}
	if attach != nil {
		attach(c)
	}
	res, err := c.RunContext(ctx, s.MaxCycles)
	if err != nil {
		return nil, fmt.Errorf("lab: %s: %w", s.Key(), err)
	}
	return res, nil
}

// Snapshot builds the machine-readable export record for a result of
// this spec, labeled with the spec's identity.
func (s Spec) Snapshot(r *cpu.Result) *obs.Snapshot {
	machine := "?"
	if s.Machine != nil {
		machine = s.Machine.Name
	}
	return r.Snapshot(s.Bench, s.Input.String(), s.Variant.String(), machine)
}

// String is a short human-readable label for progress lines.
func (s Spec) String() string {
	name := "?"
	if s.Machine != nil {
		name = s.Machine.Name
	}
	return fmt.Sprintf("%s/%v/%v/%s", s.Bench, s.Input, s.Variant, name)
}

// MachineSig derives an exhaustive signature from a machine
// configuration by reflecting over every field, recursively. Unlike a
// hand-rolled format string, a newly added field is automatically part
// of the signature — it can change the key (a cache miss and a fresh
// simulation) but never silently alias an existing entry. Fields of
// kinds the encoder does not take (floats, pointers, slices, maps, ...)
// panic, so an incompatible extension of config.Machine fails loudly
// in any test that touches the lab rather than corrupting the cache.
//
// MachineSig reflects on every call; Spec.Keyed caches whole keys, so
// a campaign pays it once per distinct spec.
func MachineSig(m *config.Machine) string {
	if m == nil {
		// An ill-formed spec; Validate rejects it before simulation,
		// but its key must still be computable (e.g. for error paths).
		return "nil"
	}
	var b strings.Builder
	encodeValue(&b, reflect.ValueOf(m).Elem())
	return b.String()
}

func encodeValue(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b.WriteString("1")
		} else {
			b.WriteString("0")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Struct:
		b.WriteString("{")
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteString(";")
			}
			b.WriteString(t.Field(i).Name)
			b.WriteString(":")
			encodeValue(b, v.Field(i))
		}
		b.WriteString("}")
	case reflect.Array:
		b.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteString(",")
			}
			encodeValue(b, v.Index(i))
		}
		b.WriteString("]")
	default:
		// The kinds above are the ones for which equal machine values
		// mean equal keys, which the key cache relies on
		// (TestMachineKeyableByValue).
		panic(fmt.Sprintf("lab: cannot encode %s field of kind %s in a cache key",
			v.Type(), v.Kind()))
	}
}
