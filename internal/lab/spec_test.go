package lab

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/workload"
)

func testSpec() Spec {
	return Spec{
		Bench:      "gzip",
		Input:      workload.InputA,
		Variant:    compiler.NormalBranch,
		Machine:    config.DefaultMachine(),
		Scale:      workload.DefaultScale,
		Thresholds: compiler.DefaultThresholds(),
	}
}

func TestSpecKeyDependsOnEveryField(t *testing.T) {
	base := testSpec().Key()
	muts := []struct {
		name string
		mut  func(*Spec)
	}{
		{"bench", func(s *Spec) { s.Bench = "mcf" }},
		{"input", func(s *Spec) { s.Input = workload.InputC }},
		{"variant", func(s *Spec) { s.Variant = compiler.WishJumpJoinLoop }},
		{"machine", func(s *Spec) { s.Machine = s.Machine.WithWindow(128) }},
		{"scale", func(s *Spec) { s.Scale = 0.5 }},
		{"thresholds.jump", func(s *Spec) { s.Thresholds.WishJump++ }},
		{"thresholds.loop", func(s *Spec) { s.Thresholds.WishLoop++ }},
		{"maxcycles", func(s *Spec) { s.MaxCycles = 1000 }},
	}
	for _, m := range muts {
		s := testSpec()
		m.mut(&s)
		if s.Key() == base {
			t.Errorf("mutating %s did not change the key", m.name)
		}
	}
	if testSpec().Key() != base {
		t.Error("key is not deterministic")
	}
}

// TestMachineSigExhaustive walks every leaf field of config.Machine by
// reflection, perturbs it, and requires the signature to change. A new
// field of a supported kind passes automatically; one the encoder
// cannot represent fails TestMachineSigPanicsOnUnsupportedKind. This is
// the regression test for the hand-rolled v1 signature, which silently
// aliased cache entries when a Machine field was added.
func TestMachineSigExhaustive(t *testing.T) {
	base := MachineSig(config.DefaultMachine())

	// First pass: enumerate the index path of every leaf value.
	type leaf struct {
		name string
		path []int // field/element indices from the Machine root
	}
	var leaves []leaf
	var walk func(name string, path []int, v reflect.Value)
	walk = func(name string, path []int, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, append(append([]int{}, path...), i), v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Len() == 0 {
				t.Fatalf("%s: empty slice; extend the test to grow it", name)
			}
			walk(name+"[0]", append(append([]int{}, path...), 0), v.Index(0))
		case reflect.Ptr:
			if v.IsNil() {
				t.Fatalf("%s: nil pointer; extend the test to allocate it", name)
			}
			walk(name, path, v.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.String:
			leaves = append(leaves, leaf{name, path})
		default:
			t.Fatalf("%s: unhandled kind %s in test walker", name, v.Kind())
		}
	}
	walk("Machine", nil, reflect.ValueOf(config.DefaultMachine()).Elem())
	if len(leaves) < 10 {
		t.Fatalf("only %d leaves found; walker is broken", len(leaves))
	}

	// Second pass: perturb each leaf on a fresh default machine and
	// require the signature to move.
	for _, lf := range leaves {
		m := config.DefaultMachine()
		v := reflect.ValueOf(m).Elem()
		for _, i := range lf.path {
			for v.Kind() == reflect.Ptr {
				v = v.Elem()
			}
			if v.Kind() == reflect.Slice || v.Kind() == reflect.Array {
				v = v.Index(i)
			} else {
				v = v.Field(i)
			}
		}
		for v.Kind() == reflect.Ptr {
			v = v.Elem()
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "'")
		}
		if MachineSig(m) == base {
			t.Errorf("perturbing %s did not change MachineSig", lf.name)
		}
	}
	if MachineSig(config.DefaultMachine()) != base {
		t.Error("MachineSig is not deterministic")
	}
}

func TestMachineSigPanicsOnUnsupportedKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("encoding a map did not panic; unsupported kinds must fail loudly")
		}
	}()
	var b strings.Builder
	encodeValue(&b, reflect.ValueOf(map[string]int{"x": 1}))
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Spec)
	}{
		{"unknown bench", func(s *Spec) { s.Bench = "nosuch" }},
		{"nil machine", func(s *Spec) { s.Machine = nil }},
		{"zero scale", func(s *Spec) { s.Scale = 0 }},
		{"negative scale", func(s *Spec) { s.Scale = -1 }},
		{"NaN scale", func(s *Spec) { s.Scale = math.NaN() }},
		{"infinite scale", func(s *Spec) { s.Scale = math.Inf(1) }},
		{"zero thresholds", func(s *Spec) { s.Thresholds = compiler.Thresholds{} }},
	}
	for _, b := range bad {
		s := testSpec()
		b.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", b.name)
		}
		if _, err := s.Simulate(); err == nil {
			t.Errorf("%s simulated", b.name)
		}
	}
}

func TestSpecHashShape(t *testing.T) {
	h := testSpec().Hash()
	if len(h) != 64 {
		t.Errorf("hash %q is not a sha256 hex digest", h)
	}
	if h == (Spec{}).Hash() {
		t.Error("distinct specs share a hash")
	}
}

// TestKeyHashStableAndDistinct pins the sharding hash: a key's hash
// must never drift between builds (a drift would silently re-home most
// keys and cold every worker cache), and distinct keys must not
// trivially collide.
func TestKeyHashStableAndDistinct(t *testing.T) {
	// FNV-1a of "wish" — a frozen reference value. If this changes,
	// the cluster's key→worker assignment changes with it; that is a
	// deliberate re-shard, not a refactor.
	if got := KeyHash("wish"); got != 0xa67c04f655af32b6 {
		t.Errorf("KeyHash(\"wish\") = %#x, want the frozen 0xa67c04f655af32b6", got)
	}
	a := testSpec()
	b := testSpec()
	b.Scale = 0.5
	if KeyHash(a.Key()) == KeyHash(b.Key()) {
		t.Error("distinct spec keys hashed to the same value")
	}
	if KeyHash(a.Key()) != KeyHash(a.Key()) {
		t.Error("KeyHash is not a pure function")
	}
}
