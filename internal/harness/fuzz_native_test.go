package harness

// Native Go fuzz targets: coverage-guided exploration of the generator
// seed space. The fuzzer mutates the raw seed bytes, the generator
// turns each seed into a structured program, and the oracle verdict is
// the property — so libFuzzer-style coverage feedback steers seeds
// toward programs that reach new compiler/pipeline paths, exactly
// where differential bugs live. Each target runs a single machine
// config to keep per-input cost low; the seed-count soak
// (cmd/wishfuzz) owns the wide-config sweep. Run with e.g.:
//
//	go test -fuzz=FuzzArchConformance -fuzztime=30s ./internal/harness
//
// A fuzz-found failure prints the seed and the wishfuzz replay command
// (which also auto-shrinks the program).

import (
	"context"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/testutil"
)

func fuzzSeeds(f *testing.F) {
	for _, s := range []uint64{1, 3, 17, 1000, 424242} {
		f.Add(s)
	}
}

// FuzzArchConformance checks architectural equivalence and, on the
// same runs, that cycle skipping leaves the result unchanged.
func FuzzArchConformance(f *testing.F) {
	fuzzSeeds(f)
	o := &ArchOracle{Machines: []*config.Machine{config.DefaultMachine()}}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := o.Check(context.Background(), NewCase(seed)); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, testutil.ReplayHint("arch", seed))
		}
	})
}

// FuzzTimingConformance checks the cycle-skip identity on its own: on
// the baseline machine, every variant's cpu.Result is byte-identical
// with event-driven cycle skipping on and off. FuzzArchConformance
// reaches the same identity only for programs that pass every
// architectural check; a failure here replays under the arch oracle.
func FuzzTimingConformance(f *testing.F) {
	fuzzSeeds(f)
	cfg := config.DefaultMachine()
	thr := compiler.DefaultThresholds()
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := NewCase(seed)
		for _, v := range compiler.Variants() {
			p, err := compiler.CompileOpt(c.Source, v, thr)
			if err != nil {
				t.Fatalf("seed %d: compile %v: %v", seed, v, err)
			}
			_, res, err := simulate(cfg, p, true)
			if err == nil {
				err = sameAsReference(cfg, p, res)
			}
			if err != nil {
				t.Fatalf("seed %d: %v: %v\n%s", seed, v, err, testutil.ReplayHint("arch", seed))
			}
		}
	})
}

// FuzzRunConformance checks the run-identity rule (cpu.Observed) on
// the baseline machine: a field the rule resets for the program must
// not move its result frame.
func FuzzRunConformance(f *testing.F) {
	fuzzSeeds(f)
	o := &RunOracle{Machines: []*config.Machine{config.DefaultMachine()}}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := o.Check(context.Background(), NewCase(seed)); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, testutil.ReplayHint("run", seed))
		}
	})
}

// FuzzCacheConformance drives the JSON↔binary result differential and
// the store round trip from the seed space: coverage feedback steers
// toward programs whose results stress unusual codec shapes (deep
// branch tables, saturated counters). The cpu package's FuzzResultCodec
// attacks the decoder with hostile bytes; this target checks real
// results end to end.
func FuzzCacheConformance(f *testing.F) {
	fuzzSeeds(f)
	o := &CacheOracle{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := o.Check(context.Background(), NewCase(seed)); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, testutil.ReplayHint("cache", seed))
		}
	})
}

// FuzzSourceCodec feeds arbitrary bytes to the repro decoder: hostile
// repro files must produce errors, never panics, and every valid
// decode must re-encode losslessly.
func FuzzSourceCodec(f *testing.F) {
	f.Add([]byte(`{"name":"x","body":[{"kind":"straight"}]}`))
	f.Add([]byte(`{"name":"x","body":[{"kind":"call","name":"f0"}]}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := UnmarshalSource(data)
		if err != nil {
			return
		}
		out, err := MarshalSource(src)
		if err != nil {
			t.Fatalf("re-encode of valid source failed: %v", err)
		}
		back, err := UnmarshalSource(out)
		if err != nil {
			t.Fatalf("decode(encode(decode(x))) failed: %v", err)
		}
		out2, err := MarshalSource(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatalf("codec not idempotent:\n%s\nvs\n%s", out, out2)
		}
	})
}
