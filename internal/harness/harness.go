// Package harness is the differential conformance engine: one
// deterministic generator (compiler.GenRandomSource) feeding pluggable
// oracles, four families that check the cross-cutting identities the
// whole stack stakes its correctness on — arch: emulator-vs-pipeline
// architectural equivalence across all five binary variants, then
// cycle-skipping vs reference-mode timing identity on the same runs;
// cache: JSON-vs-binary codec identity and warm-vs-cold result-store
// byte identity on one cold result; cluster: single-node vs
// coordinator+workers byte identity under seeded chaos schedules; and
// run: the run-identity rule a campaign shares simulations by. When an
// oracle fails, the engine shrinks the generated program to a minimal
// still-failing form and writes a self-contained JSON repro replayable
// with `wishfuzz -replay` (DESIGN.md §13).
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wishbranch/internal/compiler"
)

// Case is one generated conformance input: the seed and the structured
// program it generated (or, after shrinking or repro decoding, a
// program that no seed generates).
type Case struct {
	Seed   uint64
	Source *compiler.Source
}

// NewCase builds the canonical case for a seed.
func NewCase(seed uint64) Case {
	return Case{Seed: seed, Source: compiler.GenRandomSource(seed)}
}

// Oracle checks one conformance identity over a generated case. A
// non-nil error from Check is a conformance failure (an identity the
// system promised did not hold), not an infrastructure error: oracles
// fold setup problems into failures too, since a program that stops
// compiling under one variant is as much a bug as a wrong answer.
type Oracle interface {
	Name() string
	Check(ctx context.Context, c Case) error
	// SourceSensitive reports whether Check's verdict depends on
	// c.Source. The shrinker only minimizes failures of
	// source-sensitive oracles; the cluster oracle, which derives its
	// campaign from the seed alone, is not shrinkable.
	SourceSensitive() bool
}

// Failure is one shrunk conformance failure.
type Failure struct {
	Oracle    string
	Seed      uint64
	Err       string
	Minimized *compiler.Source // nil for source-insensitive oracles
	Nodes     int              // structured-node count of Minimized
	ReproPath string           // written repro file, if CorpusDir was set
}

// Report summarizes a soak run.
type Report struct {
	Seeds     int            // cases generated
	Checks    int            // oracle checks executed
	PerOracle map[string]int // checks per oracle
	Failures  []Failure
	Replayed  int // corpus repros re-checked at startup
}

// Options configures a soak run.
type Options struct {
	Oracles  []Oracle
	SeedBase uint64
	// Seeds bounds the run by case count; 0 means no count bound (a
	// Budget or ctx must stop the run instead).
	Seeds int
	// Budget bounds the run by wall clock; 0 means no time bound.
	Budget time.Duration
	// CorpusDir, when set, is where repro files are written on failure
	// and re-checked on startup (regression corpus).
	CorpusDir string
	// KeepGoing continues past failures instead of stopping at the
	// first; each failing seed still costs a full shrink.
	KeepGoing bool
	Log       io.Writer
}

// DefaultShrinkChecks bounds shrinking effort per failure.
const DefaultShrinkChecks = 2000

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "wishfuzz: "+format+"\n", args...)
	}
}

// Soak generates cases from SeedBase upward and checks every oracle
// against each, shrinking and recording failures. It returns a non-nil
// Report even when ctx fires mid-run; the error reports infrastructure
// problems (corpus IO), never conformance failures — those are in
// Report.Failures.
func Soak(ctx context.Context, opts Options) (*Report, error) {
	rep := &Report{PerOracle: map[string]int{}}
	if len(opts.Oracles) == 0 {
		return rep, fmt.Errorf("harness: no oracles selected")
	}

	if opts.CorpusDir != "" {
		if err := replayCorpus(ctx, &opts, rep); err != nil {
			return rep, err
		}
	}

	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	for i := 0; ; i++ {
		if opts.Seeds > 0 && i >= opts.Seeds {
			break
		}
		if opts.Seeds <= 0 && opts.Budget <= 0 && ctx.Err() == nil {
			return rep, fmt.Errorf("harness: unbounded soak (set Seeds, Budget, or a cancellable ctx)")
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		if ctx.Err() != nil {
			break
		}
		seed := opts.SeedBase + uint64(i)
		c := NewCase(seed)
		rep.Seeds++
		stop, err := checkCase(ctx, &opts, rep, c)
		if err != nil {
			return rep, err
		}
		if stop {
			break
		}
	}
	return rep, nil
}

// checkCase runs every oracle on c, shrinking failures. stop reports
// that a failure was found and KeepGoing is off.
func checkCase(ctx context.Context, opts *Options, rep *Report, c Case) (stop bool, err error) {
	for _, o := range opts.Oracles {
		rep.Checks++
		rep.PerOracle[o.Name()]++
		cerr := o.Check(ctx, c)
		if cerr == nil {
			continue
		}
		if ctx.Err() != nil && c.Source != nil {
			// The context fired mid-check: this is a cancelled run, not
			// a conformance verdict.
			return true, nil
		}
		f := Failure{Oracle: o.Name(), Seed: c.Seed, Err: cerr.Error()}
		opts.logf("seed %d: oracle %s FAILED: %v", c.Seed, o.Name(), cerr)
		if o.SourceSensitive() && c.Source != nil {
			min, minErr := ShrinkCase(ctx, o, c, DefaultShrinkChecks)
			f.Minimized = min
			f.Nodes = CountNodes(min)
			f.Err = minErr.Error()
			opts.logf("seed %d: shrunk to %d structured nodes: %v", c.Seed, f.Nodes, minErr)
		}
		if opts.CorpusDir != "" {
			path, werr := writeFailure(opts.CorpusDir, f)
			if werr != nil {
				return true, werr
			}
			f.ReproPath = path
			opts.logf("repro written: %s", path)
			opts.logf("replay: go run ./cmd/wishfuzz -replay %s", path)
		}
		rep.Failures = append(rep.Failures, f)
		if !opts.KeepGoing {
			return true, nil
		}
	}
	return false, nil
}

// replayCorpus re-checks every repro already in the corpus directory —
// a free regression suite: once a failure is minimized and committed,
// every future soak proves it stays fixed. A repro of a family this
// run did not select is skipped; one whose oracle no longer exists is
// an error, so a retired family's repros cannot drop out unnoticed.
func replayCorpus(ctx context.Context, opts *Options, rep *Report) error {
	paths, err := filepath.Glob(filepath.Join(opts.CorpusDir, "repro-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	byName := map[string]Oracle{}
	for _, o := range opts.Oracles {
		byName[o.Name()] = o
	}
	for _, p := range paths {
		r, err := LoadRepro(p)
		if err != nil {
			return fmt.Errorf("harness: corpus %s: %w", p, err)
		}
		o, ok := byName[r.Oracle]
		if !ok {
			if _, err := OracleByName(r.Oracle); err != nil {
				return fmt.Errorf("harness: corpus %s: %w", p, err)
			}
			continue // oracle family not selected this run
		}
		c, err := r.Case()
		if err != nil {
			return fmt.Errorf("harness: corpus %s: %w", p, err)
		}
		rep.Replayed++
		rep.Checks++
		rep.PerOracle[o.Name()]++
		if cerr := o.Check(ctx, c); cerr != nil {
			opts.logf("corpus %s: still failing: %v", p, cerr)
			rep.Failures = append(rep.Failures, Failure{
				Oracle: r.Oracle, Seed: r.Seed, Err: cerr.Error(),
				Minimized: c.Source, Nodes: CountNodes(c.Source), ReproPath: p,
			})
			if !opts.KeepGoing {
				return nil
			}
		}
	}
	return nil
}

func writeFailure(dir string, f Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r := &Repro{
		Schema: ReproSchema,
		Oracle: f.Oracle,
		Seed:   f.Seed,
		Err:    f.Err,
		Nodes:  f.Nodes,
	}
	if f.Minimized != nil {
		r.Source = encodeSource(f.Minimized)
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-%s-%d.json", f.Oracle, f.Seed))
	r.Replay = fmt.Sprintf("go run ./cmd/wishfuzz -replay %s", path)
	if err := WriteRepro(path, r); err != nil {
		return "", err
	}
	return path, nil
}
