// Package tune is the adaptive policy auto-tuner: it searches the
// wish-branch policy space — the compiler's §4.2.2 conversion
// thresholds (N/L), the confidence estimator geometry
// (conf.JRSConfig), and the wish-loop trip-count predictor bias — for
// the setting that minimizes simulated cycles, per workload. The paper
// explicitly leaves this open: §4.2.2 says the thresholds were "not
// tuned", and §7 calls for better confidence estimation; the tuner
// closes the loop.
//
// The search is successive halving with a seeded hill-climb
// refinement. A seeded sample of candidate policies (always including
// the paper's defaults as candidate 0) is evaluated at a reduced
// workload scale, the worse half pruned, and the survivors re-run at
// a doubled scale until one winner remains per bench; a bounded
// hill-climb then walks the winner ±1 grid step per axis at full
// scale. Every evaluation batch is an ordinary campaign warmed through
// a lab.Lab, so the same tuner runs in-process or, with the lab's
// Backend set to a serve.Client, against a wishsimd daemon or a
// cluster — and every evaluation is memoized by spec key and stored
// like any other run, so a re-run of a killed search resumes from the
// store.
//
// Determinism contract: with equal Options (including Seed), Tune
// produces a byte-identical Table. Scoring uses the simulator's
// deterministic cpu.Result.Cycles — never wall-clock — candidates are
// sampled with a fixed splitmix64 stream, pruning ties break on
// candidate index, and no map iteration order reaches an output. A
// store-warm re-run therefore schedules zero fresh simulations.
package tune

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"wishbranch/internal/compiler"
	"wishbranch/internal/conf"
	"wishbranch/internal/config"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

// Policy is one point in the tuner's search space: everything the
// tuner may change relative to the paper's baseline. Thresholds ride
// in the lab.Spec (they shape the binary); the estimator geometry and
// loop predictor ride in the machine configuration.
type Policy struct {
	// Thresholds are the compiler's N/L conversion thresholds.
	Thresholds compiler.Thresholds `json:"thresholds"`
	// JRS is the wish-branch confidence estimator geometry.
	JRS conf.JRSConfig `json:"jrs"`
	// LoopPred configures the trip-count wish-loop predictor:
	// -1 disables it (the paper's baseline), >= 0 enables it with that
	// over-estimation bias.
	LoopPred int `json:"loop_pred"`
}

// DefaultPolicy returns the paper's untuned baseline: N=5/L=30, the
// Table 2 estimator, no loop predictor.
func DefaultPolicy() Policy {
	return Policy{
		Thresholds: compiler.DefaultThresholds(),
		JRS:        conf.DefaultJRSConfig(),
		LoopPred:   -1,
	}
}

// Validate reports a policy outside the legal space.
func (p Policy) Validate() error {
	if err := p.Thresholds.Validate(); err != nil {
		return err
	}
	if err := p.JRS.Validate(); err != nil {
		return err
	}
	if p.LoopPred < -1 || p.LoopPred > 16 {
		return fmt.Errorf("tune: loop predictor bias %d outside [-1,16]", p.LoopPred)
	}
	return nil
}

// Sig is the compact human-readable signature of the policy, e.g. the
// default is "N5-L30-jrs-e512w4h0c4t8-lpoff".
func (p Policy) Sig() string {
	lp := "lpoff"
	if p.LoopPred >= 0 {
		lp = fmt.Sprintf("lp%d", p.LoopPred)
	}
	return fmt.Sprintf("N%d-L%d-%s-%s", p.Thresholds.WishJump, p.Thresholds.WishLoop, p.JRS.Sig(), lp)
}

// Machine builds the policy's machine configuration: the Table 2
// baseline with the policy's estimator and loop predictor applied. The
// machine name carries the policy signature so snapshots and progress
// lines identify the tuning point.
func (p Policy) Machine() *config.Machine {
	m := config.DefaultMachine()
	m.JRS = p.JRS
	if p.LoopPred >= 0 {
		m.UseLoopPredictor = true
		m.LoopPredictorBias = p.LoopPred
	}
	m.Name = "tuned-" + p.Sig()
	return m
}

// Spec builds the full simulation spec evaluating this policy on one
// benchmark. The variant is always the full wish jump/join/loop binary
// — the binary whose behaviour the policy knobs govern.
func (p Policy) Spec(bench string, in workload.Input, scale float64) lab.Spec {
	return lab.Spec{
		Bench:      bench,
		Input:      in,
		Variant:    compiler.WishJumpJoinLoop,
		Machine:    p.Machine(),
		Scale:      scale,
		Thresholds: p.Thresholds,
	}
}

// The search grid. Each axis lists the candidate values for one policy
// knob; the threshold and estimator axes come from the packages that
// own the knobs (compiler.TuneAxes, conf.TuneAxes) so the grid and the
// validation rules evolve together.
type axis struct {
	name string
	vals []int
}

// numAxes is the dimensionality of the search space: N, L, JRS
// threshold, JRS history bits, JRS entries, loop predictor.
const numAxes = 6

// candidate is a grid point: one value index per axis.
type candidate [numAxes]int

func searchAxes() [numAxes]axis {
	nVals, lVals := compiler.TuneAxes()
	thr, hist, entries := conf.TuneAxes()
	return [numAxes]axis{
		{"N", nVals},
		{"L", lVals},
		{"jrs-threshold", thr},
		{"jrs-history", hist},
		{"jrs-entries", entries},
		{"loop-pred", []int{-1, 0, 1, 2}},
	}
}

// policyAt materializes the grid point.
func policyAt(ax [numAxes]axis, c candidate) Policy {
	p := DefaultPolicy()
	p.Thresholds.WishJump = ax[0].vals[c[0]]
	p.Thresholds.WishLoop = ax[1].vals[c[1]]
	p.JRS.Threshold = ax[2].vals[c[2]]
	p.JRS.HistoryBits = ax[3].vals[c[3]]
	p.JRS.Entries = ax[4].vals[c[4]]
	p.LoopPred = ax[5].vals[c[5]]
	return p
}

// defaultCandidate locates DefaultPolicy on the grid. Every axis must
// contain its default value — TestAxesContainDefaults pins this — so
// the paper's baseline is always candidate 0 and can never be sampled
// out of the comparison.
func defaultCandidate(ax [numAxes]axis) candidate {
	def := DefaultPolicy()
	want := [numAxes]int{
		def.Thresholds.WishJump, def.Thresholds.WishLoop,
		def.JRS.Threshold, def.JRS.HistoryBits, def.JRS.Entries,
		def.LoopPred,
	}
	var c candidate
	for i := range ax {
		j := indexOf(ax[i].vals, want[i])
		if j < 0 {
			panic(fmt.Sprintf("tune: axis %s does not contain default %d", ax[i].name, want[i]))
		}
		c[i] = j
	}
	return c
}

func indexOf(vals []int, v int) int {
	for i, x := range vals {
		if x == v {
			return i
		}
	}
	return -1
}

// neighbors returns the grid points one step away on each axis, in
// fixed axis-then-direction order (the hill-climb's deterministic
// tie-break order).
func neighbors(ax [numAxes]axis, c candidate) []candidate {
	var nbs []candidate
	for i := range ax {
		for _, d := range [2]int{-1, 1} {
			j := c[i] + d
			if j < 0 || j >= len(ax[i].vals) {
				continue
			}
			nb := c
			nb[i] = j
			nbs = append(nbs, nb)
		}
	}
	return nbs
}

// rng is a splitmix64 stream: tiny, well-distributed, and stable
// across Go releases (unlike math/rand's unspecified algorithm), so a
// Seed pins the candidate sample forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Tuning defaults. DefaultCandidates and DefaultRungs apply when the
// corresponding Options field is zero; DefaultClimb is wishtune's -climb
// default, because a zero Climb means no climbing.
const (
	DefaultCandidates = 12
	DefaultRungs      = 3
	DefaultClimb      = 3
)

// Options configures a tuning run.
type Options struct {
	// Lab executes the evaluation campaigns, simulating in-process or
	// through its Backend (a serve.Client for a daemon or a cluster
	// coordinator). Required.
	Lab *lab.Lab
	// Benches are the workloads to tune (default: all nine).
	Benches []string
	// Input is the profiling/evaluation input set.
	Input workload.Input
	// Seed pins the candidate sample; equal seeds (with equal options)
	// produce byte-identical tables.
	Seed uint64
	// Candidates is the successive-halving entry population
	// (default DefaultCandidates, minimum 2). Candidate 0 is always
	// the paper's default policy.
	Candidates int
	// Rungs is the number of halving rungs (default DefaultRungs).
	// Rung r runs at Scale/2^(Rungs-1-r): the final rung is full scale.
	Rungs int
	// Scale is the full workload scale (default workload.DefaultScale).
	Scale float64
	// Climb bounds the hill-climb refinement rounds after halving
	// (<= 0 disables climbing).
	Climb int
	// Log receives deterministic progress lines (nil = silent).
	Log io.Writer
}

// evaluator memoizes policy evaluations by spec key and charges each
// unique simulation to its benchmark, so Evals counts real work, not
// re-lookups. Each batch is warmed through the lab as one campaign.
type evaluator struct {
	lab   *lab.Lab
	cache map[string]uint64 // spec key → cycles
	evals map[string]int    // bench → unique evaluations
}

type evalReq struct {
	bench string
	spec  lab.Spec
}

func (e *evaluator) run(ctx context.Context, reqs []evalReq) error {
	var fresh []lab.Spec
	var benches []string
	seen := make(map[string]bool)
	for _, rq := range reqs {
		k := rq.spec.Key()
		if _, ok := e.cache[k]; ok || seen[k] {
			continue
		}
		seen[k] = true
		fresh = append(fresh, rq.spec)
		benches = append(benches, rq.bench)
	}
	if len(fresh) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Warm fans the batch out across the lab's workers; the reads
	// below are then memo hits.
	e.lab.Warm(fresh)
	for i, s := range fresh {
		res, err := e.lab.ResultContext(ctx, s)
		if err != nil {
			return fmt.Errorf("tune: %s: %w", s, err)
		}
		e.cache[s.Key()] = res.Cycles
		e.evals[benches[i]]++
	}
	return nil
}

// get returns the memoized score; the spec must have been run.
func (e *evaluator) get(s lab.Spec) uint64 { return e.cache[s.Key()] }

// Tune runs the search and returns the tuned-policy table. The tuner
// never regresses: the default policy is always re-evaluated at full
// scale, and a workload keeps the default when the search fails to
// beat it (Speedup 1.0), so every table row satisfies Speedup >= 1.
func Tune(ctx context.Context, o Options) (*Table, error) {
	if o.Lab == nil {
		return nil, errors.New("tune: Options.Lab is required")
	}
	benches := o.Benches
	if len(benches) == 0 {
		for _, b := range workload.All() {
			benches = append(benches, b.Name)
		}
	}
	for _, b := range benches {
		if _, ok := workload.ByName(b); !ok {
			return nil, fmt.Errorf("tune: unknown benchmark %q", b)
		}
	}
	if o.Candidates == 0 {
		o.Candidates = DefaultCandidates
	}
	if o.Candidates < 2 {
		o.Candidates = 2
	}
	if o.Rungs <= 0 {
		o.Rungs = DefaultRungs
	}
	if o.Scale <= 0 {
		o.Scale = workload.DefaultScale
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format, args...)
		}
	}

	// Sample the entry population: the default policy plus Candidates-1
	// distinct seeded grid points. The attempt bound only matters if
	// Candidates approaches the grid size (thousands of points).
	ax := searchAxes()
	r := rng{s: o.Seed}
	cands := []candidate{defaultCandidate(ax)}
	seen := map[candidate]bool{cands[0]: true}
	for attempts := 0; len(cands) < o.Candidates && attempts < o.Candidates*64; attempts++ {
		var c candidate
		for i := range ax {
			c[i] = r.intn(len(ax[i].vals))
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		cands = append(cands, c)
	}
	logf("tune: %d candidates, %d rungs, %d benches, seed %d\n",
		len(cands), o.Rungs, len(benches), o.Seed)

	ev := &evaluator{lab: o.Lab, cache: make(map[string]uint64), evals: make(map[string]int)}
	alive := make(map[string][]int) // bench → surviving candidate indices
	for _, bench := range benches {
		ids := make([]int, len(cands))
		for i := range ids {
			ids[i] = i
		}
		alive[bench] = ids
	}

	// Successive halving: each rung re-scores every survivor of every
	// bench in one batched campaign, then keeps the better half
	// (ties break on candidate index, so equal scores keep the
	// earlier — and for candidate 0, simpler — policy).
	for rung := 0; rung < o.Rungs; rung++ {
		scale := o.Scale / float64(uint64(1)<<uint(o.Rungs-1-rung))
		var reqs []evalReq
		for _, bench := range benches {
			for _, ci := range alive[bench] {
				reqs = append(reqs, evalReq{bench, policyAt(ax, cands[ci]).Spec(bench, o.Input, scale)})
			}
		}
		logf("tune: rung %d/%d at scale %g: %d evaluations\n", rung+1, o.Rungs, scale, len(reqs))
		if err := ev.run(ctx, reqs); err != nil {
			return nil, err
		}
		for _, bench := range benches {
			ids := alive[bench]
			score := func(ci int) uint64 {
				return ev.get(policyAt(ax, cands[ci]).Spec(bench, o.Input, scale))
			}
			sort.SliceStable(ids, func(a, b int) bool {
				sa, sb := score(ids[a]), score(ids[b])
				if sa != sb {
					return sa < sb
				}
				return ids[a] < ids[b]
			})
			keep := (len(ids) + 1) / 2
			if rung == o.Rungs-1 {
				keep = 1
			}
			alive[bench] = ids[:keep]
		}
	}

	// Hill-climb refinement at full scale: walk each winner ±1 grid
	// step per axis until no neighbor improves or the round budget is
	// spent. Neighbor batches are shared across benches per round.
	cur := make(map[string]candidate)
	done := make(map[string]bool)
	for _, bench := range benches {
		cur[bench] = cands[alive[bench][0]]
	}
	for round := 0; round < o.Climb; round++ {
		type move struct {
			bench string
			c     candidate
			spec  lab.Spec
		}
		var reqs []evalReq
		var moves []move
		for _, bench := range benches {
			if done[bench] {
				continue
			}
			for _, nb := range neighbors(ax, cur[bench]) {
				spec := policyAt(ax, nb).Spec(bench, o.Input, o.Scale)
				moves = append(moves, move{bench, nb, spec})
				reqs = append(reqs, evalReq{bench, spec})
			}
		}
		if len(reqs) == 0 {
			break
		}
		logf("tune: climb round %d/%d: %d evaluations\n", round+1, o.Climb, len(reqs))
		if err := ev.run(ctx, reqs); err != nil {
			return nil, err
		}
		improved := false
		for _, bench := range benches {
			if done[bench] {
				continue
			}
			best := ev.get(policyAt(ax, cur[bench]).Spec(bench, o.Input, o.Scale))
			moved := false
			for _, mv := range moves {
				if mv.bench != bench {
					continue
				}
				if c := ev.get(mv.spec); c < best {
					best, cur[bench], moved = c, mv.c, true
				}
			}
			if moved {
				improved = true
			} else {
				done[bench] = true
			}
		}
		if !improved {
			break
		}
	}

	// Baseline: the default policy at full scale (memoized if the
	// default survived to the final rung). The winner must beat it to
	// be reported; otherwise the workload keeps the default.
	def := DefaultPolicy()
	var reqs []evalReq
	for _, bench := range benches {
		reqs = append(reqs, evalReq{bench, def.Spec(bench, o.Input, o.Scale)})
	}
	if err := ev.run(ctx, reqs); err != nil {
		return nil, err
	}

	t := &Table{
		Schema:     TableSchema,
		Seed:       o.Seed,
		Input:      o.Input.String(),
		Scale:      o.Scale,
		Candidates: len(cands),
		Rungs:      o.Rungs,
	}
	for _, bench := range benches {
		p := policyAt(ax, cur[bench])
		cyc := ev.get(p.Spec(bench, o.Input, o.Scale))
		defCyc := ev.get(def.Spec(bench, o.Input, o.Scale))
		if defCyc <= cyc {
			p, cyc = def, defCyc
		}
		t.Workloads = append(t.Workloads, Workload{
			Bench:         bench,
			Policy:        p,
			PolicySig:     p.Sig(),
			Cycles:        cyc,
			DefaultCycles: defCyc,
			Speedup:       float64(defCyc) / float64(cyc),
			Evals:         ev.evals[bench],
		})
		logf("tune: %s: %s (%d cycles, default %d, %d evals)\n",
			bench, p.Sig(), cyc, defCyc, ev.evals[bench])
	}
	return t, nil
}
