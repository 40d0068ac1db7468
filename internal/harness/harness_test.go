package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
	"wishbranch/internal/testutil"
)

// killSwitchMachines keeps the kill-switch soak and its shrink loop
// fast: one machine config is enough to demonstrate detection, since
// the injected bug is architectural, not timing-dependent.
func killSwitchMachines() []*config.Machine {
	return []*config.Machine{config.DefaultMachine()}
}

// TestSourceCodecRoundTrip: generated programs must survive the
// kind-tagged JSON codec bit-exactly — every variant of the decoded
// source compiles to the identical µop stream.
func TestSourceCodecRoundTrip(t *testing.T) {
	seeds := testutil.Seeds(t, 25, 5)
	for seed := 0; seed < seeds; seed++ {
		src := compiler.GenRandomSource(uint64(seed)*7919 + 1)
		data, err := MarshalSource(src)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		back, err := UnmarshalSource(data)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		for _, v := range compiler.Variants() {
			p1, err1 := compiler.Compile(src, v)
			p2, err2 := compiler.Compile(back, v)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d %v: compile: %v / %v", seed, v, err1, err2)
			}
			if !reflect.DeepEqual(p1.Code, p2.Code) {
				t.Fatalf("seed %d %v: decoded source compiles differently", seed, v)
			}
		}
	}
}

func TestSourceCodecRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"name":"x","body":[{"kind":"nonsense"}]}`,
		`{"name":"x","body":[{"kind":"if"}]}`,
		`{"name":"x","body":[{"kind":"dowhile"}]}`,
		`{"name":"x","body":[{"kind":"call"}]}`,
		`not json at all`,
	}
	for _, c := range cases {
		if _, err := UnmarshalSource([]byte(c)); err == nil {
			t.Errorf("decode %q: expected error", c)
		}
	}
}

// TestCleanSoak: with no injected bug, every source-sensitive oracle
// family passes over fresh seeds. This is the in-tree slice of the
// CI soak (cmd/wishfuzz runs the full 200-seed version).
func TestCleanSoak(t *testing.T) {
	seeds := testutil.Seeds(t, 6, 2)
	rep, err := Soak(context.Background(), Options{
		Oracles:  []Oracle{&ArchOracle{}, &TimingOracle{}, &CacheOracle{}, &CodecOracle{}},
		SeedBase: 7000,
		Seeds:    seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) != 0 {
		t.Fatalf("clean soak found failures: %+v", rep.Failures)
	}
	if rep.Seeds != seeds || rep.Checks != 4*seeds {
		t.Fatalf("report: %d seeds, %d checks (want %d, %d)", rep.Seeds, rep.Checks, seeds, 4*seeds)
	}
	for _, name := range []string{"arch", "timing", "cache", "codec"} {
		if rep.PerOracle[name] != seeds {
			t.Fatalf("oracle %s ran %d times, want %d", name, rep.PerOracle[name], seeds)
		}
	}
}

// TestCodecOracleCleanOnFreshSeeds: the JSON↔binary differential holds
// over generated programs the codec's unit fixtures never saw.
func TestCodecOracleCleanOnFreshSeeds(t *testing.T) {
	o := &CodecOracle{}
	seeds := testutil.Seeds(t, 8, 3)
	for seed := 0; seed < seeds; seed++ {
		c := NewCase(uint64(9700 + seed))
		if err := o.Check(context.Background(), c); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, testutil.ReplayHint("codec", c.Seed))
		}
	}
}

// TestRunOracleCleanOnFreshSeeds: every machine field the run-identity
// rule resets for a generated program leaves its result frame alone.
func TestRunOracleCleanOnFreshSeeds(t *testing.T) {
	o := &RunOracle{}
	seeds := testutil.Seeds(t, 4, 2)
	for seed := 0; seed < seeds; seed++ {
		c := NewCase(uint64(9800 + seed))
		if err := o.Check(context.Background(), c); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, testutil.ReplayHint("run", c.Seed))
		}
	}
}

// TestRunOracleFailsAnUnsoundRule: a rule that resets the predication
// mechanism even for programs with guarded instructions would let a
// campaign hand a C-style result to a select-µop key. The oracle must
// catch it on the first seed whose predicated binaries guard anything.
func TestRunOracleFailsAnUnsoundRule(t *testing.T) {
	unsound := func(m config.Machine, p *prog.Program) config.Machine {
		m = cpu.Observed(m, p)
		m.PredMech = config.CStyle
		return m
	}
	o := &RunOracle{Machines: []*config.Machine{config.DefaultMachine()}, observed: unsound}
	err := o.Check(context.Background(), NewCase(1))
	if err == nil || !strings.Contains(err.Error(), "moving PredMech") {
		t.Fatalf("unsound rule: oracle verdict %v, want a PredMech failure", err)
	}
}

// TestClusterOracleCleanUnderChaos: campaigns through the chaos
// testbed come back byte-identical to local runs, across schedules
// that include worker kills, 5xx windows, drops, and delays.
func TestClusterOracleCleanUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster oracle spins up HTTP fleets; covered by the full suite and CI soak")
	}
	o := &ClusterOracle{Specs: 4}
	seeds := testutil.Seeds(t, 3, 1)
	sawKill := false
	for seed := 0; seed < seeds; seed++ {
		c := NewCase(uint64(9100 + seed))
		for _, ev := range ChaosSchedule(c.Seed) {
			if ev.KillAfter != 0 {
				sawKill = true
			}
		}
		if err := o.Check(context.Background(), c); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, testutil.ReplayHint("cluster", c.Seed))
		}
	}
	_ = sawKill // schedules vary by seed; determinism is asserted below
}

// TestChaosScheduleDeterministicAndSurvivable: the schedule derives
// purely from the seed, and always leaves at least one worker that can
// neither be killed nor marked dead by a routable fault.
func TestChaosScheduleDeterministicAndSurvivable(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		a := ChaosSchedule(seed)
		b := ChaosSchedule(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule not deterministic", seed)
		}
		doomed := map[int]bool{}
		for _, ev := range a {
			if ev.Worker < 0 || ev.Worker >= ChaosWorkers {
				t.Fatalf("seed %d: worker %d out of range", seed, ev.Worker)
			}
			if ev.KillAfter != 0 {
				doomed[ev.Worker] = true
			}
			if strings.HasPrefix(ev.Fault, "error:") || strings.HasPrefix(ev.Fault, "drop:") {
				doomed[ev.Worker] = true
			}
		}
		if len(doomed) >= ChaosWorkers {
			t.Fatalf("seed %d: schedule %+v dooms every worker", seed, a)
		}
	}
}

// TestKillSwitchEndToEnd is the harness's own conformance proof: with
// the deliberately-injected guard-dropping miscompile enabled, the
// soak must detect the failure, shrink it to a small program, and emit
// a repro whose replay reproduces the same verdict; with the bug
// disabled, the very same seeds pass.
func TestKillSwitchEndToEnd(t *testing.T) {
	corpus := t.TempDir()
	searchSeeds := testutil.Seeds(t, 40, 25)
	rep, err := Soak(context.Background(), Options{
		Oracles:   []Oracle{&ArchOracle{KillSwitch: true, Machines: killSwitchMachines()}},
		SeedBase:  1,
		Seeds:     searchSeeds,
		CorpusDir: corpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatalf("kill switch not detected in %d seeds — the harness cannot find real bugs", searchSeeds)
	}
	f := rep.Failures[0]
	t.Logf("kill switch detected at seed %d, shrunk to %d nodes: %s", f.Seed, f.Nodes, f.Err)
	if f.Minimized == nil {
		t.Fatal("arch failure was not shrunk")
	}
	if f.Nodes > 12 {
		t.Fatalf("minimized program has %d structured nodes, want <= 12", f.Nodes)
	}
	if f.ReproPath == "" {
		t.Fatal("no repro written")
	}

	// The repro file must replay to the same failing verdict…
	verdict, err := Replay(context.Background(), f.ReproPath)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if verdict == nil {
		t.Fatal("replay of the repro did not reproduce the failure")
	}
	if verdict.Error() != f.Err {
		t.Fatalf("replay verdict differs from recorded failure:\nreplay:   %v\nrecorded: %s", verdict, f.Err)
	}

	// …the repro must be self-contained (minimized source inline)…
	r, err := LoadRepro(f.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source == nil || r.Oracle != "arch+killswitch" || r.Replay == "" {
		t.Fatalf("repro not self-contained: %+v", r)
	}

	// …and with the bug disabled, the same minimized case passes.
	c, err := r.Case()
	if err != nil {
		t.Fatal(err)
	}
	healthy := &ArchOracle{Machines: killSwitchMachines()}
	if err := healthy.Check(context.Background(), c); err != nil {
		t.Fatalf("minimized case fails even without the kill switch: %v", err)
	}
}

// TestCorpusReplayCatchesRegressions: a repro sitting in the corpus
// directory is re-checked at soak startup and re-reported while the
// bug persists.
func TestCorpusReplayCatchesRegressions(t *testing.T) {
	corpus := t.TempDir()
	o := &ArchOracle{KillSwitch: true, Machines: killSwitchMachines()}

	// Find one failing seed and write its (unshrunken) repro by hand.
	var failing *Case
	for seed := uint64(1); seed < 40; seed++ {
		c := NewCase(seed)
		if o.Check(context.Background(), c) != nil {
			failing = &c
			break
		}
	}
	if failing == nil {
		t.Fatal("no kill-switch failure in 40 seeds")
	}
	path := filepath.Join(corpus, fmt.Sprintf("repro-%s-%d.json", o.Name(), failing.Seed))
	if err := WriteRepro(path, &Repro{
		Schema: ReproSchema, Oracle: o.Name(), Seed: failing.Seed,
		Source: encodeSource(failing.Source),
	}); err != nil {
		t.Fatal(err)
	}

	rep, err := Soak(context.Background(), Options{
		Oracles:   []Oracle{o},
		CorpusDir: corpus,
		SeedBase:  500_000, // fresh seeds; only the corpus should fail fast
		Seeds:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 {
		t.Fatalf("replayed %d corpus entries, want 1", rep.Replayed)
	}
	if len(rep.Failures) == 0 || rep.Failures[0].Seed != failing.Seed {
		t.Fatalf("corpus regression not re-reported: %+v", rep.Failures)
	}
}

// storeHunter is a synthetic oracle for shrinker unit-testing: it
// "fails" whenever the program still contains a store µop, so the
// shrinker should strip a generated program down to almost nothing but
// one store.
type storeHunter struct{}

func (storeHunter) Name() string          { return "storehunter" }
func (storeHunter) SourceSensitive() bool { return true }
func (storeHunter) Check(_ context.Context, c Case) error {
	if hasStore(c.Source.Body) || hasStoreSubs(c.Source.Subs) {
		return fmt.Errorf("contains a store")
	}
	return nil
}

func hasStoreSubs(subs []compiler.Subroutine) bool {
	for _, s := range subs {
		if hasStore(s.Body) {
			return true
		}
	}
	return false
}

func hasStore(nodes []compiler.Node) bool {
	for _, n := range nodes {
		switch t := n.(type) {
		case compiler.Straight:
			for _, in := range t.Insts {
				if in.Op == isa.OpStore {
					return true
				}
			}
		case compiler.If:
			if hasStore(t.Then) || hasStore(t.Else) {
				return true
			}
			for _, term := range t.Cond.Terms {
				for _, in := range term.Setup {
					if in.Op == isa.OpStore {
						return true
					}
				}
			}
		case compiler.DoWhile:
			if hasStore(t.Body) {
				return true
			}
		case compiler.While:
			if hasStore(t.Body) {
				return true
			}
		}
	}
	return false
}

// TestShrinkerMinimizesSyntheticBug: against the store-hunting oracle
// the shrinker must reduce any store-containing generated program to a
// single one-µop node.
func TestShrinkerMinimizesSyntheticBug(t *testing.T) {
	found := 0
	for seed := uint64(1); seed < 60 && found < 5; seed++ {
		c := NewCase(seed)
		if (storeHunter{}).Check(context.Background(), c) == nil {
			continue
		}
		found++
		min, err := ShrinkCase(context.Background(), storeHunter{}, c, DefaultShrinkChecks)
		if err == nil {
			t.Fatalf("seed %d: shrink lost the failure", seed)
		}
		if n := CountNodes(min); n != 1 {
			t.Fatalf("seed %d: shrunk to %d nodes, want 1", seed, n)
		}
		// The surviving node may live in the body or inside a
		// subroutine the oracle also inspects; either way it must be a
		// single-µop store.
		nodes := min.Body
		for _, sub := range min.Subs {
			nodes = append(nodes, sub.Body...)
		}
		if len(nodes) != 1 {
			t.Fatalf("seed %d: %d surviving nodes, want 1", seed, len(nodes))
		}
		st, ok := nodes[0].(compiler.Straight)
		if !ok || len(st.Insts) != 1 || st.Insts[0].Op != isa.OpStore {
			t.Fatalf("seed %d: minimal form is not a single store: %+v", seed, nodes)
		}
	}
	if found == 0 {
		t.Fatal("no generated program contained a store in 60 seeds — generator regression?")
	}
}

// TestShrinkRespectsBudget: the shrinker must stop at its check
// budget even when more reduction is available.
func TestShrinkRespectsBudget(t *testing.T) {
	var c Case
	for seed := uint64(1); ; seed++ {
		c = NewCase(seed)
		if (storeHunter{}).Check(context.Background(), c) != nil {
			break
		}
	}
	counter := &countingOracle{inner: storeHunter{}}
	min, err := ShrinkCase(context.Background(), counter, c, 3)
	if err == nil {
		t.Fatal("budgeted shrink lost the failure")
	}
	if min == nil {
		t.Fatal("nil minimized source")
	}
	if counter.n > 3 {
		t.Fatalf("shrinker spent %d checks with a budget of 3", counter.n)
	}
}

// countingOracle counts how often it is checked.
type countingOracle struct {
	inner Oracle
	n     int
}

func (o *countingOracle) Name() string          { return o.inner.Name() }
func (o *countingOracle) SourceSensitive() bool { return true }
func (o *countingOracle) Check(ctx context.Context, c Case) error {
	o.n++
	return o.inner.Check(ctx, c)
}

// TestSoakSeedsEnvOverride: WISHSIM_SEEDS wins over both the default
// and -short seed counts (the one-step reproducibility contract).
func TestSoakSeedsEnvOverride(t *testing.T) {
	t.Setenv(testutil.SeedsEnv, "3")
	if got := testutil.Seeds(t, 100, 10); got != 3 {
		t.Fatalf("Seeds with %s=3 = %d, want 3", testutil.SeedsEnv, got)
	}
}

// TestSoakBudgetStops: a time-budget soak terminates even with no
// seed bound.
func TestSoakBudgetStops(t *testing.T) {
	rep, err := Soak(context.Background(), Options{
		Oracles: []Oracle{nopOracle{}},
		Budget:  50_000_000, // 50ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds == 0 {
		t.Fatal("budgeted soak ran zero seeds")
	}
}

// TestSoakUnboundedRejected: a soak with no stopping condition is an
// error, not an infinite loop.
func TestSoakUnboundedRejected(t *testing.T) {
	if _, err := Soak(context.Background(), Options{Oracles: []Oracle{nopOracle{}}}); err == nil {
		t.Fatal("unbounded soak accepted")
	}
}

type nopOracle struct{}

func (nopOracle) Name() string                      { return "nop" }
func (nopOracle) SourceSensitive() bool             { return false }
func (nopOracle) Check(context.Context, Case) error { return nil }

// TestOracleByNameRoundTrip: every default oracle reconstructs from
// its own name (the repro format depends on this).
func TestOracleByNameRoundTrip(t *testing.T) {
	for _, o := range DefaultOracles(false) {
		back, err := OracleByName(o.Name())
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		if back.Name() != o.Name() {
			t.Fatalf("%s round-trips to %s", o.Name(), back.Name())
		}
	}
	ks, err := OracleByName("arch+killswitch")
	if err != nil || ks.(*ArchOracle).KillSwitch != true {
		t.Fatalf("arch+killswitch did not reconstruct the kill switch: %v", err)
	}
	if _, err := OracleByName("bogus"); err == nil {
		t.Fatal("unknown oracle name accepted")
	}
}

// TestReproRejectsBadFiles: schema and shape violations surface as
// clean errors.
func TestReproRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadRepro(write("a.json", `{"schema":99,"oracle":"arch"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := LoadRepro(write("b.json", `{"schema":1}`)); err == nil {
		t.Fatal("missing oracle accepted")
	}
	if _, err := LoadRepro(write("c.json", `garbage`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadRepro(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestDropFirstGuard: the mutation rewrites exactly the first guarded
// integer write and reports when there is nothing to break.
func TestDropFirstGuard(t *testing.T) {
	src := compiler.GenRandomSource(3)
	p, err := compiler.Compile(src, compiler.BaseMax)
	if err != nil {
		t.Fatal(err)
	}
	var before *isa.Inst
	for i := range p.Code {
		in := &p.Code[i]
		if in.Guard != isa.P0 && !in.IsBranch() && in.WritesInt() {
			before = in
			break
		}
	}
	if before == nil {
		t.Skip("seed 3 BASE-MAX has no guarded integer write")
	}
	if !DropFirstGuard(p) {
		t.Fatal("mutation found nothing to break")
	}
	if before.Guard != isa.P0 {
		t.Fatal("first guarded write still guarded after mutation")
	}
	empty, err := compiler.Compile(&compiler.Source{Name: "e", Body: []compiler.Node{
		compiler.S(isa.MovI(16, 1)),
	}}, compiler.BaseMax)
	if err != nil {
		t.Fatal(err)
	}
	if DropFirstGuard(empty) {
		t.Fatal("mutation claimed to break a program with no guarded writes")
	}
}
