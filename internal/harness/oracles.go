package harness

// The source-sensitive oracle families. Each one checks a byte-exact
// identity over a generated program:
//
//   - arch: every variant's pipeline state equals its own emulator run,
//     and every variant's emulator run equals NormalBranch's — the
//     paper's mode-independence property (architectural results do not
//     depend on which execution path the hardware picked) plus
//     cross-variant functional equivalence of the lowering. Once those
//     hold, each of its runs is repeated cycle by cycle: event-driven
//     cycle skipping is an optimization, not a model change, so the
//     reference run's full cpu.Result must be byte-identical.
//   - cache: the binary result codec re-encodes the cold simulation's
//     result losslessly, a warm lab.Store read returns byte-identical
//     JSON to that cold result, and re-simulation reproduces it
//     (end-to-end determinism of result, codec and store).
//   - run: the run-identity rule is sound — a machine field that
//     cpu.Observed resets for a program does not change that program's
//     result frame, so lab.Warm may simulate one key per run identity.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/emu"
	"wishbranch/internal/isa"
	"wishbranch/internal/lab"
	"wishbranch/internal/prog"
)

// Run limits for generated programs, matching the per-package fuzz
// loops they replace.
const (
	maxEmuInsts  = 50_000_000
	maxCPUCycles = 5_000_000
)

// ConformanceMachines is the machine-config spread the arch and run
// oracles check by default: the baseline, both predication mechanisms,
// a resized window, and every oracle knob — the same net the cpu
// package's pipeline fuzz test casts.
func ConformanceMachines() []*config.Machine {
	cfgs := []*config.Machine{
		config.DefaultMachine(),
		config.DefaultMachine().WithSelectUop(),
		config.DefaultMachine().WithWindow(128).WithDepth(10),
	}
	perfect := config.DefaultMachine()
	perfect.PerfectConfidence = true
	cfgs = append(cfgs, perfect)
	noDep := config.DefaultMachine()
	noDep.NoPredDepend = true
	cfgs = append(cfgs, noDep)
	noFetch := config.DefaultMachine()
	noFetch.NoFalseFetch = true
	cfgs = append(cfgs, noFetch)
	perfBP := config.DefaultMachine()
	perfBP.PerfectBP = true
	cfgs = append(cfgs, perfBP)
	return cfgs
}

// ArchOracle checks architectural equivalence: pipeline vs emulator
// for every variant × machine, and every variant vs NormalBranch. Once
// all of those hold, it re-runs each pipeline run with cycle skipping
// off and requires the same cpu.Result: skipping must be invisible,
// and the dead-cycle rule reads the window size and, through
// needsSelect, the oracle knobs, so it is checked on the full machine
// spread. The reference runs come last, so an architectural failure
// fails (and shrinks) without paying for them. KillSwitch
// deliberately re-introduces a guard-dropping miscompile into the
// BASE-MAX binary (see killswitch.go) — it exists so the harness can
// prove, end to end, that it detects and shrinks real bugs.
type ArchOracle struct {
	Machines   []*config.Machine // nil = ConformanceMachines()
	KillSwitch bool
}

func (o *ArchOracle) Name() string {
	if o.KillSwitch {
		return "arch+killswitch"
	}
	return "arch"
}

func (o *ArchOracle) SourceSensitive() bool { return true }

func (o *ArchOracle) Check(ctx context.Context, c Case) error {
	machines := o.Machines
	if machines == nil {
		machines = ConformanceMachines()
	}
	thr := compiler.DefaultThresholds()
	type pipelineRun struct {
		v   compiler.Variant
		ci  int
		p   *prog.Program
		res *cpu.Result // cycle skipping on
	}
	var runs []pipelineRun
	var ref *emu.State // NormalBranch's architectural outcome
	for _, v := range compiler.Variants() {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := compiler.CompileOpt(c.Source, v, thr)
		if err != nil {
			return fmt.Errorf("compile %v: %w", v, err)
		}
		if o.KillSwitch && v == compiler.BaseMax {
			DropFirstGuard(p)
		}
		em := emu.New(p)
		if _, err := em.Run(maxEmuInsts); err != nil {
			return fmt.Errorf("%v emulator: %w", v, err)
		}
		if v == compiler.NormalBranch {
			ref = em
		} else if err := diffArch(em, ref); err != nil {
			return fmt.Errorf("%v functionally diverges from %v: %w",
				v, compiler.NormalBranch, err)
		}
		for ci, cfg := range machines {
			sim, res, err := simulate(cfg, p, true)
			if err != nil {
				return fmt.Errorf("%v cfg%d: %w", v, ci, err)
			}
			if !res.Halted {
				return fmt.Errorf("%v cfg%d: did not halt in %d cycles", v, ci, maxCPUCycles)
			}
			if err := diffArch(sim.ArchState(), em); err != nil {
				return fmt.Errorf("%v cfg%d pipeline diverges from emulator: %w", v, ci, err)
			}
			runs = append(runs, pipelineRun{v, ci, p, res})
		}
	}
	for _, r := range runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := sameAsReference(machines[r.ci], r.p, r.res); err != nil {
			return fmt.Errorf("%v cfg%d: %w", r.v, r.ci, err)
		}
	}
	return nil
}

// sameAsReference re-runs p on cfg cycle by cycle and requires the
// reference run's full cpu.Result to be byte-identical to skipped, the
// result of the same run with cycle skipping on.
func sameAsReference(cfg *config.Machine, p *prog.Program, skipped *cpu.Result) error {
	_, res, err := simulate(cfg, p, false)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	skip, err := json.Marshal(skipped)
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	reference, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("reference marshal: %w", err)
	}
	if string(skip) != string(reference) {
		return fmt.Errorf("skipped result differs from reference:\nskip: %s\nref:  %s", skip, reference)
	}
	return nil
}

// simulate runs p on cfg until it halts or maxCPUCycles pass, with
// event-driven cycle skipping on or off.
func simulate(cfg *config.Machine, p *prog.Program, skip bool) (*cpu.CPU, *cpu.Result, error) {
	sim, err := cpu.New(cfg, p, nil)
	if err != nil {
		return nil, nil, err
	}
	sim.SetCycleSkipping(skip)
	res, err := sim.Run(maxCPUCycles)
	return sim, res, err
}

// diffArch compares the architecturally meaningful state of two runs
// of a generated program: the accumulators and the private memory
// window.
func diffArch(got, want *emu.State) error {
	for a := 0; a < compiler.GenAccs; a++ {
		r := isa.Reg(compiler.GenAccBase + a)
		if got.Regs[r] != want.Regs[r] {
			return fmt.Errorf("r%d = %d, want %d", r, got.Regs[r], want.Regs[r])
		}
	}
	for w := 0; w < compiler.GenMemWords; w++ {
		addr := uint64(compiler.GenMemBase + 8*w)
		if g, want := got.Mem.Load(addr), want.Mem.Load(addr); g != want {
			return fmt.Errorf("mem[%#x] = %d, want %d", addr, g, want)
		}
	}
	return nil
}

// CacheOracle checks a cold simulation's result through the two
// encodings every stored or served result takes. First the binary
// result codec, over genuine simulator output rather than hand-built
// fixtures (long branch tables, zero-branch results, saturated
// counters): the frame is exactly the size EncodedResultSize promises
// and exactly self-delimiting, decodes to a result whose JSON matches
// the cold result's, and re-encodes to the same bytes. Then a real
// lab.Store in a throwaway directory: the store's round-trip of the
// result and an independent re-simulation must both serialize to the
// cold result's bytes.
type CacheOracle struct{}

func (o *CacheOracle) Name() string          { return "cache" }
func (o *CacheOracle) SourceSensitive() bool { return true }

func (o *CacheOracle) Check(ctx context.Context, c Case) error {
	dir, err := os.MkdirTemp("", "wishfuzz-cache-")
	if err != nil {
		return fmt.Errorf("cache oracle setup: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := lab.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("cache oracle setup: %w", err)
	}
	defer st.Close()
	thr := compiler.DefaultThresholds()
	cfg := config.DefaultMachine()
	for _, v := range compiler.Variants() {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := compiler.CompileOpt(c.Source, v, thr)
		if err != nil {
			return fmt.Errorf("compile %v: %w", v, err)
		}
		_, res, err := simulate(cfg, p, true)
		if err != nil {
			return fmt.Errorf("%v cold: %w", v, err)
		}
		cold, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("%v marshal: %w", v, err)
		}

		frame := cpu.AppendResult(nil, res)
		if want := cpu.EncodedResultSize(res); len(frame) != want {
			return fmt.Errorf("%v: encoded %d bytes, EncodedResultSize promised %d", v, len(frame), want)
		}
		var back cpu.Result
		n, err := cpu.DecodeResult(frame, &back)
		if err != nil {
			return fmt.Errorf("%v decode: %w", v, err)
		}
		if n != len(frame) {
			return fmt.Errorf("%v: decode consumed %d of %d bytes — frame is not self-delimiting", v, n, len(frame))
		}
		decoded, err := json.Marshal(&back)
		if err != nil {
			return fmt.Errorf("%v remarshal: %w", v, err)
		}
		if string(decoded) != string(cold) {
			return fmt.Errorf("%v: binary round-trip diverges from JSON:\nwant: %s\ngot:  %s",
				v, cold, decoded)
		}
		if again := cpu.AppendResult(nil, &back); string(again) != string(frame) {
			return fmt.Errorf("%v: re-encoding a decoded result changed the bytes", v)
		}

		key := fmt.Sprintf("harness|seed=%d|variant=%d", c.Seed, int(v))
		if err := st.Put(key, res); err != nil {
			return fmt.Errorf("%v put: %w", v, err)
		}
		warm := st.Get(key)
		if warm == nil {
			return fmt.Errorf("%v: store miss immediately after put", v)
		}
		warmB, err := json.Marshal(warm)
		if err != nil {
			return fmt.Errorf("%v warm marshal: %w", v, err)
		}
		if string(warmB) != string(cold) {
			return fmt.Errorf("%v: warm store read differs from cold result:\ncold: %s\nwarm: %s",
				v, cold, warmB)
		}
		_, res, err = simulate(cfg, p, true)
		if err != nil {
			return fmt.Errorf("%v re-run: %w", v, err)
		}
		again, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("%v re-run marshal: %w", v, err)
		}
		if string(again) != string(cold) {
			return fmt.Errorf("%v: re-simulation differs from first run:\nfirst:  %s\nsecond: %s",
				v, cold, again)
		}
	}
	return nil
}

// RunOracle checks the rule lab.Warm groups a batch by: for every
// variant of the generated program on every machine, each perturbation
// of a field cpu.Observed may reset (the estimator geometry, threshold
// and history, perfect confidence, the predication mechanism, both
// predication oracles, and the name) that leaves the observed machine
// unchanged must leave the result frame byte-identical too. A
// perturbation the program observes is skipped: its result may move.
type RunOracle struct {
	Machines []*config.Machine // nil = ConformanceMachines()

	// observed replaces cpu.Observed in tests, which check that the
	// oracle fails an unsound rule.
	observed func(config.Machine, *prog.Program) config.Machine
}

func (o *RunOracle) Name() string          { return "run" }
func (o *RunOracle) SourceSensitive() bool { return true }

// runPerturbations each move one field of the run-identity rule away
// from the machine's value, to another valid one.
var runPerturbations = []struct {
	field string
	move  func(m *config.Machine)
}{
	{"JRS geometry", func(m *config.Machine) { m.JRS.Entries, m.JRS.Ways = 2*m.JRS.Entries, 2 }},
	{"JRS threshold", func(m *config.Machine) { m.JRS.Threshold = m.JRS.Threshold%15 + 1 }},
	{"JRS history", func(m *config.Machine) { m.JRS.HistoryBits ^= 4 }},
	{"PerfectConfidence", func(m *config.Machine) { m.PerfectConfidence = !m.PerfectConfidence }},
	{"PredMech", func(m *config.Machine) { m.PredMech = config.SelectUop - m.PredMech }},
	{"NoPredDepend", func(m *config.Machine) { m.NoPredDepend = !m.NoPredDepend }},
	{"NoFalseFetch", func(m *config.Machine) { m.NoFalseFetch = !m.NoFalseFetch }},
	{"Name", func(m *config.Machine) { m.Name += "-renamed" }},
}

func (o *RunOracle) Check(ctx context.Context, c Case) error {
	machines := o.Machines
	if machines == nil {
		machines = ConformanceMachines()
	}
	observed := o.observed
	if observed == nil {
		observed = cpu.Observed
	}
	thr := compiler.DefaultThresholds()
	frame := func(m *config.Machine, p *prog.Program) ([]byte, error) {
		_, res, err := simulate(m, p, true)
		if err != nil {
			return nil, err
		}
		return cpu.AppendResult(nil, res), nil
	}
	for _, v := range compiler.Variants() {
		p, err := compiler.CompileOpt(c.Source, v, thr)
		if err != nil {
			return fmt.Errorf("compile %v: %w", v, err)
		}
		for ci, cfg := range machines {
			if err := ctx.Err(); err != nil {
				return err
			}
			want, err := frame(cfg, p)
			if err != nil {
				return fmt.Errorf("%v cfg%d: %w", v, ci, err)
			}
			for _, pt := range runPerturbations {
				m := *cfg
				pt.move(&m)
				if observed(m, p) != observed(*cfg, p) {
					continue
				}
				got, err := frame(&m, p)
				if err != nil {
					return fmt.Errorf("%v cfg%d with %s moved: %w", v, ci, pt.field, err)
				}
				if string(got) != string(want) {
					return fmt.Errorf("%v cfg%d: moving %s, which the program does not observe, changed its result frame",
						v, ci, pt.field)
				}
			}
		}
	}
	return nil
}

// OracleByName reconstructs an oracle from its Name() string — the
// repro format stores only the name, so a replayed failure re-runs
// under exactly the oracle (and kill-switch setting) that found it.
func OracleByName(name string) (Oracle, error) {
	switch name {
	case "arch":
		return &ArchOracle{}, nil
	case "arch+killswitch":
		return &ArchOracle{KillSwitch: true}, nil
	case "cache":
		return &CacheOracle{}, nil
	case "cluster":
		return &ClusterOracle{}, nil
	case "run":
		return &RunOracle{}, nil
	default:
		return nil, fmt.Errorf("harness: unknown oracle %q (have arch, cache, cluster, run)", name)
	}
}

// DefaultOracles is the full conformance battery. killSwitch swaps the
// arch oracle for its deliberately-broken twin.
func DefaultOracles(killSwitch bool) []Oracle {
	return []Oracle{
		&ArchOracle{KillSwitch: killSwitch},
		&CacheOracle{},
		&ClusterOracle{},
		&RunOracle{},
	}
}
