package harness

// The source-sensitive oracle families. Each one checks a byte-exact
// identity over a generated program:
//
//   - arch: every variant's pipeline state equals its own emulator run,
//     and every variant's emulator run equals NormalBranch's — the
//     paper's mode-independence property (architectural results do not
//     depend on which execution path the hardware picked) plus
//     cross-variant functional equivalence of the lowering.
//   - timing: the event-skipping scheduler is an optimization, not a
//     model change — a skipped run's full cpu.Result is byte-identical
//     to the reference cycle-by-cycle run.
//   - cache: a warm lab.Store read returns byte-identical JSON to the
//     cold simulation that produced it, and re-simulation reproduces
//     the stored bytes (end-to-end determinism of result + store).
//   - codec: the binary result codec is a lossless re-encoding of the
//     JSON wire form — encode→decode round-trips to JSON-identical
//     results, re-encoding is byte-stable, and the frame is exactly
//     self-delimiting (differential JSON↔binary check over real
//     simulator output, not hand-built fixtures).
//   - run: the run-identity rule is sound — a machine field that
//     cpu.Observed resets for a program does not change that program's
//     result frame, so lab.Warm may simulate one key per run identity.
//   - resume (resume.go): a campaign journal cut at a seed-derived byte
//     offset recovers its longest valid prefix and resumes to a
//     byte-identical journal — the crash-safety contract of
//     checkpoint/resume.

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

// ConformanceMachines is the machine-config spread the arch and timing
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
// for every variant × machine, and every variant vs NormalBranch.
// KillSwitch deliberately re-introduces a guard-dropping miscompile
// into the BASE-MAX binary (see killswitch.go) — it exists so the
// harness can prove, end to end, that it detects and shrinks real
// bugs.
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
			sim, err := cpu.New(cfg, p, nil)
			if err != nil {
				return fmt.Errorf("%v cfg%d: %w", v, ci, err)
			}
			res, err := sim.Run(maxCPUCycles)
			if err != nil {
				return fmt.Errorf("%v cfg%d: %w", v, ci, err)
			}
			if !res.Halted {
				return fmt.Errorf("%v cfg%d: did not halt in %d cycles", v, ci, maxCPUCycles)
			}
			if err := diffArch(sim.ArchState(), em); err != nil {
				return fmt.Errorf("%v cfg%d pipeline diverges from emulator: %w", v, ci, err)
			}
		}
	}
	return nil
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

// TimingOracle checks that event-driven cycle skipping is invisible:
// for every variant × machine, a run with skipping enabled produces a
// byte-identical cpu.Result to the reference cycle-by-cycle run. It
// checks the arch oracle's full machine spread: the dead-cycle rule
// reads the window size and, through needsSelect, the oracle knobs.
type TimingOracle struct {
	Machines []*config.Machine // nil = ConformanceMachines()
}

func (o *TimingOracle) Name() string          { return "timing" }
func (o *TimingOracle) SourceSensitive() bool { return true }

func (o *TimingOracle) Check(ctx context.Context, c Case) error {
	machines := o.Machines
	if machines == nil {
		machines = ConformanceMachines()
	}
	thr := compiler.DefaultThresholds()
	for _, v := range compiler.Variants() {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := compiler.CompileOpt(c.Source, v, thr)
		if err != nil {
			return fmt.Errorf("compile %v: %w", v, err)
		}
		for ci, cfg := range machines {
			run := func(skip bool) ([]byte, error) {
				sim, err := cpu.New(cfg, p, nil)
				if err != nil {
					return nil, err
				}
				sim.SetCycleSkipping(skip)
				res, err := sim.Run(maxCPUCycles)
				if err != nil {
					return nil, err
				}
				return json.Marshal(res)
			}
			skipped, err := run(true)
			if err != nil {
				return fmt.Errorf("%v cfg%d skipping: %w", v, ci, err)
			}
			reference, err := run(false)
			if err != nil {
				return fmt.Errorf("%v cfg%d reference: %w", v, ci, err)
			}
			if string(skipped) != string(reference) {
				return fmt.Errorf("%v cfg%d: skipped result differs from reference:\nskip: %s\nref:  %s",
					v, ci, skipped, reference)
			}
		}
	}
	return nil
}

// CacheOracle checks warm-vs-cold byte identity through a real
// lab.Store in a throwaway directory: the cold simulation's result,
// the store's round-trip of it, and an independent re-simulation must
// all serialize to the same bytes.
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
		simulate := func() ([]byte, *cpu.Result, error) {
			sim, err := cpu.New(cfg, p, nil)
			if err != nil {
				return nil, nil, err
			}
			res, err := sim.Run(maxCPUCycles)
			if err != nil {
				return nil, nil, err
			}
			b, err := json.Marshal(res)
			return b, res, err
		}
		cold, res, err := simulate()
		if err != nil {
			return fmt.Errorf("%v cold: %w", v, err)
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
		again, _, err := simulate()
		if err != nil {
			return fmt.Errorf("%v re-run: %w", v, err)
		}
		if string(again) != string(cold) {
			return fmt.Errorf("%v: re-simulation differs from first run:\nfirst:  %s\nsecond: %s",
				v, cold, again)
		}
	}
	return nil
}

// CodecOracle is the JSON↔binary differential check over genuine
// simulator output: for every variant of the generated program, the
// binary result frame must decode to a result whose JSON serialization
// matches the original's exactly, re-encode to the same bytes, and be
// precisely self-delimiting (EncodedResultSize == appended == consumed).
// Fuzzing this against compiler-generated programs exercises codec
// shapes hand-written fixtures miss — long branch tables, zero-branch
// results, saturated counters.
type CodecOracle struct{}

func (o *CodecOracle) Name() string          { return "codec" }
func (o *CodecOracle) SourceSensitive() bool { return true }

func (o *CodecOracle) Check(ctx context.Context, c Case) error {
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
		sim, err := cpu.New(cfg, p, nil)
		if err != nil {
			return fmt.Errorf("%v: %w", v, err)
		}
		res, err := sim.Run(maxCPUCycles)
		if err != nil {
			return fmt.Errorf("%v: %w", v, err)
		}
		wantJSON, err := json.Marshal(res)
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
		gotJSON, err := json.Marshal(&back)
		if err != nil {
			return fmt.Errorf("%v remarshal: %w", v, err)
		}
		if string(gotJSON) != string(wantJSON) {
			return fmt.Errorf("%v: binary round-trip diverges from JSON:\nwant: %s\ngot:  %s",
				v, wantJSON, gotJSON)
		}
		again := cpu.AppendResult(nil, &back)
		if string(again) != string(frame) {
			return fmt.Errorf("%v: re-encoding a decoded result changed the bytes", v)
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
		sim, err := cpu.New(m, p, nil)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(maxCPUCycles)
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
	case "timing":
		return &TimingOracle{}, nil
	case "cache":
		return &CacheOracle{}, nil
	case "codec":
		return &CodecOracle{}, nil
	case "cluster":
		return &ClusterOracle{}, nil
	case "run":
		return &RunOracle{}, nil
	case "resume":
		return &ResumeOracle{}, nil
	default:
		return nil, fmt.Errorf("harness: unknown oracle %q (have arch, timing, cache, codec, cluster, run, resume)", name)
	}
}

// DefaultOracles is the full conformance battery. killSwitch swaps the
// arch oracle for its deliberately-broken twin.
func DefaultOracles(killSwitch bool) []Oracle {
	return []Oracle{
		&ArchOracle{KillSwitch: killSwitch},
		&TimingOracle{},
		&CacheOracle{},
		&CodecOracle{},
		&ClusterOracle{},
		&RunOracle{},
		&ResumeOracle{},
	}
}
