package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"wishbranch/internal/artifact"
	"wishbranch/internal/compiler"
	"wishbranch/internal/config"
	"wishbranch/internal/cpu"
	"wishbranch/internal/lab"
	"wishbranch/internal/workload"
)

// hotCase is one simulator regime.
type hotCase struct {
	name    string
	bench   string
	variant compiler.Variant
	machine func() *config.Machine
}

// hotCases are the regimes of the cycle loop: the wish binary on the
// default machine, a flush-heavy pointer chaser, the predicated binary,
// and the select-µop rename path.
var hotCases = []hotCase{
	{"gzip/wish-jjl/default", "gzip", compiler.WishJumpJoinLoop, config.DefaultMachine},
	{"mcf/normal/default", "mcf", compiler.NormalBranch, config.DefaultMachine},
	{"parser/base-max/default", "parser", compiler.BaseMax, config.DefaultMachine},
	{"gzip/base-max/select", "gzip", compiler.BaseMax,
		func() *config.Machine { return config.DefaultMachine().WithSelectUop() }},
}

func (h hotCase) spec(scale float64) lab.Spec {
	return lab.Spec{
		Bench: h.bench, Input: workload.InputA, Variant: h.variant, Machine: h.machine(),
		Scale: scale, Thresholds: compiler.DefaultThresholds(),
	}
}

// Steady-state allocation probe: run past the simulator's working-set
// growth, then count allocations per step of a window, floored, as
// testing.AllocsPerRun does in the cpu package's TestSteadyStateZeroAlloc.
// Map growth (memory pages, the wrong-path store overlay) still lands
// in some windows at a time that depends on the map hash seed, so an
// exact count of the window would flake.
const (
	probeWarmCycles = 300000
	probeSteps      = 20
	probeStepCycles = 2000
)

// simHotloop runs the cycle loop alone: each iteration simulates the
// four cases serially from artifacts built during set-up, so no lab,
// store, journal or wire code runs.
type simHotloop struct {
	scale   float64
	results []*cpu.Result // the last iteration's, by case
	steady  uint64        // allocations in the probe windows
}

// setup builds the four artifacts.
func (h *simHotloop) setup(r *runner) error {
	artifact.Reset()
	for _, c := range hotCases {
		if _, err := artifact.Get(artifactKey(c.spec(h.scale))); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return nil
}

// verifySetup runs the steady-state allocation probe: the cycle loop
// must not allocate once warm.
func (h *simHotloop) verifySetup(r *runner) {
	h.steady = 0
	for _, c := range hotCases {
		s := c.spec(h.scale)
		art, err := artifact.Get(artifactKey(s))
		if err != nil {
			r.checkErr(err, c.name)
			continue
		}
		sim, err := cpu.New(s.Machine, art.Prog, art.Mem)
		if err != nil {
			r.checkErr(err, c.name)
			continue
		}
		if sim.Advance(probeWarmCycles) {
			continue // too short for a steady state at this scale
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < probeSteps; i++ {
			sim.Advance(probeStepCycles)
		}
		runtime.ReadMemStats(&m1)
		h.steady += (m1.Mallocs - m0.Mallocs) / probeSteps
	}
	r.check(h.steady == 0, "sim-hotloop: %d allocations per %d-cycle step of the steady-state cycle loop, want 0",
		h.steady, probeStepCycles)
}

func (h *simHotloop) iterate(r *runner, tr *tracer) error {
	h.results = make([]*cpu.Result, len(hotCases))
	for _, i := range r.perm(len(hotCases)) {
		s := hotCases[i].spec(h.scale)
		r.cal.sampleInside(1)
		id := tr.begin("artifact.get", r.root)
		art, err := artifact.Get(artifactKey(s))
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("cpu.new", r.root)
		sim, err := cpu.New(s.Machine, art.Prog, art.Mem)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("cpu.run", r.root)
		h.results[i], err = sim.Run(0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", hotCases[i].name, err)
		}
	}
	return nil
}

func (h *simHotloop) verify(r *runner, m map[string]float64) {
	want := golden.Hotloop[scaleKey(h.scale)]
	for i, c := range hotCases {
		res := h.results[i]
		if res == nil {
			continue // the iteration failed; already counted
		}
		r.check(res.RetiredUops == want[c.name], "%s at scale %s: %d retired µops, golden %d",
			c.name, scaleKey(h.scale), res.RetiredUops, want[c.name])
		r.checkSnapshot(c.spec(h.scale), res, nil)
	}
	if m != nil {
		simCounts(m, h.results)
		m["cpu.steady_allocs"] = float64(h.steady)
	}
}

// digests is the retired-µop witness of each case.
func (h *simHotloop) digests() map[string]string {
	var parts []string
	for i, c := range hotCases {
		if i < len(h.results) && h.results[i] != nil {
			parts = append(parts, fmt.Sprintf("%s=%d", c.name, h.results[i].RetiredUops))
		}
	}
	sort.Strings(parts)
	return map[string]string{"retired_uops": strings.Join(parts, ",")}
}

func (h *simHotloop) close() {}
