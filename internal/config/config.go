// Package config defines machine configurations for the timing
// simulator. DefaultMachine reproduces the paper's baseline processor
// (Table 2); the With* helpers derive the sweep configurations used by
// the paper's sensitivity studies (Figures 14–16).
package config

import (
	"fmt"
	"reflect"
	"strings"

	"wishbranch/internal/bpred"
	"wishbranch/internal/cache"
	"wishbranch/internal/conf"
)

// PredMech selects how the out-of-order core handles predicated
// instructions at rename time (§2.1 and §5.3.3 of the paper).
type PredMech int

const (
	// CStyle converts a predicated instruction into a C-style
	// conditional expression: it reads the old destination value and the
	// guard predicate as extra sources and always writes its
	// destination. No extra µops, but the instruction cannot execute
	// until its predicate is ready.
	CStyle PredMech = iota
	// SelectUop implements Wang et al.'s select-µop mechanism: the
	// predicated instruction executes without waiting for its predicate,
	// and an injected select µop merges the old and new values; the
	// dependents wait on the select µop. Costs one extra µop per
	// predicated instruction.
	SelectUop
)

func (m PredMech) String() string {
	if m == SelectUop {
		return "select-uop"
	}
	return "c-style"
}

// Machine is a full timing-simulator configuration.
type Machine struct {
	Name string

	// Front end (Table 2: 8-wide, up to 3 conditional branches per
	// cycle, fetch ends at the first predicted-taken branch).
	FetchWidth        int
	MaxCondBrPerCycle int
	// FrontEndDepth is the number of cycles between fetch and dispatch;
	// together with resolve/redirect overhead it sets the minimum branch
	// misprediction penalty (30 cycles in the baseline).
	FrontEndDepth int
	// BTBMissPenalty is the fetch bubble charged when a predicted-taken
	// or wish branch misses in the BTB and must wait for decode.
	BTBMissPenalty int

	// Execution core.
	IssueWidth  int
	RetireWidth int
	ROBSize     int

	// Predictors.
	Hybrid          bpred.HybridConfig
	BTBEntries      int
	BTBWays         int
	RASDepth        int
	IndirectEntries int
	JRS             conf.JRSConfig

	// UseLoopPredictor enables the trip-count loop predictor for
	// backward branches (an extension the paper suggests in §3.2);
	// LoopPredictorBias biases it toward over-estimating trip counts so
	// wish-loop mispredictions skew late-exit.
	UseLoopPredictor  bool
	LoopPredictorBias int
	LoopPredEntries   int

	// Memory system.
	Caches cache.HierarchyConfig

	// Predication support mechanism.
	PredMech PredMech

	// Oracle knobs for the paper's limit studies (Figure 2).
	PerfectBP         bool // PERFECT-CBP: every branch predicted correctly
	PerfectConfidence bool // wish-branch confidence = actual prediction correctness
	NoPredDepend      bool // NO-DEPEND: predicate dependencies removed (oracle)
	NoFalseFetch      bool // NO-FETCH: predicated-false µops cost nothing (oracle)
}

// DefaultMachine returns the paper's Table 2 baseline.
func DefaultMachine() *Machine {
	return &Machine{
		Name:              "base-512-d30",
		FetchWidth:        8,
		MaxCondBrPerCycle: 3,
		FrontEndDepth:     28, // ≈30-cycle minimum misprediction penalty
		BTBMissPenalty:    3,
		IssueWidth:        8,
		RetireWidth:       8,
		ROBSize:           512,
		Hybrid:            bpred.DefaultHybridConfig(),
		BTBEntries:        4096,
		BTBWays:           4,
		RASDepth:          64,
		IndirectEntries:   64 * 1024,
		JRS:               conf.DefaultJRSConfig(),
		LoopPredEntries:   256,
		Caches:            cache.DefaultHierarchyConfig(),
		PredMech:          CStyle,
	}
}

// WithWindow returns a copy with the given instruction window (ROB)
// size, for the Figure 14 sweep (128/256/512).
func (m *Machine) WithWindow(rob int) *Machine {
	c := *m
	c.ROBSize = rob
	c.Name = nameSize(&c)
	return &c
}

// WithDepth returns a copy with the given pipeline depth in stages, for
// the Figure 15 sweep (10/20/30). The front-end depth is stages-2
// (resolve and redirect account for the rest of the flush penalty).
func (m *Machine) WithDepth(stages int) *Machine {
	c := *m
	c.FrontEndDepth = stages - 2
	if c.FrontEndDepth < 1 {
		c.FrontEndDepth = 1
	}
	c.Name = nameSize(&c)
	return &c
}

// WithSelectUop returns a copy using the select-µop predication
// mechanism (Figure 16).
func (m *Machine) WithSelectUop() *Machine {
	c := *m
	c.PredMech = SelectUop
	c.Name = c.Name + "-seluop"
	return &c
}

// Label names the machine for people: its Name, then "+Field" (a set
// flag) or "+Field=value" for every field that differs from
// DefaultMachine and that the name does not already say, with nested
// fields as paths: "base-512-d30+NoPredDepend", "+JRS.Threshold=4".
// Field names are the ones a spec's JSON uses. The names WithWindow,
// WithDepth and WithSelectUop give say the window, the depth and the
// select-µop mechanism. The label is derived rather than stored
// because Name is part of every result key: renaming a machine would
// move its key.
func (m *Machine) Label() string {
	said := DefaultMachine()
	said.Name = m.Name
	if strings.HasPrefix(m.Name, nameSize(m)) {
		said.ROBSize, said.FrontEndDepth = m.ROBSize, m.FrontEndDepth
	}
	if strings.HasSuffix(m.Name, "-seluop") {
		said.PredMech = SelectUop
	}
	var b strings.Builder
	b.WriteString(m.Name)
	labelDiff(&b, "", reflect.ValueOf(*m), reflect.ValueOf(*said))
	return b.String()
}

// labelDiff appends a label term for every leaf field of v that
// differs from ref; path is v's field path.
func labelDiff(b *strings.Builder, path string, v, ref reflect.Value) {
	if v.Equal(ref) {
		return
	}
	if v.Kind() != reflect.Struct {
		b.WriteString("+" + path)
		if v.Kind() != reflect.Bool || !v.Bool() {
			fmt.Fprintf(b, "=%v", v.Interface())
		}
		return
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		labelDiff(b, name, v.Field(i), ref.Field(i))
	}
}

func nameSize(c *Machine) string {
	return "base-" + itoa(c.ROBSize) + "-d" + itoa(c.FrontEndDepth+2)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// maxScale is how far past the largest value any machine in this
// repository uses (DefaultMachine, the experiment sweeps, the tuner's
// grid) a sizing field may go. Each such field sizes an allocation in
// cpu.New, so the bound caps what one spec can make a server allocate.
const maxScale = 16

// Validate checks the configuration before a simulator is built. It
// runs the contract of every constructor cpu.New calls — bpred.NewHybrid,
// NewBTB, NewRAS, NewIndirectCache, NewLoopPredictor, conf.NewJRS and
// cache.New each panic on a violation — and bounds every field that
// sizes an allocation at maxScale times the largest value in use, so a
// spec from outside the process is a 400 at the API boundary rather
// than a panic or an out-of-memory death mid-simulation.
func (m *Machine) Validate() error {
	for _, f := range [...]struct {
		what       string
		v, largest int
		pow2       bool
	}{
		{"fetch width", m.FetchWidth, 8, false},
		{"issue width", m.IssueWidth, 8, false},
		{"retire width", m.RetireWidth, 8, false},
		{"cond branches per cycle", m.MaxCondBrPerCycle, 3, false},
		{"ROB size", m.ROBSize, 512, false},
		{"front-end depth", m.FrontEndDepth, 28, false},
		{"gshare PHT entries", m.Hybrid.GsharePHTEntries, 64 << 10, true},
		{"PAs PHT entries", m.Hybrid.PAsPHTEntries, 64 << 10, true},
		{"PAs local history entries", m.Hybrid.PAsLocalEntries, 4 << 10, true},
		{"selector entries", m.Hybrid.SelectorEntries, 64 << 10, true},
		{"BTB entries", m.BTBEntries, 4 << 10, true},
		{"RAS depth", m.RASDepth, 64, false},
		{"indirect cache entries", m.IndirectEntries, 64 << 10, true},
		{"JRS entries", m.JRS.Entries, 1 << 10, true},
	} {
		if err := checkSize(f.what, f.v, f.largest, f.pow2); err != nil {
			return err
		}
	}
	if m.BTBWays <= 0 || m.BTBEntries%m.BTBWays != 0 {
		return fmt.Errorf("config: invalid BTB ways %d for %d entries", m.BTBWays, m.BTBEntries)
	}
	if m.UseLoopPredictor {
		if err := checkSize("loop predictor entries", m.LoopPredEntries, 256, true); err != nil {
			return err
		}
	}
	for _, c := range [...]struct {
		level string
		cfg   cache.Config
	}{{"L1I", m.Caches.L1I}, {"L1D", m.Caches.L1D}, {"L2", m.Caches.L2}} {
		if err := checkCache(c.level, c.cfg); err != nil {
			return err
		}
	}
	// The estimator geometry rides inside the machine; validating it
	// here means every lab.Spec carrying a tuner-proposed JRSConfig is
	// checked at the API boundary instead of panicking in NewJRS
	// mid-simulation.
	return m.JRS.Validate()
}

// checkCache runs cache.New's contract on one level and bounds its
// size, line size, line count (what the level allocates) and banks.
func checkCache(level string, c cache.Config) error {
	if err := checkSize(level+" size", c.SizeBytes, 1<<20, false); err != nil {
		return err
	}
	if err := checkSize(level+" line size", c.LineBytes, 64, true); err != nil {
		return err
	}
	if err := checkSize(level+" banks", max(c.Banks, 1), 8, true); err != nil {
		return err
	}
	lines := c.SizeBytes / c.LineBytes
	if err := checkSize(level+" line count", lines, 16<<10, false); err != nil {
		return err
	}
	if c.Ways <= 0 || lines%c.Ways != 0 || (lines/c.Ways)&(lines/c.Ways-1) != 0 {
		return fmt.Errorf("config: invalid %s ways %d: %d lines need a power-of-two set count", level, c.Ways, lines)
	}
	return nil
}

// checkSize rejects a sizing field that is not positive, is past
// maxScale times the largest value in use, or (when pow2) is not the
// power of two its table's index mask needs.
func checkSize(what string, v, largest int, pow2 bool) error {
	if limit := maxScale * largest; v <= 0 || v > limit {
		return fmt.Errorf("config: invalid %s %d (want 1..%d)", what, v, limit)
	}
	if pow2 && v&(v-1) != 0 {
		return fmt.Errorf("config: invalid %s %d (want a power of two)", what, v)
	}
	return nil
}
