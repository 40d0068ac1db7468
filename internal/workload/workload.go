// Package workload provides the nine benchmark programs the
// experiments run. The paper evaluates SPEC INT 2000 with MinneSPEC
// reduced inputs; SPEC cannot be redistributed, so each benchmark here
// is a synthetic stand-in named for its SPEC counterpart and built to
// reproduce the branch-behaviour signature that drives the paper's
// results for that benchmark (see each file's doc comment and
// DESIGN.md §2 for the substitution rationale):
//
//   - gzip:   hard literal/match hammocks plus short variable match
//     loops (8.3 mispredicts/1Kµops in the paper).
//   - vpr:    hard-to-predict cost comparisons with large hammock
//     blocks (predication wins big) and small variable loops.
//   - mcf:    pointer chasing where the chase pointer is control
//     dependent on another missing load — the branch is easy to
//     predict, so predicating it serializes critical cache misses
//     (BASE-MAX loses ~2x in the paper).
//   - crafty: complex OR-conditions (Figure 6 shapes) and calls.
//   - parser: very branchy dictionary scanning with tiny variable
//     loops (9.6 mispredicts/1Kµops).
//   - gap:    arithmetic kernels with highly predictable branches
//     (1.0 mispredicts/1Kµops): predication is pure overhead.
//   - vortex: predictable object validation with calls
//     (0.8 mispredicts/1Kµops).
//   - bzip2:  input-dependent run-length coding: predictable on one
//     input (predication loses), hard on another (predication wins),
//     with many variable-trip loops (90% of its dynamic wish branches
//     are wish loops in the paper).
//   - twolf:  hard placement cost hammocks with mid-size blocks.
//
// Every benchmark takes one of three input sets (A/B/C) that change
// data distributions — and therefore branch behaviour — the way Figure
// 1 of the paper varies inputs on real hardware.
package workload

import (
	"fmt"
	"math"
	"strings"

	"wishbranch/internal/compiler"
	"wishbranch/internal/emu"
)

// Input selects one of the three input sets.
type Input int

// The three input sets of Figure 1.
const (
	InputA Input = iota
	InputB
	InputC
)

func (in Input) String() string {
	switch in {
	case InputA:
		return "input-A"
	case InputB:
		return "input-B"
	case InputC:
		return "input-C"
	}
	return fmt.Sprintf("input-%d", int(in))
}

// ParseInput maps an input set's letter (A, B or C, either case) to
// its Input.
func ParseInput(s string) (Input, error) {
	switch strings.ToUpper(s) {
	case "A":
		return InputA, nil
	case "B":
		return InputB, nil
	case "C":
		return InputC, nil
	}
	return 0, fmt.Errorf("unknown input %q", s)
}

// Inputs lists all input sets.
func Inputs() []Input { return []Input{InputA, InputB, InputC} }

// MemInit seeds the initial memory image of a run. A Build's MemInit
// synthesizes its data set from scratch on every call; package artifact
// runs it once per (bench, input, scale) into a frozen emu.Image and
// shares that into each run instead.
type MemInit func(*emu.Memory)

// Benchmark is one synthetic SPEC INT 2000 stand-in.
type Benchmark struct {
	Name string
	// Build returns the structured source and the memory image for the
	// given input set and workload scale. The source is compiled once
	// per binary variant. Build is pure: concurrent builds at different
	// scales are safe.
	Build func(in Input, scale float64) (*compiler.Source, MemInit)
}

// All returns the nine benchmarks in the paper's order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "gzip", Build: buildGzip},
		{Name: "vpr", Build: buildVpr},
		{Name: "mcf", Build: buildMcf},
		{Name: "crafty", Build: buildCrafty},
		{Name: "parser", Build: buildParser},
		{Name: "gap", Build: buildGap},
		{Name: "vortex", Build: buildVortex},
		{Name: "bzip2", Build: buildBzip2},
		{Name: "twolf", Build: buildTwolf},
	}
}

// ByName looks a benchmark up by its SPEC name.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// DefaultScale is the default workload scale: every benchmark's outer
// iteration count is multiplied by the scale, and 1.0 is the "reduced
// input" size (a few hundred thousand dynamic µops, standing in for
// MinneSPEC's reduced runs). Raise it for longer, steadier-state runs.
// Scale is an explicit Build parameter — not mutable package state —
// so concurrent simulations at different scales cannot
// cross-contaminate.
const DefaultScale = 1.0

// ValidateScale reports a scale no workload can be built at: zero,
// negative, NaN or infinite. Sizing would clamp any of them to a
// one-iteration program labelled with a meaningless scale.
func ValidateScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("non-finite scale %v", scale)
	}
	if scale <= 0 {
		return fmt.Errorf("non-positive scale %v (default %v)", scale, DefaultScale)
	}
	return nil
}

func scaled(n int64, scale float64) int64 {
	v := int64(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}
