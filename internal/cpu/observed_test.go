package cpu

import (
	"testing"

	"wishbranch/internal/config"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// TestObservedRule pins which fields Observed resets for each kind of
// program. A conditional branch is guarded too, but it is a branch: a
// normal binary observes no predication field.
func TestObservedRule(t *testing.T) {
	branchy := func() *prog.Program { // a normal binary: cmp + conditional branch
		b := prog.NewBuilder()
		b.Emit(isa.MovI(1, 1), isa.CmpI(isa.CmpEQ, 1, 2, 1, 1))
		b.BrL(1, "END")
		b.Emit(isa.MovI(2, 7))
		b.Label("END")
		b.Emit(isa.Halt())
		return b.MustFinish()
	}
	predicated := func() *prog.Program { // a predicated binary: a guarded move
		b := prog.NewBuilder()
		b.Emit(isa.MovI(1, 1), isa.CmpI(isa.CmpEQ, 1, 2, 1, 1))
		b.Emit(isa.Guarded(1, isa.MovI(2, 7)), isa.Halt())
		return b.MustFinish()
	}
	moved := func() config.Machine {
		m := *config.DefaultMachine().WithWindow(128).WithSelectUop()
		m.JRS.Threshold, m.PerfectConfidence = 4, true
		m.NoPredDepend, m.NoFalseFetch, m.PerfectBP = true, true, true
		return m
	}
	def := *config.DefaultMachine()
	for _, c := range []struct {
		name       string
		p          *prog.Program
		jrs, predc bool // whether the estimator and the predication fields are kept
	}{
		{"normal", branchy(), false, false},
		{"predicated", predicated(), false, true},
		{"wish", hammockWish(1), true, true},
	} {
		got := Observed(moved(), c.p)
		want := moved()
		want.Name = ""
		if !c.jrs {
			want.JRS, want.PerfectConfidence = def.JRS, false
		}
		if !c.predc {
			want.PredMech, want.NoPredDepend, want.NoFalseFetch = config.CStyle, false, false
		}
		if got != want {
			t.Errorf("%s: Observed = %+v, want %+v", c.name, got, want)
		}
		if got.ROBSize != 128 || !got.PerfectBP {
			t.Errorf("%s: Observed reset a field every program reads", c.name)
		}
	}
}
