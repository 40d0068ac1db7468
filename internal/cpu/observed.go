package cpu

import (
	"wishbranch/internal/config"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// Observed returns m with every field that program p cannot observe
// reset: simulating p on two machines with equal Observed values gives
// byte-identical results. The rule follows the reads in this package:
//
//   - Name is a label and is always cleared.
//   - JRS and PerfectConfidence are read only for wish branches (the
//     confidence lookup in fetchWish and the estimator update at wish
//     retire), so a program without one sees the defaults.
//   - PredMech, NoPredDepend and NoFalseFetch are read only for guarded
//     non-branch instructions: needsSelect, rename, updatesWriters and
//     execute test the guard first, and fetch's NO-FETCH drop needs a
//     false guard, which the emulator never reports for P0. A program
//     without one sees the defaults.
//
// Every other field is kept. lab groups a batch's specs by this value
// (DESIGN.md §8), and the harness's run oracle checks it on generated
// programs, so a new read of one of these fields must update the rule.
func Observed(m config.Machine, p *prog.Program) config.Machine {
	m.Name = ""
	wish, guarded := false, false
	for i := range p.Code {
		in := &p.Code[i]
		wish = wish || in.IsWish()
		guarded = guarded || (in.Guard != isa.P0 && !in.IsBranch())
	}
	def := config.DefaultMachine()
	if !wish {
		m.JRS, m.PerfectConfidence = def.JRS, def.PerfectConfidence
	}
	if !guarded {
		m.PredMech, m.NoPredDepend, m.NoFalseFetch = def.PredMech, def.NoPredDepend, def.NoFalseFetch
	}
	return m
}
