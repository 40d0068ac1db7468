package config

import (
	"testing"

	"wishbranch/internal/cache"
)

func TestDefaultMachineValid(t *testing.T) {
	m := DefaultMachine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 2 spot checks.
	if m.FetchWidth != 8 || m.IssueWidth != 8 || m.RetireWidth != 8 {
		t.Error("baseline is 8-wide")
	}
	if m.ROBSize != 512 {
		t.Errorf("ROB = %d, want 512", m.ROBSize)
	}
	if m.MaxCondBrPerCycle != 3 {
		t.Errorf("cond branches/cycle = %d, want 3", m.MaxCondBrPerCycle)
	}
	if m.Caches.L2.SizeBytes != 1<<20 || m.Caches.L2.Banks != 8 {
		t.Error("L2 must be 1MB, 8 banks")
	}
	if m.PredMech != CStyle {
		t.Error("baseline predication is C-style")
	}
}

func TestWithWindowAndDepthAreCopies(t *testing.T) {
	base := DefaultMachine()
	w := base.WithWindow(128)
	d := base.WithDepth(10)
	s := base.WithSelectUop()
	if base.ROBSize != 512 || base.FrontEndDepth != 28 || base.PredMech != CStyle {
		t.Error("With* mutated the receiver")
	}
	if w.ROBSize != 128 {
		t.Errorf("WithWindow: %d", w.ROBSize)
	}
	if d.FrontEndDepth != 8 {
		t.Errorf("WithDepth(10): front-end depth %d, want 8", d.FrontEndDepth)
	}
	if s.PredMech != SelectUop {
		t.Error("WithSelectUop did not switch mechanisms")
	}
	if w.Name == base.Name || s.Name == base.Name {
		t.Error("derived configs should be distinguishable by name")
	}
}

func TestWithDepthFloor(t *testing.T) {
	if d := DefaultMachine().WithDepth(1); d.FrontEndDepth < 1 {
		t.Errorf("depth floor violated: %d", d.FrontEndDepth)
	}
}

// TestValidateRejectsNonsense: one out-of-contract or over-bound value
// per field. Each out-of-contract row would panic in the constructor
// cpu.New calls; each over-bound row would size an allocation past
// maxScale times the largest value any machine here uses.
func TestValidateRejectsNonsense(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Machine)
	}{
		{"fetch width zero", func(m *Machine) { m.FetchWidth = 0 }},
		{"fetch width huge", func(m *Machine) { m.FetchWidth = 129 }},
		{"issue width zero", func(m *Machine) { m.IssueWidth = 0 }},
		{"issue width huge", func(m *Machine) { m.IssueWidth = 1 << 20 }},
		{"retire width huge", func(m *Machine) { m.RetireWidth = 1 << 20 }},
		{"cond branches zero", func(m *Machine) { m.MaxCondBrPerCycle = 0 }},
		{"cond branches huge", func(m *Machine) { m.MaxCondBrPerCycle = 49 }},
		{"ROB negative", func(m *Machine) { m.ROBSize = -1 }},
		{"ROB huge", func(m *Machine) { m.ROBSize = 1 << 40 }},
		{"front-end depth zero", func(m *Machine) { m.FrontEndDepth = 0 }},
		{"front-end depth huge", func(m *Machine) { m.FrontEndDepth = 449 }},
		{"gshare not pow2", func(m *Machine) { m.Hybrid.GsharePHTEntries = 1000 }},
		{"gshare huge", func(m *Machine) { m.Hybrid.GsharePHTEntries = 1 << 21 }},
		{"PAs PHT not pow2", func(m *Machine) { m.Hybrid.PAsPHTEntries = 3 }},
		{"PAs PHT huge", func(m *Machine) { m.Hybrid.PAsPHTEntries = 1 << 21 }},
		{"PAs local zero", func(m *Machine) { m.Hybrid.PAsLocalEntries = 0 }},
		{"PAs local huge", func(m *Machine) { m.Hybrid.PAsLocalEntries = 1 << 17 }},
		{"selector not pow2", func(m *Machine) { m.Hybrid.SelectorEntries = 6 }},
		{"selector huge", func(m *Machine) { m.Hybrid.SelectorEntries = 1 << 21 }},
		{"BTB entries not pow2", func(m *Machine) { m.BTBEntries = 3 }},
		{"BTB entries huge", func(m *Machine) { m.BTBEntries = 1 << 17 }},
		{"BTB ways zero", func(m *Machine) { m.BTBWays = 0 }},
		{"BTB ways not dividing", func(m *Machine) { m.BTBWays = 3 }},
		{"RAS depth zero", func(m *Machine) { m.RASDepth = 0 }},
		{"RAS depth huge", func(m *Machine) { m.RASDepth = 1025 }},
		{"indirect not pow2", func(m *Machine) { m.IndirectEntries = 100 }},
		{"indirect huge", func(m *Machine) { m.IndirectEntries = 1 << 21 }},
		{"JRS not pow2", func(m *Machine) { m.JRS.Entries = 300 }},
		{"JRS huge", func(m *Machine) { m.JRS.Entries = 1 << 15 }},
		{"JRS counter width", func(m *Machine) { m.JRS.CtrBits = 0 }},
		{"loop predictor not pow2", func(m *Machine) { m.UseLoopPredictor = true; m.LoopPredEntries = 100 }},
		{"loop predictor huge", func(m *Machine) { m.UseLoopPredictor = true; m.LoopPredEntries = 1 << 13 }},
		{"L1I size huge", func(m *Machine) { m.Caches.L1I.SizeBytes = 1 << 25 }},
		{"L1I zero config", func(m *Machine) { m.Caches.L1I = cache.Config{} }},
		{"L1D line not pow2", func(m *Machine) { m.Caches.L1D.LineBytes = 60 }},
		{"L1D line huge", func(m *Machine) { m.Caches.L1D.LineBytes = 2048 }},
		{"L1D line count huge", func(m *Machine) { m.Caches.L1D.SizeBytes = 1 << 24; m.Caches.L1D.LineBytes = 16 }},
		{"L2 size smaller than a line", func(m *Machine) { m.Caches.L2.SizeBytes = 32 }},
		{"L2 ways zero", func(m *Machine) { m.Caches.L2.Ways = 0 }},
		{"L2 ways not dividing", func(m *Machine) { m.Caches.L2.Ways = 3 }},
		{"L2 sets not pow2", func(m *Machine) { m.Caches.L2.SizeBytes = 24 * 64; m.Caches.L2.Ways = 8 }},
		{"L2 banks not pow2", func(m *Machine) { m.Caches.L2.Banks = 3 }},
		{"L2 banks huge", func(m *Machine) { m.Caches.L2.Banks = 256 }},
	}
	for _, c := range cases {
		m := DefaultMachine()
		c.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", c.name)
		}
	}
}

// TestValidateAcceptsBoundsAndIgnoresUnusedLoopPredictor: the bound is
// inclusive, a negative bank count means unbanked as in cache.New, and
// the loop-predictor size is checked only when the predictor is built.
func TestValidateAcceptsBoundsAndIgnoresUnusedLoopPredictor(t *testing.T) {
	m := DefaultMachine()
	m.ROBSize = 16 * 512
	m.BTBEntries, m.BTBWays = 1<<16, 1<<16
	m.Caches.L2.Banks = -1
	m.Caches.L2.SizeBytes = 16 << 20
	m.Caches.L2.LineBytes = 1024
	m.LoopPredEntries = 0
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPredMechString(t *testing.T) {
	if CStyle.String() != "c-style" || SelectUop.String() != "select-uop" {
		t.Error("PredMech names")
	}
}
