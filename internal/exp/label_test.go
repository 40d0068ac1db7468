package exp

import (
	"testing"

	"wishbranch/internal/lab"
)

// TestMachineLabelsAreDistinct: across every experiment's run-set, two
// machines share a label only if they are the same machine, so a
// progress line or a -stats-out snapshot names the machine it ran.
func TestMachineLabelsAreDistinct(t *testing.T) {
	bySig := map[string]string{} // label → machine signature
	for _, e := range All() {
		if e.Runs == nil {
			continue
		}
		for _, s := range e.Runs(testLab(0.02)) {
			label, sig := s.Machine.Label(), lab.MachineSig(s.Machine)
			if prev, ok := bySig[label]; ok && prev != sig {
				t.Errorf("%s: label %q names two machines", e.ID, label)
			}
			bySig[label] = sig
		}
	}
	if _, ok := bySig["base-512-d30"]; !ok {
		t.Error("the default machine is not labelled base-512-d30")
	}
	if _, ok := bySig["base-512-d30+NoPredDepend"]; !ok {
		t.Error("fig2's NO-DEPEND machine is not labelled base-512-d30+NoPredDepend")
	}
}
