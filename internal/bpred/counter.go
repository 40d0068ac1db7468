// Package bpred implements the branch-direction and branch-target
// prediction structures of the paper's baseline front end (Table 2):
// a 64K-entry gshare / 64K-entry PAs hybrid with a 64K-entry selector,
// a 4K-entry BTB, a 64-entry return address stack, and a 64K-entry
// indirect target cache. A small loop (trip-count) predictor is also
// provided for the wish-loop ablations suggested in §3.2 of the paper.
//
// Direction counters are updated at retire; the global history register
// is updated speculatively at prediction time and repaired on pipeline
// flushes, which is what an aggressive out-of-order front end does.
package bpred

// ctr2 is a 2-bit saturating counter; values 0..3, taken when >= 2,
// starting weakly taken (2). It is stored as value^2, so the zero
// value is the initial state and a fresh table needs no fill: the
// predictor's three 64K-entry tables come zeroed from make.
type ctr2 uint8

// value returns the counter's value, 0..3.
func (c ctr2) value() uint8 { return uint8(c) ^ 2 }

func (c ctr2) taken() bool { return c.value() >= 2 }

func (c ctr2) update(taken bool) ctr2 {
	v := c.value()
	if taken && v < 3 {
		v++
	} else if !taken && v > 0 {
		v--
	}
	return ctr2(v ^ 2)
}

// newCtrTable returns n weakly-taken counters.
func newCtrTable(n int) []ctr2 { return make([]ctr2, n) }
