package cpu

import (
	"os"
	"testing"

	"wishbranch/internal/config"
	"wishbranch/internal/isa"
	"wishbranch/internal/prog"
)

// TestMain arms the addDep overflow panic for the entire package:
// every pipeline test in the suite then doubles as a proof that no
// dependence-analysis path ever produces a µop with more than maxDeps
// distinct producers. Release builds saturate instead (see
// depOverflowPanic).
func TestMain(m *testing.M) {
	depOverflowPanic = true
	os.Exit(m.Run())
}

// TestAddDepBounds exercises the explicit bounds check: maxDeps
// distinct producers fit, duplicates and completed producers are
// free, the (maxDeps+1)-th distinct producer panics in test mode and
// saturates silently in release mode.
func TestAddDepBounds(t *testing.T) {
	b := prog.NewBuilder()
	b.Emit(isa.Halt())
	c, err := New(config.DefaultMachine(), b.MustFinish(), nil)
	if err != nil {
		t.Fatal(err)
	}
	producers := make([]uid, maxDeps+1)
	for i := range producers {
		var p *uop
		producers[i], p = c.newUop()
		p.seq = uint64(i)
	}
	id, u := c.newUop()
	u.seq = 99
	for i := 0; i < maxDeps; i++ {
		c.addDep(id, u, producers[i])
	}
	if u.pendingDeps != maxDeps {
		t.Fatalf("pendingDeps = %d, want %d", u.pendingDeps, maxDeps)
	}
	c.addDep(id, u, producers[0]) // duplicate: deduplicated, no overflow
	if u.pendingDeps != maxDeps {
		t.Fatalf("duplicate producer changed pendingDeps to %d", u.pendingDeps)
	}
	doneID, done := c.newUop()
	done.seq, done.done = 77, true
	c.addDep(id, u, doneID) // completed producer: ignored, no overflow
	if u.pendingDeps != maxDeps {
		t.Fatalf("completed producer changed pendingDeps to %d", u.pendingDeps)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflowing addDep did not panic in test mode")
			}
		}()
		c.addDep(id, u, producers[maxDeps])
	}()

	depOverflowPanic = false
	defer func() { depOverflowPanic = true }()
	c.addDep(id, u, producers[maxDeps]) // release mode: saturate
	if u.pendingDeps != maxDeps {
		t.Errorf("saturating addDep changed pendingDeps to %d", u.pendingDeps)
	}
	if c.uops[producers[maxDeps]].wakeHead != 0 {
		t.Error("dropped producer still recorded a dependent")
	}
	for i := 0; i < maxDeps; i++ {
		if e := c.uops[producers[i]].wakeHead; e != edge(id, int32(i)) {
			t.Errorf("producer %d's wakeup list starts at edge %d, want consumer %d's edge %d",
				i, e, id, edge(id, int32(i)))
		}
	}
}

// TestWorstCaseProducerCount runs the worst-case µop through the real
// pipeline with the overflow panic armed: a C-style guarded compare
// writing a p,!p pair whose five producers (two integer sources, the
// guard's writer, and a distinct prior writer for each predicate
// destination) are all different in-flight µops. If a dependence-
// analysis change ever widens the worst case past maxDeps, this test
// panics.
func TestWorstCaseProducerCount(t *testing.T) {
	b := prog.NewBuilder()
	b.Emit(
		isa.MovI(1, 1),                           // producer: r1
		isa.MovI(2, 2),                           // producer: r2
		isa.CmpI(isa.CmpEQ, 1, isa.PNone, 1, 1),  // producer: p1 (guard, true)
		isa.CmpI(isa.CmpLT, 4, isa.PNone, 2, 99), // producer: old p4
		isa.CmpI(isa.CmpLT, 5, isa.PNone, 1, 99), // producer: old p5
		isa.Guarded(1, isa.Cmp(isa.CmpGE, 4, 5, 1, 2)),
		isa.Halt(),
	)
	p := b.MustFinish()
	c, err := New(config.DefaultMachine(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("worst-case program did not halt")
	}
}
