// Package testutil holds the small knobs the test suites share.
package testutil

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// SeedsEnv overrides the iteration count of every Seeds-sized fuzz
// loop when set to a positive integer, so one environment variable
// turns any property test into an arbitrarily long (or single-seed)
// soak without editing code: WISHSIM_SEEDS=1 narrows a loop to its
// first seed, WISHSIM_SEEDS=100000 is an overnight run.
const SeedsEnv = "WISHSIM_SEEDS"

// Seeds returns the iteration count for a randomized property test:
// full normally, short under go test -short, and the WISHSIM_SEEDS
// value when that env var is set (it wins over both, including -short,
// so a reproduction run sees exactly the requested seed count). Every
// long fuzz loop in the repo sizes itself through this one helper, so
// the -short suite (the fast CI job, and the race job so it stops
// being the long pole) shrinks uniformly and predictably instead of
// per-test ad hoc.
func Seeds(t testing.TB, full, short int) int {
	t.Helper()
	if v := os.Getenv(SeedsEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("testutil: %s=%q must be a positive integer: %v", SeedsEnv, v, err)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return full
}

// ReplayHint renders the one-step reproduction command for a failing
// generated-program seed: every property-test failure message includes
// it so the exact case can be re-run (and auto-shrunk) outside the
// test binary. oracle names a harness oracle family (arch, cache,
// cluster, run); seed is the raw generator seed, i.e. the value
// passed to compiler.GenRandomSource, after any per-test seed
// derivation.
func ReplayHint(oracle string, seed uint64) string {
	return fmt.Sprintf("replay: go run ./cmd/wishfuzz -oracles %s -seed-base %d -seeds 1", oracle, seed)
}
