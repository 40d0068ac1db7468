package serve

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Fault is the deterministic fault-injection hook: it fires on an
// exact, pre-declared window of admitted simulation requests (1-based,
// counted across /v1/run and /v1/campaign admissions) and applies one
// of three behaviours:
//
//   - "error": answer 500 without running anything
//   - "drop":  abort the connection mid-request (the client sees a
//     transport error, the canonical retry trigger)
//   - "delay": hold the request for a fixed duration, then proceed
//     normally (backpressure and drain-under-load become reproducible)
//
// The window is the Nth request alone or, when Last is set, every
// request from the Nth through the Last inclusive — the second form is
// a flapping backend: "error:1-3" (Nth 1, Last 3) fails the first three
// attempts and then heals, which is exactly the shape a client's retry
// loop must survive. The trigger is a plain request counter, not a
// random draw, so a test that injects "error:3" fails the same request
// every run — retry and drain paths become testable without flakes.
// Randomized schedules belong in the client's seeded retry jitter, not
// here.
type Fault struct {
	Mode string // "error", "drop", or "delay"
	Nth  uint64 // 1-based ordinal of the first request to hit
	// Last is the 1-based ordinal of the last request to hit
	// (0 means Nth alone — the single-request form).
	Last  uint64
	Delay time.Duration // only for "delay"

	counter atomic.Uint64
}

// hit counts one admitted request and reports whether the fault fires
// on it.
func (f *Fault) hit() bool {
	if f == nil {
		return false
	}
	n := f.counter.Add(1)
	last := f.Last
	if last == 0 {
		last = f.Nth
	}
	return n >= f.Nth && n <= last
}

// String prints the fault as "error:3", "error:1-2", "drop:1" or
// "delay:1:5ms"; a nil Fault (no fault) prints empty.
func (f *Fault) String() string {
	if f == nil {
		return ""
	}
	window := strconv.FormatUint(f.Nth, 10)
	if f.Last != 0 {
		window += "-" + strconv.FormatUint(f.Last, 10)
	}
	if f.Mode == "delay" {
		return fmt.Sprintf("delay:%s:%s", window, f.Delay)
	}
	return fmt.Sprintf("%s:%s", f.Mode, window)
}
