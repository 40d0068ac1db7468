package serve

import (
	"fmt"
	"strconv"
	"strings"
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
// The window is "N" (exactly the Nth request) or "N-M" (every request
// from the Nth through the Mth inclusive) — the second form is a
// flapping backend: "error:1-3" fails the first three attempts and
// then heals, which is exactly the shape a client's retry loop must
// survive. The trigger is a plain request counter, not a random draw,
// so a test that injects "error:3" fails the same request every run —
// retry and drain paths become testable without flakes. Randomized
// schedules belong in the client's seeded retry jitter, not here.
type Fault struct {
	Mode string // "error", "drop", or "delay"
	Nth  uint64 // 1-based ordinal of the first request to hit
	// Last is the 1-based ordinal of the last request to hit
	// (0 means Nth alone — the single-request form).
	Last  uint64
	Delay time.Duration // only for "delay"

	counter atomic.Uint64
}

// ParseFault parses a fault spec: "error:N", "drop:N",
// "delay:N:duration" (e.g. "delay:2:250ms"), or any of those with an
// "N-M" window in place of N. Empty input is no fault.
func ParseFault(s string) (*Fault, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	f := &Fault{Mode: parts[0]}
	bad := func() error {
		return fmt.Errorf(`serve: bad fault spec %q (want "error:N", "drop:N", or "delay:N:duration", N may be a range "N-M")`, s)
	}
	switch f.Mode {
	case "error", "drop":
		if len(parts) != 2 {
			return nil, bad()
		}
	case "delay":
		if len(parts) != 3 {
			return nil, bad()
		}
		d, err := time.ParseDuration(parts[2])
		if err != nil || d < 0 {
			return nil, bad()
		}
		f.Delay = d
	default:
		return nil, bad()
	}
	window := parts[1]
	if first, last, ok := strings.Cut(window, "-"); ok {
		m, err := strconv.ParseUint(last, 10, 64)
		if err != nil || m == 0 {
			return nil, bad()
		}
		f.Last = m
		window = first
	}
	n, err := strconv.ParseUint(window, 10, 64)
	if err != nil || n == 0 || (f.Last != 0 && f.Last < n) {
		return nil, bad()
	}
	f.Nth = n
	return f, nil
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

func (f *Fault) String() string {
	if f == nil {
		return "none"
	}
	window := strconv.FormatUint(f.Nth, 10)
	if f.Last > f.Nth {
		window += "-" + strconv.FormatUint(f.Last, 10)
	}
	if f.Mode == "delay" {
		return fmt.Sprintf("delay:%s:%s", window, f.Delay)
	}
	return fmt.Sprintf("%s:%s", f.Mode, window)
}
