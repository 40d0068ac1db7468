//go:build !linux

package main

import (
	"errors"
	"time"
)

// The benchmark measures CPU time, peak RSS and the temp filesystem on
// Linux only; elsewhere these read as zero and "unknown".

func cpuTime() time.Duration { return 0 }

func resetPeakRSS() error { return errors.New("peak RSS is measured on Linux only") }

func peakRSSMB() float64 { return 0 }

func fsType(string) string { return "unknown" }
