package main

import (
	"sync"
	"time"
)

// Host-speed calibration.
//
// On a shared host, neighbours contending for the last-level cache and
// memory bandwidth slow this process down by 20-60% for seconds at a
// time, and a whole run can land in a slow phase: a deterministic
// iteration's median time varied by 25% between runs minutes apart.
// The cure is a fixed reference kernel timed next to the work, whose
// slowdown tracks the work's: every time the benchmark reports is
// scaled to the speed at which the kernel takes calRefMs. In two sets of
// ten runs this cut the quartile spread of iteration times from 11-30%
// to 3-7% on cold-campaign, from 14-25% to 4-5% on warm-campaign and
// from 8-10% to 5-6% on sim-hotloop (README.md has the table).
// The kernel is the benchmark's own code, so a change to the code under
// test cannot change its speed directly. It can indirectly: a sample
// taken inside a cold campaign shares the cache with the other worker's
// simulation, so a change that shrinks the simulator's cache footprint
// also speeds the kernel up and understates its own gain somewhat.

// calRefMs is the kernel time that defines the reference speed: its
// median on a shared 2-vCPU x86-64 virtual machine.
const calRefMs = 1.75

var (
	calMu   sync.Mutex
	calBuf  = make([]uint64, 256<<10) // 2 MiB: an L2-to-LLC working set, as the simulator's
	calSink uint64
)

// calKernel times a fixed sequence of 300,000 pseudo-random
// read-modify-writes over calBuf, in milliseconds. Samples from two
// workers take turns, so neither times the other's cache traffic.
func calKernel() float64 {
	calMu.Lock()
	defer calMu.Unlock()
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 300_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 20) & uint64(len(calBuf)-1)
		calBuf[j] += x
	}
	calSink += calBuf[x&uint64(len(calBuf)-1)]
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// calibration collects the kernel samples that belong to one measured
// interval, and how much kernel time ran inside that interval. A nil
// *calibration takes no samples and scales nothing.
//
// Samples taken inside the interval win over those taken just before
// it. Long intervals (a cold campaign, a hot-loop round) span several
// host phases, and the moments around them are disturbed by the
// runner's own heap release, so only samples spread through them track
// them: with them cold-campaign's spread was 7%, with samples before
// and after each iteration it was 32%, worse than uncalibrated. A short
// interval (a warm or remote iteration) is tracked well by the samples
// just before it.
type calibration struct {
	mu             sync.Mutex
	before, inside []float64
	// inWall and inCPU are the kernel time that ran inside the measured
	// interval, as it adds to the interval's wall and CPU time.
	inWall, inCPU float64
}

// sample times the kernel just before the measured interval.
func (c *calibration) sample() {
	if c == nil {
		return
	}
	ms := calKernel()
	c.mu.Lock()
	c.before = append(c.before, ms)
	c.mu.Unlock()
}

// sampleInside times the kernel inside the measured interval, on one of
// parallel goroutines running the interval's work, and charges its time
// back: all of it to CPU time, 1/parallel of it to wall time.
func (c *calibration) sampleInside(parallel int) {
	if c == nil {
		return
	}
	ms := calKernel()
	c.mu.Lock()
	c.inside = append(c.inside, ms)
	c.inWall += ms / float64(parallel)
	c.inCPU += ms
	c.mu.Unlock()
}

// net removes the kernel's own share from a wall or CPU time (ms)
// measured over the interval.
func (c *calibration) net(ms float64, cpu bool) float64 {
	if c == nil {
		return ms
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cpu {
		return ms - c.inCPU
	}
	return ms - c.inWall
}

// scale converts a wall or CPU time measured over the interval (ms) to
// reference-speed ms, after removing the kernel's own share.
func (c *calibration) scale(ms float64, cpu bool) float64 {
	ms = c.net(ms, cpu)
	if k := c.kernelMs(); k > 0 {
		ms *= calRefMs / k
	}
	return ms
}

// kernelMs is the interval's median kernel time.
func (c *calibration) kernelMs() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.inside) > 0 {
		return median(c.inside)
	}
	return median(c.before)
}
