package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is statistics.median: the middle value, or the mean of the two
// middle values. It is 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest sample such that at least p% of the samples are at or below
// it. It is 0 for no values.
func nearestRank(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rankIndex(len(s), p)]
}

func rankIndex(n int, p float64) int {
	// The tolerance keeps binary rounding (99.9/100*10000 is a hair
	// above 9990) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n) - 1
}

// beyond is how many of n samples rank above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// minBeyond is the sample count a reported tail percentile needs above
// it: with fewer, the percentile is one or two unlucky samples.
const minBeyond = 10

// tailPercentiles are the tail candidates, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones an
// outside script computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise a difference has to beat. It is 0 when the median
// is 0.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
