package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as a measurement rather than as the run's maximum.
const minBeyond = 10

// sorted returns an ascending copy of xs. +Inf samples (failed or refused
// requests) sort last, so a failure counts as missing every latency limit.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-quantile (0 < p <= 1) of an ascending slice by
// the nearest-rank method: the smallest sample with at least p·n samples at
// or below it. It returns NaN for an empty slice.
func nearestRank(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return math.NaN()
	}
	return asc[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples ranked strictly above the p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// reportable applies the rule that a tail percentile needs at least
// minBeyond samples beyond it; the median is always reported.
func reportable(n int, p float64) bool {
	return n > 0 && (p <= 0.5 || beyond(n, p) >= minBeyond)
}

// median is the middle value (mean of the middle two for even n), NaN when
// xs is empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones recomputed from saved runs in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// mean is the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0, for per-layer fractions whose base can be
// empty on a workload that does not reach the layer.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
func usSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
