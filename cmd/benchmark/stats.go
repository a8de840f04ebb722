package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method): the spread the benchmark's driver judges
// steadiness by. It needs at least two values.
func iqrShare(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(xs)
}

// tailPercentile is the highest of p50/p75/p90/p95/p99 that still has at
// least ten samples beyond it; p50 when the sample is too small for any.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatFor collects one sample per call of fn until d has elapsed and at
// least min samples exist. With exact set it takes exactly min samples (the
// -smoke scale).
func repeatFor(d time.Duration, min int, exact bool, fn func() float64) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < min || (!exact && time.Since(start) < d) {
		out = append(out, fn())
	}
	return out
}

// perOp times n calls of fn as one batch and returns nanoseconds per call.
func perOp(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// timed returns how long fn took, in milliseconds.
func timed(fn func()) float64 { return perOp(1, fn) / 1e6 }

// medianOf runs the measurement reps times and returns the median reading.
func medianOf(reps int, measure func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = measure()
	}
	return median(xs)
}
