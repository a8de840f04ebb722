package bench

import (
	"math"
	"testing"
)

// retransTail is a skewed fixture shaped like a fault-injected latency
// sample: a tight cluster of clean runs plus a long retransmission tail.
// The mean lives well above the median here, which is exactly why the
// gate judges medians with a median interval.
var retransTail = []float64{
	29.9, 29.9, 29.9, 30.0, 30.0, 30.0, 30.1, 30.1,
	30.1, 30.2, 30.2, 30.4, 31.0, 38.7, 55.2, 112.9,
}

func TestSummarizeTable(t *testing.T) {
	cases := []struct {
		name       string
		in         []float64
		median     float64
		method     string
		zeroWidth  bool // CI must collapse to the median
		wantLo     float64
		wantHi     float64
		checkExact bool // compare wantLo/wantHi exactly
	}{
		{name: "n=1", in: []float64{42}, median: 42, method: CIExact, zeroWidth: true},
		{name: "all-equal", in: []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, median: 7, method: CIExact, zeroWidth: true},
		// fig11 "Native MPI" x=0: sixteen seeds of one deterministic value,
		// whose summed mean is 24.947499999999994.
		{name: "16 x 24.9475", in: repeat(24.9475, 16), median: 24.9475, method: CIExact, zeroWidth: true},
		{name: "odd n", in: []float64{3, 1, 2}, median: 2, method: CISign, wantLo: 1, wantHi: 3, checkExact: true},
		{name: "even n small", in: []float64{10, 20, 30, 40}, median: 25, method: CISign, wantLo: 10, wantHi: 40, checkExact: true},
		// n=8 is the bootstrap threshold.
		{name: "even n bootstrap", in: []float64{1, 2, 3, 4, 5, 6, 7, 8}, median: 4.5, method: CIBootstrap},
		{name: "retransmission tail", in: retransTail, median: 30.1, method: CIBootstrap},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Summarize(c.in)
			if s.N != len(c.in) {
				t.Fatalf("N = %d, want %d", s.N, len(c.in))
			}
			if s.Median != c.median {
				t.Fatalf("median = %v, want %v", s.Median, c.median)
			}
			if s.CIMethod != c.method {
				t.Fatalf("CIMethod = %q, want %q", s.CIMethod, c.method)
			}
			// The median interval must contain the median by construction.
			if s.CI95Lo > s.Median || s.CI95Hi < s.Median {
				t.Fatalf("CI [%v, %v] excludes median %v", s.CI95Lo, s.CI95Hi, s.Median)
			}
			// ... and never extend beyond the observed sample.
			if s.CI95Lo < s.Min || s.CI95Hi > s.Max {
				t.Fatalf("CI [%v, %v] outside sample range [%v, %v]", s.CI95Lo, s.CI95Hi, s.Min, s.Max)
			}
			if c.zeroWidth && (s.CI95Lo != s.Median || s.CI95Hi != s.Median) {
				t.Fatalf("degenerate sample CI should collapse to the median: %+v", s)
			}
			if c.zeroWidth && (s.Mean != c.median || s.Std != 0) {
				t.Fatalf("degenerate sample must state its value exactly: mean %v, std %v, want %v, 0", s.Mean, s.Std, c.median)
			}
			if c.checkExact && (s.CI95Lo != c.wantLo || s.CI95Hi != c.wantHi) {
				t.Fatalf("CI = [%v, %v], want [%v, %v]", s.CI95Lo, s.CI95Hi, c.wantLo, c.wantHi)
			}
		})
	}
}

// TestSummarizeEmpty: the zero-value Summary for an empty sample.
func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

// TestSummarizeDeterministicOrderInvariant: the bootstrap seed is derived
// from the sorted sample values, so any permutation of the input gives the
// bit-identical Summary — the property that keeps sweep artifacts
// byte-reproducible at every worker count.
func TestSummarizeDeterministicOrderInvariant(t *testing.T) {
	ref := Summarize(retransTail)
	if ref != Summarize(retransTail) {
		t.Fatal("Summarize not deterministic across calls")
	}
	perm := append([]float64(nil), retransTail...)
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	if got := Summarize(perm); got != ref {
		t.Fatalf("order dependence:\n%+v\nvs\n%+v", got, ref)
	}
}

// TestSummarizeTailRobust: the median interval of the retransmission-tail
// fixture must stay near the clean cluster — it is an interval for the
// median, not the tail-dragged mean.
func TestSummarizeTailRobust(t *testing.T) {
	s := Summarize(retransTail)
	if s.Mean < 33 {
		t.Fatalf("fixture lost its tail: mean = %v", s.Mean)
	}
	if s.CI95Hi > 40 {
		t.Fatalf("median CI dragged into the tail: [%v, %v]", s.CI95Lo, s.CI95Hi)
	}
	if width := s.CI95Hi - s.CI95Lo; width <= 0 {
		t.Fatalf("dispersed sample must have a real interval, got width %v", width)
	}
}

// TestSummarizeMeanCINoiseGone reproduces the committed-artifact case that
// motivated the bugfix: 16 bit-identical values whose summed mean picks up
// floating-point noise. The old mean-centered CI could exclude the median
// itself; the summary of a point mass states the point, interval and mean
// alike.
func TestSummarizeMeanCINoiseGone(t *testing.T) {
	s := Summarize(repeat(23.009, 16))
	want := Summary{N: 16, Min: 23.009, Max: 23.009, Median: 23.009, Mean: 23.009, CI95Lo: 23.009, CI95Hi: 23.009, CIMethod: CIExact}
	if s != want {
		t.Fatalf("all-equal sample must be summarized exactly:\n got %+v\nwant %+v", s, want)
	}
}

// repeat returns n copies of x.
func repeat(x float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = x
	}
	return v
}

func TestSignTestCoverageWidths(t *testing.T) {
	// n=7: [min, max] has coverage 1 - 2/128 ≈ 0.984, but trimming one
	// order statistic per side drops to 0.875 — so the interval must be
	// [min, max].
	v := []float64{1, 2, 3, 4, 5, 6, 7}
	s := Summarize(v)
	if s.CI95Lo != 1 || s.CI95Hi != 7 {
		t.Fatalf("n=7 sign interval = [%v, %v], want [1, 7]", s.CI95Lo, s.CI95Hi)
	}
}

// TestBootstrapWithinRange: property over assorted samples — the interval
// is inside [min, max], ordered, and contains the median.
func TestBootstrapWithinRange(t *testing.T) {
	samples := [][]float64{
		{1, 1, 1, 1, 2, 2, 2, 2},
		{0, 0, 0, 0, 0, 0, 0, 1000},
		{-5, -4, -3, -2, -1, 1, 2, 3, 4, 5},
		retransTail,
	}
	for i, v := range samples {
		s := Summarize(v)
		if s.CI95Lo > s.CI95Hi {
			t.Fatalf("sample %d: inverted CI %+v", i, s)
		}
		if s.CI95Lo < s.Min || s.CI95Hi > s.Max || s.CI95Lo > s.Median || s.CI95Hi < s.Median {
			t.Fatalf("sample %d: CI [%v, %v] violates range/median containment: %+v", i, s.CI95Lo, s.CI95Hi, s)
		}
	}
}

func TestSummarizeMoments(t *testing.T) {
	a := Summarize([]float64{3, 1, 2})
	if a.Mean != 2 || math.Abs(a.Std-1) > 1e-12 {
		t.Fatalf("moments: %+v", a)
	}
	e := Summarize([]float64{10, 20, 30, 40})
	if e.Median != 25 || e.Mean != 25 {
		t.Fatalf("even summary = %+v", e)
	}
}
