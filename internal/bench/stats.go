package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"splapi/internal/cluster"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/sim"
	"splapi/internal/trace"
)

// CI-method tags recorded in Summary.CIMethod.
const (
	// CIExact: the sample is degenerate (n==1 or all values equal), so the
	// interval, like every other statistic, is the point itself.
	CIExact = "exact"
	// CISign: small-n order-statistic (sign-test) interval for the median.
	CISign = "sign"
	// CIBootstrap: percentile bootstrap interval for the median.
	CIBootstrap = "bootstrap"
)

// Summary holds dispersion statistics over the repetitions of one sweep
// cell, following the benchmarking-reproducibility methodology (Hunold &
// Carpen-Amarie, PAPERS.md): never report a single run; report the median
// with spread, and never judge the median with an interval built for the
// mean.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	// CI95Lo/CI95Hi bound a 95% confidence interval of the MEDIAN,
	// computed by a deterministic percentile bootstrap (n >= 8) or an
	// order-statistic sign-test interval (n < 8, where the bootstrap
	// resamples too coarsely to calibrate). The interval contains the
	// sample median by construction. With a deterministic simulator and a
	// clean fabric it collapses to a point; under fault injection it
	// widens with the retransmission tail.
	CI95Lo float64 `json:"ci95lo"`
	CI95Hi float64 `json:"ci95hi"`
	// CIMethod records which interval construction produced CI95Lo/Hi:
	// "exact", "sign", or "bootstrap".
	CIMethod string `json:"ciMethod,omitempty"`
}

// bootResamples is the fixed bootstrap replicate count. 2000 replicates
// put the 2.5%/97.5% percentile indices at 49 and 1949; the count is part
// of the artifact contract (changing it changes every committed CI).
const bootResamples = 2000

// Summarize reduces repeated measurements to a Summary. It is
// deterministic and order-invariant: the same multiset of values gives the
// identical result, bit for bit, because the bootstrap resampling seed is
// hash-derived from the sorted sample values themselves.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if x := v[0]; x == v[n-1] {
		// All samples equal (n == 1 included): a point mass, stated
		// exactly. Summing n copies of a clean-fabric value would leave
		// floating-point residue in the mean and std.
		return Summary{N: n, Min: x, Max: x, Median: x, Mean: x, CI95Lo: x, CI95Hi: x, CIMethod: CIExact}
	}
	s := Summary{N: n, Min: v[0], Max: v[n-1], Median: medianSorted(v)}
	var sum float64
	for _, x := range v {
		sum += x
	}
	s.Mean = sum / float64(n)
	var ss float64
	for _, x := range v {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(n-1))
	s.CI95Lo, s.CI95Hi, s.CIMethod = medianCI95(v, s.Median)
	return s
}

// medianSorted returns the sample median of an ascending-sorted slice.
func medianSorted(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// medianCI95 builds a 95% confidence interval for the median of the
// ascending-sorted sample v, whose values are not all equal: n < 8 uses
// the exact sign-test order-statistic interval; larger samples use a
// deterministic percentile bootstrap.
func medianCI95(v []float64, median float64) (lo, hi float64, method string) {
	if len(v) < 8 {
		lo, hi = signTestCI(v)
		return lo, hi, CISign
	}
	lo, hi = bootstrapMedianCI(v)
	// The percentile bootstrap brackets the sample median in all but
	// pathological resampling accidents; clamp so containment holds by
	// construction.
	lo = min(lo, median)
	hi = max(hi, median)
	return lo, hi, CIBootstrap
}

// signTestCI returns the narrowest order-statistic interval
// [v[d], v[n-1-d]] whose sign-test coverage 1 - 2*P(Binom(n,1/2) <= d)
// is at least 95%. For n <= 5 even [min, max] undercovers; the interval
// degrades to [min, max], the widest statement the sample supports.
func signTestCI(v []float64) (lo, hi float64) {
	n := len(v)
	best := 0
	for d := 1; 2*d < n; d++ {
		if coverage := 1 - 2*binomCDFHalf(n, d); coverage >= 0.95 {
			best = d
		} else {
			break // coverage shrinks monotonically in d
		}
	}
	return v[best], v[n-1-best]
}

// binomCDFHalf is P(Binom(n, 1/2) <= k), computed by direct summation of
// binomial coefficients (exact in float64 for the small n it serves).
func binomCDFHalf(n, k int) float64 {
	var sum, c float64 = 0, 1 // c walks C(n, i)
	for i := 0; i <= k; i++ {
		sum += c
		c = c * float64(n-i) / float64(i+1)
	}
	return sum / math.Pow(2, float64(n))
}

// bootstrapMedianCI is the percentile bootstrap interval of the median:
// bootResamples resamples-with-replacement of the sorted sample, each
// reduced to its median, then the 2.5% and 97.5% percentiles of the
// replicate distribution. The PRNG is splitmix64 seeded by hashing the
// sorted sample values, so the interval is a pure function of the sample
// multiset — order-invariant and bit-reproducible across hosts.
func bootstrapMedianCI(v []float64) (lo, hi float64) {
	n := len(v)
	state := sampleSeed(v)
	meds := make([]float64, bootResamples)
	resample := make([]float64, n)
	for b := range meds {
		for i := range resample {
			resample[i] = v[int(splitmix64(&state)%uint64(n))]
		}
		sort.Float64s(resample)
		meds[b] = medianSorted(resample)
	}
	sort.Float64s(meds)
	return meds[bootResamples/40-1], meds[bootResamples-bootResamples/40]
}

// sampleSeed hashes the sorted sample into the bootstrap PRNG seed.
func sampleSeed(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// splitmix64 advances the state and returns the next value of the
// SplitMix64 sequence — a tiny, portable, allocation-free generator whose
// output is identical on every platform (math/rand would tie the artifact
// bytes to the Go release's shuffling internals).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PrintStats runs a mixed-size ring workload on every stack and prints the
// layered trace report for each — the observability view of where each
// protocol spends its packets, copies, buffer-pool traffic, and handler
// invocations. A cross-layer conservation violation in any report is
// returned as an error (after all reports print) so callers can fail the
// run.
func PrintStats(w io.Writer) error {
	var firstErr error
	for i, f := range registryStacks(paperParams()) {
		if i > 0 {
			fmt.Fprintln(w)
		}
		stack := cluster.Stack(f.Name)
		par := paperParams()
		c := cluster.New(cluster.Config{Nodes: 4, Stack: stack, Seed: 2, Params: &par})
		c.RunMPI(60*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			world := mpi.NewWorld(prov)
			for round, sz := range []int{16, 78, 1024, 16384, 262144} {
				buf := make([]byte, sz)
				next := (world.Rank() + 1) % world.Size()
				prev := (world.Rank() - 1 + world.Size()) % world.Size()
				world.Sendrecv(p, buf, next, round, make([]byte, sz), prev, round)
			}
			world.Barrier(p)
		})
		r := trace.Collect(c)
		r.Print(w)
		if err := r.Consistent(); err != nil {
			fmt.Fprintf(w, "  CONSISTENCY VIOLATION: %v\n", err)
			if firstErr == nil {
				firstErr = fmt.Errorf("stack %s: %w", stack, err)
			}
		}
	}
	return firstErr
}
