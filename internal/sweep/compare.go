package sweep

import (
	"fmt"
	"io"
	"math"
	"sort"

	"splapi/internal/bench"
)

// Judgment methods recorded in Delta.Method.
const (
	// MethodExact: both samples are degenerate (every repetition equal),
	// the deterministic-simulator common case; any median movement beyond
	// the tolerance is real by definition.
	MethodExact = "exact"
	// MethodRankSum: Wilcoxon rank-sum (Mann-Whitney U) on the per-seed
	// samples, the distribution-aware path for fault-injected sweeps whose
	// timing distributions are skewed by retransmission tails.
	MethodRankSum = "ranksum"
	// MethodMissing: the point exists only in the old result; there is
	// nothing to test.
	MethodMissing = "missing"
)

// rankSumAlpha is the two-sided significance level of the rank-sum test.
const rankSumAlpha = 0.05

// CompareOpts configures a comparison.
type CompareOpts struct {
	// TolPct widens the acceptance band: a movement only counts when the
	// median moved by more than TolPct percent of the old median (in
	// absolute value). With a deterministic simulator this is the knob
	// that separates "any change" (0) from "meaningful change".
	TolPct float64
	// AllowMissing downgrades points present in old but absent in new
	// from failures to reported-but-clean deltas. Off by default: a sweep
	// that silently loses coverage must not pass the gate.
	AllowMissing bool
}

// Delta is one point's movement between two result files.
type Delta struct {
	Series string
	X      int
	Unit   string
	Old    float64 // old median
	New    float64 // new median
	// Pct is the relative movement of the median in percent (signed).
	// Only meaningful when PctOK; see PctOK.
	Pct float64
	// PctOK is false when the old median is zero and the new one is not:
	// the relative movement is undefined (an arbitrarily large absolute
	// movement divided by zero) and must never be rendered as "+0.00%".
	PctOK bool
	// P is the two-sided p-value of the rank-sum test (1 for the exact
	// and missing methods, where no test statistic exists).
	P float64
	// Method records which judgment produced Moved: "exact", "ranksum",
	// or "missing".
	Method string
	// Moved reports a statistically significant movement beyond the
	// tolerance (for "missing", that the point disappeared).
	Moved bool
	// Missing is true for a point present in old but absent in new.
	Missing bool
	// Regression is true when the movement is significant *and* in the
	// bad direction for the experiment, or when coverage was lost and
	// AllowMissing is off.
	Regression bool
}

// Compare matches the points of two results by (series, x) and judges each
// matched pair with a distribution-aware test:
//
//   - both sides degenerate (all repetitions equal): any median movement
//     beyond the tolerance is real — the simulator is deterministic;
//   - otherwise: Wilcoxon rank-sum at alpha=0.05 on the per-seed samples,
//     with the tolerance as a practical-significance floor on the median
//     movement. A side stored without samples (its repetitions all agree)
//     enters the test as Stats.N copies of its value.
//
// The regression direction is the one both results declare; a missing,
// unknown or conflicting declaration fails loudly.
//
// Points present in old but missing in new are reported as regressions
// unless o.AllowMissing is set; points present only in new are ignored
// (nothing to regress against).
func Compare(old, new *Result, o CompareOpts) ([]Delta, error) {
	if old.Experiment != new.Experiment {
		return nil, fmt.Errorf("sweep: comparing different experiments %q vs %q", old.Experiment, new.Experiment)
	}
	if old.Unit != new.Unit {
		return nil, fmt.Errorf("sweep: comparing different units %q vs %q", old.Unit, new.Unit)
	}
	oldDir, err := bench.ParseDirection(old.Direction)
	if err != nil {
		return nil, err
	}
	newDir, err := bench.ParseDirection(new.Direction)
	if err != nil {
		return nil, err
	}
	if oldDir != newDir {
		return nil, fmt.Errorf("sweep: regression direction changed between results: %q vs %q", oldDir, newDir)
	}
	higherWorse := oldDir == bench.LowerIsBetter

	key := func(p PointResult) [2]interface{} { return [2]interface{}{p.Series, p.X} }
	oldPts := make(map[[2]interface{}]PointResult, len(old.Points))
	for _, p := range old.Points {
		oldPts[key(p)] = p
	}
	newKeys := make(map[[2]interface{}]bool, len(new.Points))

	var out []Delta
	for _, np := range new.Points {
		newKeys[key(np)] = true
		op, ok := oldPts[key(np)]
		if !ok {
			continue // new point, nothing to regress against
		}
		d := Delta{Series: np.Series, X: np.X, Unit: new.Unit, Old: op.Stats.Median, New: np.Stats.Median, P: 1}
		move := np.Stats.Median - op.Stats.Median
		d.PctOK = op.Stats.Median != 0 || move == 0
		if op.Stats.Median != 0 {
			d.Pct = move / op.Stats.Median * 100
		}
		slack := math.Abs(o.TolPct / 100 * op.Stats.Median)
		if op.Stats.Min == op.Stats.Max && np.Stats.Min == np.Stats.Max {
			d.Method = MethodExact
			d.Moved = math.Abs(move) > slack
		} else {
			d.Method = MethodRankSum
			d.P = rankSumP(op, np)
			d.Moved = d.P < rankSumAlpha && math.Abs(move) > slack
		}
		if d.Moved {
			if higherWorse {
				d.Regression = move > 0
			} else {
				d.Regression = move < 0
			}
		}
		out = append(out, d)
	}
	// A sweep that lost points must not pass silently: every old point
	// absent from new is a coverage failure unless explicitly allowed.
	for _, op := range old.Points {
		if newKeys[key(op)] {
			continue
		}
		out = append(out, Delta{
			Series: op.Series, X: op.X, Unit: old.Unit,
			Old: op.Stats.Median, New: math.NaN(),
			PctOK: false, P: 1, Method: MethodMissing,
			Moved: true, Missing: true, Regression: !o.AllowMissing,
		})
	}
	return out, nil
}

// rankSumP is the two-sided p-value of the Wilcoxon rank-sum
// (Mann-Whitney U) test between the per-seed samples of points a (old)
// and b (new), using the normal approximation with midranks,
// tie-corrected variance, and continuity correction. A point stored
// without samples is one run of Stats.N equal observations, so a hostile
// seed count costs no memory. A zero tie-corrected variance (every
// observation in both samples equal) means the distributions are
// indistinguishable: p = 1.
func rankSumP(a, b PointResult) float64 {
	type run struct {
		v, n  float64 // value, multiplicity
		inOld bool
	}
	var all []run
	var sides [2]float64 // observations per side
	for side, p := range [2]PointResult{a, b} {
		vs, each := p.Samples, 1.0
		if vs == nil {
			vs, each = []float64{p.Stats.Median}, float64(p.Stats.N)
		}
		for _, v := range vs {
			all = append(all, run{v, each, side == 0})
		}
		sides[side] = float64(len(vs)) * each
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n1, n2 := sides[0], sides[1]
	n := n1 + n2
	var r1, tieSum, below float64
	for i := 0; i < len(all); {
		j, t := i, 0.0
		for ; j < len(all) && all[j].v == all[i].v; j++ {
			t += all[j].n
		}
		rank := below + (t+1)/2 // midrank of the tie group
		for k := i; k < j; k++ {
			if all[k].inOld {
				r1 += rank * all[k].n
			}
		}
		tieSum += t*t*t - t
		below += t
		i = j
	}
	u1 := r1 - n1*(n1+1)/2
	mu := n1 * n2 / 2
	sigma2 := n1 * n2 / 12 * (n + 1 - tieSum/(n*(n-1)))
	if sigma2 <= 0 {
		return 1
	}
	dev := u1 - mu
	switch { // continuity correction toward the null
	case dev > 0.5:
		dev -= 0.5
	case dev < -0.5:
		dev += 0.5
	default:
		dev = 0
	}
	return math.Erfc(math.Abs(dev) / math.Sqrt(sigma2) / math.Sqrt2)
}

// Regressions filters a comparison down to the regressed points.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// PrintDeltas writes a comparison as an aligned table; verbose includes
// unmoved points, otherwise only movements (and missing points) are shown.
func PrintDeltas(w io.Writer, deltas []Delta, verbose bool) {
	fmt.Fprintf(w, "%-28s %10s %12s %12s %9s %8s %9s  %s\n",
		"series", "x", "old", "new", "delta", "p", "method", "verdict")
	for _, d := range deltas {
		if !verbose && !d.Moved {
			continue
		}
		verdict := "no movement"
		switch {
		case d.Missing && d.Regression:
			verdict = "MISSING (coverage lost)"
		case d.Missing:
			verdict = "missing (allowed)"
		case d.Regression:
			verdict = "REGRESSION"
		case d.Moved:
			verdict = "improved"
		}
		// An undefined relative movement (old median 0) must never be
		// masked as "+0.00%".
		pct := fmt.Sprintf("%+8.2f%%", d.Pct)
		if !d.PctOK {
			pct = "    undef"
		}
		fmt.Fprintf(w, "%-28s %10d %12.3f %12.3f %s %8.3g %9s  %s\n",
			d.Series, d.X, d.Old, d.New, pct, d.P, d.Method, verdict)
	}
}
