package sweep

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splapi/internal/bench"
)

// mkPoint builds a PointResult from raw samples the way Run does: the
// samples are stored only when they differ.
func mkPoint(series string, x int, samples ...float64) PointResult {
	p := PointResult{Series: series, X: x, Stats: bench.Summarize(samples)}
	if p.Stats.Min != p.Stats.Max {
		p.Samples = samples
	}
	return p
}

// mkResult builds a v3 result over per-x sample sets. Latencies ("us")
// declare lower-better and rates higher-better; any other unit declares
// no direction.
func mkResult(unit string, pts map[int][]float64) *Result {
	r := &Result{Schema: SchemaV3, Experiment: "x", Unit: unit, Seeds: 3}
	switch unit {
	case "us":
		r.Direction = string(bench.LowerIsBetter)
	case "MB/s", "msgs/s":
		r.Direction = string(bench.HigherIsBetter)
	}
	for x, samples := range pts {
		r.Points = append(r.Points, mkPoint("s", x, samples...))
	}
	return r
}

func byX(deltas []Delta) map[int]Delta {
	m := map[int]Delta{}
	for _, d := range deltas {
		m[d.X] = d
	}
	return m
}

// TestCompareExactDeterministic: degenerate (all-equal) samples are the
// clean-fabric common case — any movement beyond the tolerance is real,
// and direction decides regression vs improvement.
func TestCompareExactDeterministic(t *testing.T) {
	oldR := mkResult("us", map[int][]float64{1: {100, 100, 100}, 2: {200, 200, 200}, 3: {300, 300, 300}})
	newR := mkResult("us", map[int][]float64{1: {100, 100, 100}, 2: {250, 250, 250}, 3: {260, 260, 260}})
	deltas, err := Compare(oldR, newR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	d := byX(deltas)
	if d[1].Moved {
		t.Error("x=1 did not move but was flagged")
	}
	if !d[2].Regression || d[2].Method != MethodExact {
		t.Errorf("x=2 latency rose deterministically; want exact-method regression, got %+v", d[2])
	}
	if d[3].Regression || !d[3].Moved {
		t.Error("x=3 latency dropped: a movement but an improvement")
	}

	// For bandwidth the bad direction flips, driven by the declared
	// direction rather than unit sniffing.
	oldB := mkResult("MB/s", map[int][]float64{1: {80, 80, 80}})
	newB := mkResult("MB/s", map[int][]float64{1: {70, 70, 70}})
	deltas, err = Compare(oldB, newB, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !deltas[0].Regression {
		t.Error("bandwidth drop not flagged as regression")
	}

	// Tolerance is the practical-significance floor.
	deltas, err = Compare(oldB, newB, CompareOpts{TolPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Moved {
		t.Error("20% tolerance should absorb a 12.5% movement")
	}

	if _, err := Compare(oldR, oldB, CompareOpts{}); err == nil {
		t.Error("comparing different units should error")
	}
}

// TestCompareRankSum: with real dispersion the gate runs the rank-sum
// test — a wholesale shift of the distribution is significant, seed noise
// around the same median is not.
func TestCompareRankSum(t *testing.T) {
	oldS := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100, 101, 99, 100, 102, 98, 100}
	shifted := make([]float64, len(oldS))
	jittered := make([]float64, len(oldS))
	for i, v := range oldS {
		shifted[i] = v + 15
		jittered[i] = v + float64(i%3)*0.1 // tiny, overlapping perturbation
	}
	oldR := mkResult("us", map[int][]float64{1: oldS})
	badR := mkResult("us", map[int][]float64{1: shifted})
	okR := mkResult("us", map[int][]float64{1: jittered})

	deltas, err := Compare(oldR, badR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	d := deltas[0]
	if d.Method != MethodRankSum || !d.Regression || d.P >= 0.05 {
		t.Errorf("15us distribution shift must be a rank-sum regression: %+v", d)
	}

	deltas, err = Compare(oldR, okR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Regression {
		t.Errorf("overlapping jitter flagged as regression: %+v", deltas[0])
	}
}

// TestCompareDegenerateAgainstSampled: a point stored as one number (every
// repetition equal, no samples) still meets a sampled point in the
// rank-sum test, as Stats.N copies of its value — e.g. a faulted cell that
// came out all-equal at the parent but not at the change.
func TestCompareDegenerateAgainstSampled(t *testing.T) {
	flat := make([]float64, 16)
	tail := make([]float64, 16)
	for i := range flat {
		flat[i] = 100
		tail[i] = 130 + float64(i)
	}
	oldR := mkResult("us", map[int][]float64{1: flat})
	newR := mkResult("us", map[int][]float64{1: tail})
	if oldR.Points[0].Samples != nil || newR.Points[0].Samples == nil {
		t.Fatalf("fixture: want an old point without samples and a new one with them: %+v vs %+v", oldR.Points[0], newR.Points[0])
	}
	for _, pair := range [][2]*Result{{oldR, newR}, {newR, oldR}} {
		deltas, err := Compare(pair[0], pair[1], CompareOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if d := deltas[0]; d.Method != MethodRankSum || !d.Moved || d.P >= 0.05 {
			t.Errorf("a constant 100 against 130..145 must be a rank-sum movement: %+v", d)
		}
	}
	deltas, err := Compare(oldR, newR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !deltas[0].Regression {
		t.Errorf("latency up from a constant 100 to 130..145 is a regression: %+v", deltas[0])
	}
}

// TestCompareSkewedTailNotRegression: the scenario the old gate got
// wrong — a fault-injected distribution with a retransmission tail. The
// tail drags the mean (and the old mean-centered CI); identical
// distributions must compare clean, and a tail-only change with the same
// median body must not trip the median gate.
func TestCompareSkewedTailNotRegression(t *testing.T) {
	tail := []float64{29.9, 29.9, 30.0, 30.0, 30.0, 30.1, 30.1, 30.1, 30.2, 30.2, 30.4, 31.0, 38.7, 55.2, 112.9, 240.3}
	oldR := mkResult("us", map[int][]float64{1: tail})
	deltas, err := Compare(oldR, oldR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Moved || deltas[0].Regression {
		t.Errorf("identical skewed distributions flagged: %+v", deltas[0])
	}
}

// TestCompareMissingPoints: losing coverage fails the gate unless
// explicitly allowed; gaining points is not a regression.
func TestCompareMissingPoints(t *testing.T) {
	oldR := mkResult("us", map[int][]float64{1: {100, 100}, 2: {200, 200}})
	newR := mkResult("us", map[int][]float64{1: {100, 100}, 3: {50, 50}})

	deltas, err := Compare(oldR, newR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	d := byX(deltas)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want matched x=1 plus missing x=2: %+v", len(deltas), deltas)
	}
	md := d[2]
	if !md.Missing || !md.Regression || md.Method != MethodMissing || !math.IsNaN(md.New) {
		t.Errorf("lost point not reported as failure: %+v", md)
	}
	if len(Regressions(deltas)) != 1 {
		t.Errorf("missing point must fail the gate: %+v", deltas)
	}

	deltas, err = Compare(oldR, newR, CompareOpts{AllowMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(Regressions(deltas)) != 0 {
		t.Errorf("AllowMissing should downgrade the lost point: %+v", deltas)
	}
	for _, dd := range deltas {
		if dd.X == 2 && (!dd.Missing || dd.Regression) {
			t.Errorf("allowed missing point misreported: %+v", dd)
		}
	}
}

// TestCompareZeroOldMedian: a movement away from a zero old median has an
// undefined relative delta; it must be flagged on its absolute movement
// and never printed as "+0.00%".
func TestCompareZeroOldMedian(t *testing.T) {
	oldR := mkResult("us", map[int][]float64{1: {0, 0, 0}})
	newR := mkResult("us", map[int][]float64{1: {5, 5, 5}})
	deltas, err := Compare(oldR, newR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	d := deltas[0]
	if !d.Regression {
		t.Errorf("0 -> 5 latency movement not flagged: %+v", d)
	}
	if d.PctOK {
		t.Errorf("relative movement from a zero median must be undefined: %+v", d)
	}
	var buf1 bytes.Buffer
	PrintDeltas(&buf1, deltas, true)
	out := buf1.String()
	if strings.Contains(out, "+0.00%") {
		t.Errorf("undefined percent masked as +0.00%%:\n%s", out)
	}
	if !strings.Contains(out, "undef") {
		t.Errorf("undefined percent not surfaced:\n%s", out)
	}

	// Zero-to-zero genuinely is no movement.
	deltas, err = Compare(oldR, oldR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Moved || !deltas[0].PctOK {
		t.Errorf("0 -> 0 should be clean with a defined 0%% delta: %+v", deltas[0])
	}
}

// TestCompareDirectionHandling: the direction comes from the declared
// field when present; unknown units without a declaration fail loudly
// instead of silently treating throughput as higher-is-worse.
func TestCompareDirectionHandling(t *testing.T) {
	oldR := mkResult("msgs/s", map[int][]float64{1: {1000, 1000}})
	newR := mkResult("msgs/s", map[int][]float64{1: {500, 500}})
	deltas, err := Compare(oldR, newR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !deltas[0].Regression {
		t.Error("halved msgs/s throughput must be a regression (not a latency improvement)")
	}

	// A declared direction overrides the unit map entirely.
	oldR.Direction = string(bench.LowerIsBetter)
	newR.Direction = string(bench.LowerIsBetter)
	deltas, err = Compare(oldR, newR, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Regression {
		t.Error("declared lower-better direction should make the drop an improvement")
	}

	// Unknown unit, no declaration: loud failure.
	oldU := mkResult("frobs", map[int][]float64{1: {1, 1}})
	if _, err := Compare(oldU, oldU, CompareOpts{}); err == nil {
		t.Error("unknown unit without declared direction should error")
	}
	// Conflicting declarations: loud failure.
	newR.Direction = string(bench.HigherIsBetter)
	if _, err := Compare(oldR, newR, CompareOpts{}); err == nil {
		t.Error("conflicting directions should error")
	}
}

// TestCompareSelfIsClean is the gate's core property: a result compared
// with itself at tolerance 0 reports nothing. A schema-less pre-v2 file —
// whose mean-centered CI could exclude its own median — is no longer read
// at all: Load rejects it as loudly as any other foreign schema.
func TestCompareSelfIsClean(t *testing.T) {
	v3 := mkResult("us", map[int][]float64{1: {23.009, 23.009, 23.009}})
	deltas, err := Compare(v3, v3, CompareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if deltas[0].Moved || deltas[0].Regression {
		t.Errorf("v3 self-comparison flagged a movement: %+v", deltas[0])
	}

	legacy := `{"experiment": "x", "title": "t", "unit": "us", "seeds": 16, "baseSeed": 1,
  "points": [{"series": "s", "x": 1, "stats": {"n": 16, "min": 23.009, "max": 23.009, "median": 23.009}}]}`
	path := filepath.Join(t.TempDir(), "BENCH_v1.json")
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("Load(schema-less file) = %v, want an unsupported-schema error", err)
	}
}

// TestCompareSelfCleanAllArtifacts is the committed-artifact property:
// every BENCH_*.json sweep artifact in the repository root, compared
// against itself at tolerance 0, reports no movement. It is the gate's
// soundness floor; cmd/sweep's tests hold the CLI exit codes around it.
func TestCompareSelfCleanAllArtifacts(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range matches {
		r, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		deltas, err := Compare(r, r, CompareOpts{})
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		for _, d := range deltas {
			if d.Moved || d.Regression {
				t.Errorf("%s: self-comparison flagged %s/%d: %+v", path, d.Series, d.X, d)
			}
		}
		checked++
	}
	if want := len(bench.Experiments()); checked != want {
		t.Errorf("expected one committed sweep artifact per experiment (%d), checked %d", want, checked)
	}
}

// TestRankSumPValues sanity-checks the test statistic itself.
func TestRankSumPValues(t *testing.T) {
	rankSumP := func(a, b []float64) float64 { return rankSumP(mkPoint("s", 1, a...), mkPoint("s", 1, b...)) }
	same := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if p := rankSumP(same, same); p < 0.9 {
		t.Errorf("identical samples: p = %v, want ~1", p)
	}
	allTies := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	if p := rankSumP(allTies, allTies); p != 1 {
		t.Errorf("fully tied samples: p = %v, want exactly 1", p)
	}
	lo := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	hi := make([]float64, len(lo))
	for i, v := range lo {
		hi[i] = v + 100
	}
	if p := rankSumP(lo, hi); p > 1e-4 {
		t.Errorf("disjoint samples: p = %v, want ~0", p)
	}
	// Two constant groups at different values: maximal ties within
	// groups, but the distributions are plainly different.
	a := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	b := []float64{4, 4, 4, 4, 4, 4, 4, 4}
	if p := rankSumP(a, b); p > 1e-3 {
		t.Errorf("separated constant samples: p = %v, want ~0", p)
	}
}
