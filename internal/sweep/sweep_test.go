package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"splapi/internal/bench"
	"splapi/internal/sim"
)

// syntheticExperiment builds a cheap experiment whose cell values are pure
// functions of (cell, seed), for harness tests that don't need a real
// simulation.
func syntheticExperiment(cells int) bench.Experiment {
	e := bench.Experiment{ID: "synthetic", Title: "synthetic", Unit: "us", Direction: bench.LowerIsBetter}
	for i := 0; i < cells; i++ {
		i := i
		e.Cells = append(e.Cells, bench.Cell{
			Series: "s",
			X:      i,
			Run: func(rc bench.RunSpec) bench.Measurement {
				return bench.Measurement{
					Value:       float64(i)*1000 + float64(rc.Seed%97),
					VirtualTime: sim.Time(rc.Seed % 1000),
				}
			},
		})
	}
	return e
}

// TestParInvarianceSynthetic runs the same sweep at several pool sizes and
// asserts the serialized artifacts are byte-identical: results must not
// depend on worker count or scheduling.
func TestParInvarianceSynthetic(t *testing.T) {
	e := syntheticExperiment(23)
	var ref []byte
	for _, par := range []int{1, 2, 7, 32} {
		r, err := Run(e, Options{Seeds: 5, Par: par})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("par=%d produced different bytes than par=1", par)
		}
	}
}

// TestParInvarianceRealExperiment is the full-stack version: a registry
// experiment (real clusters, engines, protocol stacks) swept serially and
// on a contended pool must serialize identically. This is the guard for
// hidden shared state anywhere in the stack.
func TestParInvarianceRealExperiment(t *testing.T) {
	e, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(e, Options{Seeds: 2, Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(e, Options{Seeds: 2, Par: 4})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Encode(serial)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := Encode(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bs, bp) {
		t.Fatalf("serial and 4-worker sweeps differ:\n%s\nvs\n%s", bs, bp)
	}
}

func TestCellSeedProperties(t *testing.T) {
	a := CellSeed(1, "fig10", "RAW LAPI", 64, 0)
	if a != CellSeed(1, "fig10", "RAW LAPI", 64, 0) {
		t.Fatal("CellSeed not deterministic")
	}
	if a < 0 {
		t.Fatalf("CellSeed negative: %d", a)
	}
	seen := map[int64]bool{a: true}
	for rep := 1; rep < 64; rep++ {
		s := CellSeed(1, "fig10", "RAW LAPI", 64, rep)
		if seen[s] {
			t.Fatalf("seed collision at rep %d", rep)
		}
		seen[s] = true
	}
	if CellSeed(2, "fig10", "RAW LAPI", 64, 0) == a {
		t.Fatal("base seed does not perturb derived seeds")
	}
	if CellSeed(1, "fig11", "RAW LAPI", 64, 0) == a {
		t.Fatal("experiment id does not perturb derived seeds")
	}
}

// TestFaultInjectionProducesDispersion checks that the seed list is doing
// real statistical work: with fabric faults on, different seeds must give
// different values, and the summary must report nonzero spread.
func TestFaultInjectionProducesDispersion(t *testing.T) {
	e := bench.Experiment{ID: "disp", Title: "dispersion probe", Unit: "us", Direction: bench.LowerIsBetter}
	full, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	e.Cells = full.Cells[:2]
	r, err := Run(e, Options{Seeds: 4, Par: 2, Faults: "uniform:drop=0.004"})
	if err != nil {
		t.Fatal(err)
	}
	spread := false
	for _, p := range r.Points {
		if p.Stats.Max > p.Stats.Min {
			spread = true
			if p.Stats.CI95Hi <= p.Stats.CI95Lo {
				t.Errorf("point %s/%d has spread but a degenerate CI", p.Series, p.X)
			}
		}
		if p.Stats.Median < p.Stats.Min || p.Stats.Median > p.Stats.Max {
			t.Errorf("point %s/%d: median %v outside [%v, %v]", p.Series, p.X, p.Stats.Median, p.Stats.Min, p.Stats.Max)
		}
	}
	if !spread {
		t.Error("drop injection across 4 seeds produced zero dispersion everywhere; seeds are not reaching the fabric RNG")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r, err := Run(syntheticExperiment(3), Options{Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	r.GitDescribe = "test-rev"
	path := filepath.Join(t.TempDir(), "BENCH_synthetic.json")
	if err := Save(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != r.Experiment || got.GitDescribe != "test-rev" || len(got.Points) != len(r.Points) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range r.Points {
		if !reflect.DeepEqual(got.Points[i], r.Points[i]) {
			t.Fatalf("point %d changed across round trip:\n%+v\nvs\n%+v", i, r.Points[i], got.Points[i])
		}
	}
	if got.Schema != SchemaV3 {
		t.Fatalf("saved artifact schema = %q, want %q", got.Schema, SchemaV3)
	}

	// An artifact carrying an override this version no longer models (the
	// retired uniform drop/dup probabilities) is refused, not read as clean.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), `"overrides": {}`, `"overrides": {"dropProb": 0.01}`, 1)
	if stale == string(data) {
		t.Fatal("saved artifact has no empty overrides block to rewrite")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "dropProb") {
		t.Fatalf("Load(stale overrides) = %v, want an unknown-field error naming dropProb", err)
	}
}

// TestRunPropagatesPanics: a panicking cell must surface as an error, not
// kill the process or hang the pool.
func TestRunPropagatesPanics(t *testing.T) {
	e := bench.Experiment{ID: "boom", Unit: "us", Direction: bench.LowerIsBetter, Cells: []bench.Cell{{
		Series: "s", X: 1,
		Run: func(rc bench.RunSpec) bench.Measurement { panic("kaboom") },
	}}}
	if _, err := Run(e, Options{Seeds: 2, Par: 2}); err == nil {
		t.Fatal("Run swallowed a cell panic")
	}
}
