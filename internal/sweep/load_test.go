package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splapi/internal/bench"
)

// constAndNoisy sweeps one constant cell, stored without samples, and one
// seed-varying cell, stored with them.
func constAndNoisy(t *testing.T) *Result {
	t.Helper()
	e := bench.Experiment{ID: "load", Title: "load", Unit: "us", Direction: bench.LowerIsBetter, Cells: []bench.Cell{
		{Series: "flat", X: 0, Run: func(bench.RunSpec) bench.Measurement { return bench.Measurement{Value: 100} }},
		{Series: "noisy", X: 0, Run: func(rc bench.RunSpec) bench.Measurement {
			return bench.Measurement{Value: 100 + float64(rc.Seed%977)}
		}},
	}}
	r, err := Run(e, Options{Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Points[0].Samples != nil || len(r.Points[1].Samples) != 3 {
		t.Fatalf("fixture: want a flat point without samples and a noisy one with 3: %+v", r.Points)
	}
	return r
}

// TestLoadRejectsMalformed: Load holds the invariants Run writes and
// Compare relies on, so an artifact from disk or the network that breaks
// one is refused rather than judged.
func TestLoadRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(r *Result)
		mention string
	}{
		{"valid", func(*Result) {}, ""},
		{"no seeds", func(r *Result) {
			r.Seeds = 0
			for i := range r.Points {
				r.Points[i].Stats.N, r.Points[i].Samples = 0, nil
			}
		}, "n = 0 with 0 samples"},
		{"n is not seeds", func(r *Result) { r.Points[0].Stats.N = 2 }, "n = 2 with 0 samples"},
		{"samples not n long", func(r *Result) { r.Points[1].Samples = r.Points[1].Samples[:2] }, "n = 3 with 2 samples"},
		{"samples missing while they differ", func(r *Result) { r.Points[1].Samples = nil }, "n = 3 with 0 samples"},
		{"duplicate point", func(r *Result) { r.Points[1].Series = "flat" }, "appears twice"},
		{"no direction", func(r *Result) { r.Direction = "" }, "direction"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := constAndNoisy(t)
			tc.mutate(r)
			path := filepath.Join(t.TempDir(), "BENCH_load.json")
			if err := Save(path, r); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			switch {
			case tc.mention == "" && err != nil:
				t.Fatalf("Load(valid artifact) = %v", err)
			case tc.mention != "" && (err == nil || !strings.Contains(err.Error(), tc.mention)):
				t.Fatalf("Load = %v, want an error mentioning %q", err, tc.mention)
			}
		})
	}
}

// FuzzLoad: whatever bytes an artifact holds, Decode (the parser under
// Load) either refuses them or returns a result that Compare judges
// against itself at tolerance 0 without error, movement or regression.
// The committed artifacts seed the corpus.
func FuzzLoad(f *testing.F) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := Decode(b)
		if err != nil {
			return
		}
		deltas, err := Compare(r, r, CompareOpts{})
		if err != nil {
			t.Fatalf("a decoded artifact cannot be compared with itself: %v", err)
		}
		for _, d := range deltas {
			if d.Moved || d.Regression {
				t.Fatalf("self-comparison at tolerance 0 moved %s/%d: %+v", d.Series, d.X, d)
			}
		}
	})
}
