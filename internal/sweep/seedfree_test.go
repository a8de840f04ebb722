package sweep

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"splapi/internal/bench"
	"splapi/internal/tracelog"
)

// wrapped wraps every cell of e to count the repetitions it runs in runs
// and, with force, to clear SeedFree: the sweep that runs every seed, built
// in test code, that a seed-free sweep must equal.
func wrapped(e bench.Experiment, runs *atomic.Int64, force bool) bench.Experiment {
	cells := make([]bench.Cell, len(e.Cells))
	for i, c := range e.Cells {
		run := c.Run
		c.Run = func(rc bench.RunSpec) bench.Measurement {
			runs.Add(1)
			m := run(rc)
			m.SeedFree = m.SeedFree && !force
			return m
		}
		cells[i] = c
	}
	e.Cells = cells
	return e
}

func encode(t *testing.T, e bench.Experiment, o Options) []byte {
	t.Helper()
	r, err := Run(e, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSeedFreeCellRunsOnce: a cell whose repetition 0 reports SeedFree runs
// once however many seeds are asked for, a plain cell runs every seed, and
// every point records n = seeds repetitions. A constant cell stores its
// value once, with no samples; the seed-varying cell after them keeps all
// of its samples.
func TestSeedFreeCellRunsOnce(t *testing.T) {
	const cells, seeds = 3, 5
	for _, free := range []bool{true, false} {
		e := bench.Experiment{ID: "runs", Title: "runs", Unit: "us", Direction: bench.LowerIsBetter}
		for i := 0; i < cells; i++ {
			e.Cells = append(e.Cells, bench.Cell{Series: "s", X: i, Run: func(bench.RunSpec) bench.Measurement {
				return bench.Measurement{Value: 7, VirtualTime: 11, SeedFree: free}
			}})
		}
		e.Cells = append(e.Cells, bench.Cell{Series: "s", X: cells, Run: func(rc bench.RunSpec) bench.Measurement {
			return bench.Measurement{Value: float64(rc.Seed % 977), VirtualTime: 11}
		}})
		var runs atomic.Int64
		r, err := Run(wrapped(e, &runs, false), Options{Seeds: seeds, Par: 2})
		if err != nil {
			t.Fatal(err)
		}
		want := (cells + 1) * seeds
		if free {
			want = cells + seeds
		}
		if got := int(runs.Load()); got != want || r.Ran != want {
			t.Errorf("SeedFree=%v: %d runs (Result.Ran %d), want %d", free, got, r.Ran, want)
		}
		for _, p := range r.Points {
			samples := 0
			if p.X == cells {
				samples = seeds
			}
			if p.Stats.N != seeds || len(p.Samples) != samples || p.VirtualTimeNs != 11*seeds {
				t.Errorf("SeedFree=%v: point %d has n=%d, %d samples, %d ns; want %d, %d, %d",
					free, p.X, p.Stats.N, len(p.Samples), p.VirtualTimeNs, seeds, samples, 11*seeds)
			}
		}
	}
}

// TestSeedFreeSweepEqualsForcedFullRun: on a real experiment the artifact
// of the seed-free sweep is byte for byte the one of a sweep that runs
// every seed — serially and on a pool.
func TestSeedFreeSweepEqualsForcedFullRun(t *testing.T) {
	e, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{Seeds: 4, Par: 1},
		{Seeds: 4, Par: 4},
	} {
		var runs, forced atomic.Int64
		got := encode(t, wrapped(e, &runs, false), o)
		if want := encode(t, wrapped(e, &forced, true), o); !bytes.Equal(got, want) {
			t.Fatalf("%+v: seed-free artifact differs from the forced full run:\n%s\nvs\n%s", o, got, want)
		}
		if n := runs.Load(); n != int64(len(e.Cells)) {
			t.Errorf("%+v: clean ablate-eager ran %d repetitions, want one per cell (%d)", o, n, len(e.Cells))
		}
	}
}

// TestSeedFreeUnderFaultPlans: a probabilistic plan draws from every run's
// engine, so every seed of every cell runs; a scripted plan draws nothing,
// so its cells are seed-free and still equal the forced full run.
func TestSeedFreeUnderFaultPlans(t *testing.T) {
	e, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4
	for _, tc := range []struct {
		faults string
		runs   int
	}{
		{"uniform:drop=0.004", len(e.Cells) * seeds},
		{"flappy-route", len(e.Cells)},
	} {
		o := Options{Seeds: seeds, Par: 2, Faults: tc.faults}
		var runs, forced atomic.Int64
		got := encode(t, wrapped(e, &runs, false), o)
		if n := int(runs.Load()); n != tc.runs {
			t.Errorf("%s: %d repetitions ran, want %d", tc.faults, n, tc.runs)
		}
		if want := encode(t, wrapped(e, &forced, true), o); !bytes.Equal(got, want) {
			t.Errorf("%s: artifact differs from the forced full run", tc.faults)
		}
	}
}

// TestSeedFreeProgressCountsEveryRecordedRepetition: copies report progress
// like runs do, so Done reaches cells × seeds.
func TestSeedFreeProgressCountsEveryRecordedRepetition(t *testing.T) {
	e, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 4
	var events []Progress
	o := Options{Seeds: seeds, Par: 2, Progress: func(p Progress) { events = append(events, p) }}
	if _, err := Run(e, o); err != nil {
		t.Fatal(err)
	}
	want := len(e.Cells) * seeds
	if len(events) != want {
		t.Fatalf("%d progress events, want cells × seeds = %d", len(events), want)
	}
	if last := events[len(events)-1]; last.Done != want || last.Planned != want {
		t.Errorf("last event %+v, want done = planned = %d", last, want)
	}
}

// TestCommittedArtifactsRegenerate holds every committed BENCH_*.json field
// for field: each is re-swept at its recorded seeds, base seed and fault
// plan, and its points must come back equal.
func TestCommittedArtifactsRegenerate(t *testing.T) {
	if raceEnabled {
		t.Skip("sixteen-seed sweeps of every experiment; too slow under the race detector")
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(bench.Experiments()) {
		t.Fatalf("found %d committed artifacts, want one per experiment (%d)", len(files), len(bench.Experiments()))
	}
	for _, f := range files {
		want, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		e, err := bench.FindExperiment(want.Experiment)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(e, Options{Seeds: want.Seeds, BaseSeed: want.BaseSeed, Faults: want.Overrides.Faults})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Errorf("%s: points do not regenerate", f)
		}
	}
}

// TestTracingIsObservational: an event log attached to a run must not move
// it. Every cell of every registry experiment runs at its repetition-0 seed
// with and without a log, and the two measurements must agree on value,
// virtual time, seed-freedom and run counters.
func TestTracingIsObservational(t *testing.T) {
	if raceEnabled {
		t.Skip("every cell of every experiment, twice; too slow under the race detector")
	}
	for _, e := range bench.Experiments() {
		for _, c := range e.Cells {
			seed := CellSeed(1, e.ID, c.Series, c.X, 0)
			tl := tracelog.New(0)
			plain := c.Run(bench.RunSpec{Seed: seed})
			traced := c.Run(bench.RunSpec{Seed: seed, Trace: tl})
			if tl.Len() == 0 {
				t.Fatalf("%s %s/%d: the event log saw nothing; the comparison would be vacuous", e.ID, c.Series, c.X)
			}
			if plain.Value != traced.Value || plain.VirtualTime != traced.VirtualTime || plain.SeedFree != traced.SeedFree {
				t.Errorf("%s %s/%d: traced run (%v, %d ns, seed-free %v) differs from untraced (%v, %d ns, seed-free %v)",
					e.ID, c.Series, c.X, traced.Value, traced.VirtualTime, traced.SeedFree, plain.Value, plain.VirtualTime, plain.SeedFree)
			}
			if pc, tc := plain.Trace.Counters(), traced.Trace.Counters(); pc != tc {
				t.Errorf("%s %s/%d: traced counters %+v differ from untraced %+v", e.ID, c.Series, c.X, tc, pc)
			}
		}
	}
}
