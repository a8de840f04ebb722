// Package sweep is the parallel experiment-sweep harness: it expands a
// config matrix (experiment cells × machine-parameter overrides × seed
// list), runs every resulting configuration as an isolated sim.Engine
// instance on a worker pool, aggregates the repetitions into dispersion
// statistics, and persists machine-readable results.
//
// Three properties make this sound and cheap:
//
//   - every cell run builds its own cluster and therefore its own engine,
//     RNG, and event queue — a fully independent deterministic universe —
//     so the matrix is embarrassingly parallel;
//   - the seed of every run is derived deterministically from the cell's
//     identity and repetition index (never from worker identity or
//     completion order), so the aggregated results are bit-identical no
//     matter how many workers run the sweep or how the scheduler
//     interleaves them;
//   - a run whose engine never drew from its random source is the same
//     under every seed (the seed reaches a run only through it), so a cell
//     whose repetition 0 reports bench.Measurement.SeedFree is recorded as
//     that run at every seed without running the others, and the artifact
//     is the one running them would have written.
//
// The methodology (a fixed, reproducible repetition count per cell, median +
// spread rather than single-run numbers, median confidence intervals and
// nonparametric old-vs-new comparison rather than normal-theory mean CIs)
// follows "MPI Benchmarking Revisited: Experimental Design and
// Reproducibility" (Hunold & Carpen-Amarie).
package sweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"splapi/internal/bench"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/trace"
)

// Options configures a sweep run.
type Options struct {
	// Seeds is the number of repetitions per cell (default 1). Repetition
	// r of a cell runs with a seed derived from (experiment, series, x, r).
	Seeds int
	// Par is the worker-pool size; <= 0 means GOMAXPROCS.
	Par int
	// BaseSeed perturbs every derived seed, giving a fresh family of
	// repetitions (default 1).
	BaseSeed int64
	// Faults is a matrix-level fault-plan spec (see faults.Parse: "none",
	// "uniform:drop=P,dup=P,corrupt=P", a preset name, or "@file.json")
	// applied to every cell. On a clean fabric the simulator is
	// deterministic per seed and the dispersion statistics collapse to a
	// point; with faults enabled the seed list yields a real distribution.
	Faults string
	// GitDescribe is recorded in the result for provenance (the CLI fills
	// it from `git describe`).
	GitDescribe string
	// Progress, when non-nil, receives one host-side event per completed
	// repetition. Events arrive from worker goroutines serialized by an
	// internal mutex, but their order reflects scheduling, not cell order
	// — progress is observability only and must never feed back into the
	// result (which stays bit-identical with or without a callback).
	Progress func(Progress)
}

// Progress is one host-side progress event: repetition Rep of cell Cell
// finished, and Done of the Planned (cells × seeds) repetitions are
// recorded.
type Progress struct {
	Cell    int    `json:"cell"`
	Series  string `json:"series"`
	X       int    `json:"x"`
	Rep     int    `json:"rep"`
	Done    int    `json:"done"`
	Planned int    `json:"planned"`
}

// Validate is the one statement of what a sweep request may say, shared by
// the sweep CLI, the campaign service and RunCtx: negative knobs are
// rejected rather than reinterpreted — a request the harness silently
// rewrote would be a cache key that lies about its run. It also resolves
// the worker-pool size: Par, or GOMAXPROCS when Par is 0.
func (o Options) Validate() (workers int, err error) {
	switch {
	case o.Seeds < 0:
		return 0, fmt.Errorf("sweep: seeds must be >= 0, got %d", o.Seeds)
	case o.Par < 0:
		return 0, fmt.Errorf("sweep: par must be >= 0, got %d", o.Par)
	}
	if o.Par == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return o.Par, nil
}

// PointResult is the aggregate of all repetitions of one cell.
type PointResult struct {
	Series string        `json:"series"`
	X      int           `json:"x"`
	Stats  bench.Summary `json:"stats"`
	// Samples holds the raw per-repetition values in repetition order
	// (repetition r ran under CellSeed(..., r)) when they differ; a point
	// whose repetitions all agree is the one number in Stats. They make
	// the nonparametric regression gate possible: Compare runs a rank-sum
	// test on old-vs-new samples rather than trusting any interval.
	Samples []float64 `json:"samples,omitempty"`
	// VirtualTimeNs is the summed virtual time of all repetitions: the
	// simulated cost of producing this point.
	VirtualTimeNs int64 `json:"virtualTimeNs"`
	// Trace is the run-counter record of repetition 0 (deterministic).
	Trace trace.Counters `json:"trace"`
}

// Overrides records the matrix-level parameter overrides a result was
// produced under.
type Overrides struct {
	// Faults is the fault-plan spec the sweep ran under ("" = clean
	// fabric; omitted then, keeping fault-free artifacts byte-identical).
	Faults string `json:"faults,omitempty"`
}

// Result is the persisted outcome of sweeping one experiment. Every field
// serialized to JSON is a deterministic function of (experiment, options),
// so the artifact is bit-identical regardless of worker count; wall-clock
// cost and pool size are observable on the struct but deliberately kept
// out of the file (json:"-") to preserve that property.
type Result struct {
	// Schema tags the artifact format: SchemaV3 ("sweep/v3"), the only one
	// Load accepts; see json.go.
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Unit       string `json:"unit"`
	// Direction is the declared regression direction of the metric
	// (bench.LowerIsBetter / bench.HigherIsBetter), so the gate never
	// infers it from unit spelling.
	Direction   string        `json:"direction,omitempty"`
	GitDescribe string        `json:"gitDescribe"`
	Seeds       int           `json:"seeds"`
	BaseSeed    int64         `json:"baseSeed"`
	Overrides   Overrides     `json:"overrides"`
	Points      []PointResult `json:"points"`

	// WallClock is the host time the sweep took; Par is the pool size
	// used; Ran counts the repetitions executed, which is fewer than the
	// ones recorded when cells proved seed-free. Reported by the CLI, not
	// persisted.
	WallClock time.Duration `json:"-"`
	Par       int           `json:"-"`
	Ran       int           `json:"-"`
}

// CellSeed derives the seed for repetition rep of a cell. It depends only
// on the cell's identity, never on scheduling, and decorrelates
// neighbouring cells by hashing.
func CellSeed(base int64, experiment, series string, x, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", experiment, series, x, rep, base)
	return int64(h.Sum64() >> 1) // keep it positive for readability
}

// Run sweeps every cell of the experiment across the seed list on a worker
// pool and aggregates the repetitions: exactly Seeds per cell.
func Run(e bench.Experiment, o Options) (*Result, error) {
	return RunCtx(context.Background(), e, o)
}

// RunCtx is Run under a cancellation context. Cancellation is a drain,
// not an abort: repetitions already running on the pool complete (a cell
// run is an indivisible deterministic universe), queued ones are skipped,
// and RunCtx returns the context's error instead of a Result — a canceled
// sweep never yields a partial artifact that could be mistaken for a
// complete one.
func RunCtx(ctx context.Context, e bench.Experiment, o Options) (*Result, error) {
	par, err := o.Validate()
	if err != nil {
		return nil, err
	}
	seeds := max(o.Seeds, 1)
	base := o.BaseSeed
	if base == 0 {
		base = 1
	}
	// Fail loudly rather than persist an artifact the gate would have to
	// guess a direction for.
	if _, err := bench.ParseDirection(string(e.Direction)); err != nil {
		return nil, fmt.Errorf("sweep: experiment %q: %w", e.ID, err)
	}
	plan, err := faults.Parse(o.Faults)
	if err != nil {
		return nil, err
	}
	var mod bench.ParamMod
	if !plan.Empty() {
		mod = func(p *machine.Params) { p.Faults = plan }
	}

	// One slot per (cell, repetition): workers write only their own slot,
	// and aggregation reads the slots in deterministic cell order, so the
	// result is independent of scheduling. Repetition 0 of every cell runs
	// first, the rest after it. A cell whose repetition 0 proved seed-free
	// would measure the same under every seed, so its other slots are
	// recorded as copies of slot 0 instead of being run: the artifact is
	// the one a full run writes, and only slot 0's Trace is ever read.
	type job struct{ cell, rep int }
	slots := make([][]bench.Measurement, len(e.Cells))
	var lead, rest []job
	for ci := range e.Cells {
		slots[ci] = make([]bench.Measurement, seeds)
		lead = append(lead, job{ci, 0})
		for r := 1; r < seeds; r++ {
			rest = append(rest, job{ci, r})
		}
	}
	// Host-side progress accounting, serialized by progressMu. Purely
	// observational.
	var (
		progressMu   sync.Mutex
		progressDone int
	)
	report := func(j job) {
		if o.Progress == nil {
			return
		}
		c := e.Cells[j.cell]
		progressMu.Lock()
		progressDone++
		o.Progress(Progress{Cell: j.cell, Series: c.Series, X: c.X, Rep: j.rep, Done: progressDone, Planned: len(e.Cells) * seeds})
		progressMu.Unlock()
	}
	ran := 0 // repetitions executed; the rest of those recorded are copies
	start := time.Now()
	for _, part := range [][]job{lead, rest} {
		var batch []job
		for _, j := range part {
			// Until lead has run, slot 0 is the zero Measurement.
			if m := slots[j.cell][0]; m.SeedFree {
				slots[j.cell][j.rep] = m
				report(j)
			} else {
				batch = append(batch, j)
			}
		}
		ran += len(batch)
		jobs := make(chan job)
		var (
			wg       sync.WaitGroup
			panicked error
			panicMu  sync.Mutex
		)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					if ctx.Err() != nil {
						continue // drain the queue without running
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								panicMu.Lock()
								if panicked == nil {
									panicked = fmt.Errorf("sweep: cell %d rep %d panicked: %v", j.cell, j.rep, r)
								}
								panicMu.Unlock()
							}
						}()
						c := e.Cells[j.cell]
						seed := CellSeed(base, e.ID, c.Series, c.X, j.rep)
						slots[j.cell][j.rep] = c.Run(bench.RunSpec{Seed: seed, Mod: mod})
					}()
					report(j)
				}
			}()
		}
	feed:
		for _, j := range batch {
			select {
			case jobs <- j:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		if panicked != nil {
			return nil, panicked
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep: canceled after draining in-flight cells, partial results discarded: %w", err)
		}
	}

	res := &Result{
		Schema:      SchemaV3,
		Experiment:  e.ID,
		Title:       e.Title,
		Unit:        e.Unit,
		Direction:   string(e.Direction),
		GitDescribe: o.GitDescribe,
		Seeds:       seeds,
		BaseSeed:    base,
		Overrides:   Overrides{Faults: o.Faults},
		WallClock:   time.Since(start),
		Par:         par,
		Ran:         ran,
	}
	for ci, c := range e.Cells {
		samples := make([]float64, seeds)
		var vt int64
		for r, m := range slots[ci] {
			samples[r] = m.Value
			vt += int64(m.VirtualTime)
		}
		p := PointResult{
			Series:        c.Series,
			X:             c.X,
			Stats:         bench.Summarize(samples),
			VirtualTimeNs: vt,
			Trace:         slots[ci][0].Trace.Counters(),
		}
		if p.Stats.Min != p.Stats.Max {
			p.Samples = samples
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}
