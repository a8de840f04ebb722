package main

import (
	"fmt"
	"time"
)

// simWorkload is a fixed list of cells swept sequentially from one driver
// goroutine; one sweep is a pass.
type simWorkload struct {
	name string
	// cells builds the pass's cell list; only faulted depends on the seed.
	cells func(seed int64) []cell
	// once lists cells that run once per set-up rather than once per pass.
	once func() []cell
}

var simWorkloads = []simWorkload{
	{name: "pingpong_small", cells: func(int64) []cell { return pingPongCells() }},
	{name: "stream_large", cells: func(int64) []cell { return streamCells() }},
	{name: "nas_ring", cells: func(int64) []cell { return nasRingCells() }},
	{name: "faulted", cells: faultedCells, once: chaosCleanCells},
}

func findSimWorkload(name string) *simWorkload {
	for i := range simWorkloads {
		if simWorkloads[i].name == name {
			return &simWorkloads[i]
		}
	}
	return nil
}

// tally counts operations and keeps the first few failure descriptions.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) op(failure string) {
	t.attempted++
	if failure == "" {
		return
	}
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, failure)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 8 {
			t.failures = append(t.failures, f)
		}
	}
}

// simRun is one set-up of a simulation workload: its cells, the outcomes of
// the warm-up pass every later pass must reproduce, and the running tally.
type simRun struct {
	e     *env
	cells []cell
	first []outcome
	tally tally
	// pinned counts the distinct clean cells compared against expected.json.
	pinned int
}

// check judges one cell outcome. Every failure mode here is a failed
// operation: the cell's own verification, drift from the pinned value, or
// a pass that does not reproduce the warm-up pass (the same-seed rerun gate).
func (r *simRun) check(c cell, out outcome, first *outcome) string {
	if out.bad != "" {
		return c.ID + ": " + out.bad
	}
	if c.Clean || r.e.seed == 1 {
		pin, ok := r.e.exp.Cells[c.ID]
		if !ok {
			return c.ID + ": not pinned in expected.json"
		}
		if !out.same(pin) {
			return fmt.Sprintf("%s: drifted from expected.json: got %+v, pinned %+v", c.ID, out, pin)
		}
	}
	if first != nil && !out.same(*first) {
		return fmt.Sprintf("%s: same-seed rerun diverged: %+v then %+v", c.ID, *first, out)
	}
	return ""
}

// setUp does everything that precedes the first timed operation: parse
// expected.json, build the cell table, run the once-cells and the warm-up
// pass.
func (w *simWorkload) setUp(seed int64) (*simRun, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	r := &simRun{e: newEnv(seed, exp), cells: w.cells(seed)}
	if w.once != nil {
		for _, c := range w.once() {
			r.tally.op(r.check(c, c.run(r.e, -1, 0), nil))
			r.pinned++
		}
	}
	r.first = make([]outcome, len(r.cells))
	for i, c := range r.cells {
		r.first[i] = c.run(r.e, -1, 0)
		r.tally.op(r.check(c, r.first[i], nil))
		if c.Clean {
			r.pinned++
		}
	}
	return r, nil
}

// pass sweeps the cell list once. rec is nil for every end-to-end
// measurement; the traced run passes its recorder.
func (r *simRun) pass(rec *recorder) {
	r.e.rec = rec
	for i, c := range r.cells {
		op := rec.newOp()
		s := rec.begin(c.ID, -1, op, 0)
		out := c.run(r.e, s, op)
		rec.end(s)
		r.tally.op(r.check(c, out, &r.first[i]))
	}
	r.e.rec = nil
}

// passCounts sums the exact counters of one pass.
func (r *simRun) passCounts() counts {
	var c counts
	for _, o := range r.first {
		c.add(o.Counts)
	}
	return c
}

// inflationMax is the largest faulted/clean virtual-time ratio of the pass
// (0 when the workload has no faulted cells).
func (r *simRun) inflationMax() float64 {
	worst := 0.0
	for i, c := range r.cells {
		if clean, ok := r.e.exp.Cells[c.Baseline]; ok && clean.VTime > 0 {
			if x := float64(r.first[i].VTime) / float64(clean.VTime); x > worst {
				worst = x
			}
		}
	}
	return worst
}

// repeatSetup repeats set-up to take its median: at least 3 times, then
// until 1.5 s have been spent or 15 repetitions made. Only setUp is timed;
// tearDown releases what the previous repetition built.
func repeatSetup(smoke bool, setUp func() error, tearDown func()) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if err := setUp(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if smoke || len(secs) >= 15 || (len(secs) >= 3 && time.Since(start) > 1500*time.Millisecond) {
			return secs, nil
		}
		tearDown()
	}
}
