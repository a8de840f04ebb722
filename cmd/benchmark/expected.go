package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"splapi/internal/bench"
	"splapi/internal/sweep"
)

// expectedJSON pins the virtual-time results of every cell. Virtual time is
// deterministic, so here it is a correctness output: any drift from these
// values is a failed operation, not a slower one.
//
//go:embed expected.json
var expectedJSON []byte

const expectedSchema = "benchmark-expected/v1"

type expected struct {
	Schema string `json:"schema"`
	// Cells holds every clean cell (valid under any seed) and the faulted
	// cells of seed 1.
	Cells map[string]outcome `json:"cells"`
	// Campaigns holds, per experiment the service workloads submit, the
	// median of every point ("series|x"). Clean cells are seed-invariant,
	// so any baseSeed must serve exactly these.
	Campaigns map[string]map[string]float64 `json:"campaigns"`
}

func loadExpected() (*expected, error) {
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	if exp.Schema != expectedSchema {
		return nil, fmt.Errorf("expected.json: schema %q, want %q (run -update-expected)", exp.Schema, expectedSchema)
	}
	return &exp, nil
}

func pointKey(series string, x int) string { return fmt.Sprintf("%s|%d", series, x) }

// campaignExperiments are the experiments the service workloads request.
var campaignExperiments = []string{"fig11", "ablate-ctxswitch"}

// updateExpected recomputes every pinned value at seed 1 and writes
// expected.json into dir. It refuses to write if a pinned point that
// coincides with a committed sweep artifact under repo disagrees with that
// artifact's median: the benchmark's own cell bodies must reproduce the
// figures bit for bit.
func updateExpected(dir, repo string) error {
	exp := &expected{Schema: expectedSchema, Cells: map[string]outcome{}, Campaigns: map[string]map[string]float64{}}
	artifacts := map[string]*sweep.Result{}
	median := func(ref artifactRef) (float64, error) {
		res := artifacts[ref.File]
		if res == nil {
			var err error
			if res, err = sweep.Load(filepath.Join(repo, ref.File)); err != nil {
				return 0, err
			}
			artifacts[ref.File] = res
		}
		for _, p := range res.Points {
			if p.Series == ref.Series && p.X == ref.X {
				return p.Stats.Median, nil
			}
		}
		return 0, fmt.Errorf("%s has no point (%s, %d)", ref.File, ref.Series, ref.X)
	}

	e := newEnv(1, exp)
	var cells []cell
	cells = append(cells, chaosCleanCells()...) // first: faulted cells gate on them
	for _, w := range simWorkloads {
		cells = append(cells, w.cells(1)...)
	}
	checked := 0
	for _, c := range cells {
		out := c.run(e, -1, 0)
		if out.bad != "" {
			return fmt.Errorf("cell %s failed its own verification: %s", c.ID, out.bad)
		}
		if again := c.run(e, -1, 0); !again.same(out) {
			return fmt.Errorf("cell %s is not reproducible: %+v then %+v", c.ID, out, again)
		}
		if c.Ref != nil {
			want, err := median(*c.Ref)
			if err != nil {
				return err
			}
			if out.Value != want {
				return fmt.Errorf("cell %s = %v, but %s (%s, %d) median = %v", c.ID, out.Value, c.Ref.File, c.Ref.Series, c.Ref.X, want)
			}
			checked++
		}
		exp.Cells[c.ID] = out
	}
	for _, id := range campaignExperiments {
		ex, err := bench.FindExperiment(id)
		if err != nil {
			return err
		}
		pts := map[string]float64{}
		for _, c := range ex.Cells {
			v := c.Run(bench.RunSpec{Seed: 1}).Value
			want, err := median(artifactRef{"BENCH_" + id + ".json", c.Series, c.X})
			if err != nil {
				return err
			}
			if v != want {
				return fmt.Errorf("%s (%s, %d) = %v, committed median = %v", id, c.Series, c.X, v, want)
			}
			checked++
			pts[pointKey(c.Series, c.X)] = v
		}
		exp.Campaigns[id] = pts
	}
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "expected.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d cells, %d campaign experiments; %d points agree with committed artifacts at tolerance 0\n",
		path, len(exp.Cells), len(exp.Campaigns), checked)
	return nil
}
