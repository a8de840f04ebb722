package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"splapi/internal/bench"
	"splapi/internal/sweep"
)

const committed = "../../BENCH_fig10.json"

// TestCompareExitCodes holds the regression gate's exit contract on a
// committed artifact: a file compared with itself at tolerance 0 exits 0,
// a copy with one point slower exits 1, and a flag the command does not
// have exits 2 before anything is compared.
func TestCompareExitCodes(t *testing.T) {
	res, err := sweep.Load(committed)
	if err != nil {
		t.Fatal(err)
	}
	// Fig10 is a latency: lower is better, so one microsecond more on
	// every repetition of the first point is a regression. Its
	// repetitions all agree, so the point is its Stats alone.
	p := &res.Points[0]
	if p.Samples != nil {
		t.Fatalf("committed point %s/%d stores samples; want one number", p.Series, p.X)
	}
	slower := make([]float64, p.Stats.N)
	for i := range slower {
		slower[i] = p.Stats.Median + 1
	}
	p.Stats = bench.Summarize(slower)
	moved := filepath.Join(t.TempDir(), "BENCH_fig10_moved.json")
	if err := sweep.Save(moved, res); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		args    []string
		code    int
		mention string // substring of stdout (exit 0, 1) or stderr (exit 2)
	}{
		{"self", []string{"-compare", committed, committed, "-tol", "0"}, 0, "no regressions"},
		{"one median moved", []string{"-compare", committed, moved, "-tol", "0"}, 1, "1 regression(s)"},
		{"bad flag", []string{"-compare", committed, committed, "-tolerance", "0"}, 2, "-tolerance"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.code, stdout.String(), stderr.String())
			continue
		}
		out := stdout.String()
		if tc.code == 2 {
			out = stderr.String()
		}
		if !strings.Contains(out, tc.mention) {
			t.Errorf("%s: output %q does not mention %q", tc.name, out, tc.mention)
		}
	}
}
