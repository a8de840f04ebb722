package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"splapi/internal/bench"
)

// SchemaV3 tags result files written by this version: median-based CIs
// with a recorded construction method, a declared regression direction,
// and raw per-repetition samples only for points whose repetitions
// differ; a point whose repetitions all agree is the one number in its
// stats. Load rejects everything else, earlier schemas included.
const SchemaV3 = "sweep/v3"

// Encode renders a result as indented JSON. Field order follows the struct
// declaration and float formatting is Go's shortest-roundtrip form, so the
// bytes are a pure function of the result: the same sweep produces the
// identical artifact on every run, at any worker count.
func Encode(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Save writes the result to path (conventionally BENCH_<experiment>.json).
func Save(path string, r *Result) error {
	b, err := Encode(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a result file written by Save; see Decode.
func Load(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return r, nil
}

// Decode parses an artifact, which comes from disk or over HTTP and so is
// input from outside the program. It refuses a field Result does not have
// (a knob this version no longer models), and whatever breaks what Run
// guarantees and Compare relies on: a declared direction, one point per
// (series, x) summarizing n = Seeds >= 1 repetitions, and n samples
// whenever any are stored or they differ.
func Decode(b []byte) (*Result, error) {
	var r Result
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if r.Schema != SchemaV3 {
		return nil, fmt.Errorf("unsupported schema %q (want %q)", r.Schema, SchemaV3)
	}
	if r.Experiment == "" || len(r.Points) == 0 {
		return nil, fmt.Errorf("not a sweep result file")
	}
	if _, err := bench.ParseDirection(r.Direction); err != nil {
		return nil, err
	}
	seen := make(map[[2]any]bool, len(r.Points))
	for _, p := range r.Points {
		k := [2]any{p.Series, p.X}
		if seen[k] {
			return nil, fmt.Errorf("point %s x=%d appears twice", p.Series, p.X)
		}
		seen[k] = true
		if n := p.Stats.N; n < 1 || n != r.Seeds || (p.Samples != nil || p.Stats.Min != p.Stats.Max) && len(p.Samples) != n {
			return nil, fmt.Errorf("point %s x=%d: n = %d with %d samples (min %v, max %v) in a %d-seed sweep; want n = seeds >= 1, and n samples if any are stored or min != max",
				p.Series, p.X, n, len(p.Samples), p.Stats.Min, p.Stats.Max, r.Seeds)
		}
	}
	return &r, nil
}
