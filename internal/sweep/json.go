package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// SchemaV2 tags result files written by this version: median-based CIs
// with a recorded construction method, raw per-repetition samples, a
// declared regression direction, and the per-series variance
// decomposition. Load rejects everything else,
// schema-less pre-v2 files included.
const SchemaV2 = "sweep/v2"

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

// Load reads a result file written by Save. A field Result does not have
// is an error, so a file carrying knobs this version no longer models is
// refused rather than compared as if it had run without them.
func Load(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	if r.Schema != SchemaV2 {
		return nil, fmt.Errorf("sweep: %s: unsupported schema %q (want %q)", path, r.Schema, SchemaV2)
	}
	if r.Experiment == "" || len(r.Points) == 0 {
		return nil, fmt.Errorf("sweep: %s: not a sweep result file", path)
	}
	return &r, nil
}
