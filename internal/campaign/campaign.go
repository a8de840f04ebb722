// Package campaign is the core of the simulation-as-a-service layer: a
// typed description of one sweep campaign, its validation, its canonical
// content-addressed digest, and a runner that executes it through
// internal/sweep to a deterministic sweep/v3 artifact.
//
// The digest is what makes the service's cache *exact* rather than
// heuristic: every field that can move a result — experiment, seed plan,
// fault plan, code version — is folded into a canonical JSON payload and
// hashed, and everything that cannot (worker-pool size,
// progress callbacks) is deliberately excluded. Because the
// simulator is deterministic per (request, code version), two requests
// with equal digests are guaranteed to produce byte-identical artifacts,
// so N identical queries cost one simulation and a cache hit is
// indistinguishable from a cold run.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"splapi/internal/bench"
	"splapi/internal/faults"
	"splapi/internal/sweep"
)

// Kind names the campaign type. Sweep is the only one; the field stays on
// the wire so a request states what it asks for.
type Kind string

// Sweep runs a full experiment matrix through internal/sweep and yields a
// sweep/v3 JSON artifact.
const Sweep Kind = "sweep"

// Request describes one campaign (see sweep.Options for the knobs). The
// zero value of every optional field means its default; Canonicalize
// resolves the defaults so that two spellings of the same work digest
// identically.
type Request struct {
	Kind Kind `json:"kind"`

	// Experiment names a registry experiment.
	Experiment string `json:"experiment,omitempty"`

	Seeds    int   `json:"seeds,omitempty"`
	BaseSeed int64 `json:"baseSeed,omitempty"`
	// Faults is a fault-plan spec in the faults.Parse grammar, less its
	// @file spelling: a service opens no file a client names. The digest
	// is computed over the *parsed* plan, so equivalent spellings share a
	// cache entry.
	Faults string `json:"faults,omitempty"`
}

// keySchema tags the digest payload layout; bump it whenever the payload
// shape changes so stale cache entries can never be addressed again.
const keySchema = "spsimd-key/v1"

// keyPayload is the canonical digest input: the normalized request with
// its fault-plan spec replaced by the parsed Plan (JSON round-trip
// canonical form) plus the code version. Field order is fixed by the
// struct, so json.Marshal of this value is a canonical encoding.
type keyPayload struct {
	Schema     string       `json:"schema"`
	Code       string       `json:"code"`
	Kind       Kind         `json:"kind"`
	Experiment string       `json:"experiment,omitempty"`
	Seeds      int          `json:"seeds,omitempty"`
	BaseSeed   int64        `json:"baseSeed,omitempty"`
	Plan       *faults.Plan `json:"plan,omitempty"`
}

// Canonicalize validates the request and resolves every default to its
// explicit value, so that spellings of the same work ("seeds omitted" vs
// "seeds: 1") normalize to one representative. Digest must only be
// computed over a canonicalized request.
func Canonicalize(req Request) (Request, error) {
	if req.Kind != Sweep {
		return req, fmt.Errorf("campaign: unknown kind %q (the only campaign kind is %q)", req.Kind, Sweep)
	}
	if req.Experiment == "" {
		return req, fmt.Errorf("campaign: sweep request needs an experiment (see /v1/experiments)")
	}
	e, err := bench.FindExperiment(req.Experiment)
	if err != nil {
		return req, err
	}
	req.Experiment = e.ID
	if _, err := (sweep.Options{Seeds: req.Seeds}).Validate(); err != nil {
		return req, err
	}
	req.Faults = strings.TrimSpace(req.Faults)
	if strings.HasPrefix(req.Faults, "@") {
		return req, fmt.Errorf("campaign: faults %q: a campaign names a preset or a uniform: spec; @file plans are read only by the command-line tools", req.Faults)
	}
	if _, err := faults.Parse(req.Faults); err != nil {
		return req, err
	}
	if req.Seeds <= 0 {
		req.Seeds = 1
	}
	if req.BaseSeed == 0 {
		req.BaseSeed = 1
	}
	return req, nil
}

// Digest returns the canonical content address of a request under one
// code version: the hex SHA-256 of the canonical key payload. The request
// must already be canonicalized; Digest re-canonicalizes defensively so a
// raw request can never silently address a different cache entry than its
// canonical form.
func Digest(req Request, code string) (string, error) {
	req, err := Canonicalize(req)
	if err != nil {
		return "", err
	}
	pay := keyPayload{
		Schema:     keySchema,
		Code:       code,
		Kind:       req.Kind,
		Experiment: req.Experiment,
		Seeds:      req.Seeds,
		BaseSeed:   req.BaseSeed,
	}
	// The fault-plan spec digests as its parsed plan: the JSON round-trip
	// is the canonical form (omitted selectors default to -1 on the way
	// in, field order is fixed by the struct on the way out), so two
	// spellings of one plan — "uniform" and "none", or "uniform:drop=0.01"
	// and "uniform:drop=1e-2,dup=0" — share a digest.
	if req.Faults != "" {
		p, err := faults.Parse(req.Faults)
		if err != nil {
			return "", err
		}
		if !p.Empty() {
			pay.Plan = &p
		}
	}
	b, err := json.Marshal(pay)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Runner executes canonicalized requests into deterministic byte
// artifacts. The execution knobs here are host policy — they shape
// wall-clock cost, never result bytes — which is exactly why they live on
// the runner and not in the request or its digest.
type Runner struct {
	// Git is the code version recorded in artifacts; it must equal the
	// code component of the digests the artifacts are cached under.
	Git string
	// Par sizes the sweep worker pool per campaign (see sweep.Options);
	// zero means GOMAXPROCS.
	Par int
}

// Run executes one canonicalized request and returns its sweep/v3 JSON
// artifact, reporting each completed repetition to progress (which may be
// nil). The bytes are a pure function of (request, Git) — the property the
// exact cache rests on. Cancellation drains in-flight work and returns
// the context error; a canceled campaign never yields partial bytes.
func (r *Runner) Run(ctx context.Context, req Request, progress func(sweep.Progress)) ([]byte, error) {
	e, err := bench.FindExperiment(req.Experiment)
	if err != nil {
		return nil, err
	}
	res, err := sweep.RunCtx(ctx, e, sweep.Options{
		Seeds: req.Seeds, BaseSeed: req.BaseSeed, Faults: req.Faults,
		GitDescribe: r.Git,
		Par:         r.Par,
		Progress:    progress,
	})
	if err != nil {
		return nil, err
	}
	return sweep.Encode(res)
}

// ExperimentInfo is the registry listing entry the service exposes.
type ExperimentInfo struct {
	ID        string `json:"id"`
	Title     string `json:"title"`
	Unit      string `json:"unit"`
	Direction string `json:"direction"`
	Cells     int    `json:"cells"`
}

// ListExperiments snapshots the bench experiment registry.
func ListExperiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range bench.Experiments() {
		out = append(out, ExperimentInfo{
			ID: e.ID, Title: e.Title, Unit: e.Unit, Direction: string(e.Direction), Cells: len(e.Cells),
		})
	}
	return out
}
