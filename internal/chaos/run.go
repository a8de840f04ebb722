package chaos

import (
	"context"
	"fmt"

	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/trace"
)

// RunResult is one (workload, seed) verdict under one plan — the
// "chaos/v1" per-run record.
type RunResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// CleanVTimeNs / FaultVTimeNs are the virtual completion times without
	// and with the plan; Inflation is their ratio.
	CleanVTimeNs int64   `json:"cleanVtimeNs"`
	FaultVTimeNs int64   `json:"faultVtimeNs"`
	Inflation    float64 `json:"inflation"`
	// Digest is the faulted run's payload digest (hex); it must equal the
	// clean run's.
	Digest   string         `json:"digest"`
	Counters trace.Counters `json:"counters"`
	// Failures lists every gate the run failed; empty means pass.
	Failures []string `json:"failures,omitempty"`
}

// Pass reports whether every gate held.
func (r *RunResult) Pass() bool { return len(r.Failures) == 0 }

// PlanResult aggregates one plan across the workload × seed matrix.
type PlanResult struct {
	Plan         string      `json:"plan"`
	MaxInflation float64     `json:"maxInflation"`
	Runs         []RunResult `json:"runs"`
	Pass         bool        `json:"pass"`
}

// Result is the persisted "chaos/v1" artifact.
type Result struct {
	Schema string       `json:"schema"`
	Git    string       `json:"git"`
	Seeds  []int64      `json:"seeds"`
	Plans  []PlanResult `json:"plans"`
	Pass   bool         `json:"pass"`
}

// Options configures a harness run.
type Options struct {
	Plans     []string // plan specs (presets, uniform:..., @file.json)
	Seeds     []int64
	Workloads []Workload // nil means Workloads()
	Git       string
	// Verbose receives one line per run when non-nil.
	Verbose func(format string, args ...any)
}

// Run executes the full gate matrix: for every plan × workload × seed it
// compares a faulted run against the clean baseline (payload digest,
// completion, inflation) and against an identical rerun (bit-exact
// virtual time, digest, and counters).
func Run(o Options) (*Result, error) {
	return RunCtx(context.Background(), o)
}

// RunCtx is Run under a cancellation context, checked between runs: the
// (workload, seed) run in flight completes — a run is an indivisible
// deterministic universe — and RunCtx then returns the context's error
// instead of a Result, so a canceled harness never emits a partial
// verdict matrix.
func RunCtx(ctx context.Context, o Options) (*Result, error) {
	wls := o.Workloads
	if wls == nil {
		wls = Workloads()
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2}
	}
	logf := o.Verbose
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{Schema: "chaos/v1", Git: o.Git, Seeds: o.Seeds, Pass: true}

	// Clean baselines are plan-independent; run each (workload, seed) once.
	type key struct {
		wl   string
		seed int64
	}
	clean := make(map[key]Outcome)
	for _, wl := range wls {
		for _, seed := range o.Seeds {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("chaos: canceled, partial results discarded: %w", err)
			}
			out := wl.Run(machine.SP332(), seed)
			clean[key{wl.Name, seed}] = out
			logf("clean    %-18s seed=%-3d vt=%.3fms digest=%016x ok=%v",
				wl.Name, seed, float64(out.VTime)/1e6, out.Digest, out.Ok)
		}
	}

	for _, spec := range o.Plans {
		plan, err := faults.Parse(spec)
		if err != nil {
			return nil, err
		}
		if plan.Empty() {
			return nil, fmt.Errorf("chaos: plan %q is empty — the harness gates faulted runs against clean ones", spec)
		}
		pr := PlanResult{Plan: spec, MaxInflation: MaxInflation(spec), Pass: true}
		for _, wl := range wls {
			for _, seed := range o.Seeds {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("chaos: canceled, partial results discarded: %w", err)
				}
				base := clean[key{wl.Name, seed}]
				par := machine.SP332()
				par.Faults = plan
				faulted := wl.Run(par, seed)
				rerun := wl.Run(par, seed)

				rr := RunResult{
					Workload:     wl.Name,
					Seed:         seed,
					CleanVTimeNs: int64(base.VTime),
					FaultVTimeNs: int64(faulted.VTime),
					Digest:       fmt.Sprintf("%016x", faulted.Digest),
					Counters:     faulted.Counters,
				}
				if base.VTime > 0 {
					rr.Inflation = float64(faulted.VTime) / float64(base.VTime)
				}
				fail := func(format string, args ...any) {
					rr.Failures = append(rr.Failures, fmt.Sprintf(format, args...))
				}
				if !base.Ok {
					fail("clean run failed its own verification")
				}
				if !faulted.Ok {
					fail("faulted run incomplete or payload-corrupt (deadlock or verification failure)")
				}
				if faulted.Digest != base.Digest {
					fail("payload digest %016x != clean %016x", faulted.Digest, base.Digest)
				}
				if rr.Inflation > pr.MaxInflation {
					fail("completion inflated %.1fx > bound %.0fx", rr.Inflation, pr.MaxInflation)
				}
				if rerun.VTime != faulted.VTime || rerun.Digest != faulted.Digest || rerun.Counters != faulted.Counters {
					fail("same-seed rerun diverged: vt %d vs %d, digest %016x vs %016x",
						rerun.VTime, faulted.VTime, rerun.Digest, faulted.Digest)
				}
				verdict := "pass"
				if !rr.Pass() {
					verdict = "FAIL " + rr.Failures[0]
					pr.Pass = false
					res.Pass = false
				}
				logf("%-8s %-18s seed=%-3d vt=%.3fms (%.1fx) rtx=%d timeouts=%d %s",
					spec, wl.Name, seed, float64(faulted.VTime)/1e6, rr.Inflation,
					faulted.Counters.Retransmits, faulted.Counters.Timeouts, verdict)
				pr.Runs = append(pr.Runs, rr)
			}
		}
		res.Plans = append(res.Plans, pr)
	}
	return res, nil
}
