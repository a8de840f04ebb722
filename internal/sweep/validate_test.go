package sweep

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"splapi/internal/bench"
)

// TestValidateRejectsNegatives: parallelism options are validated
// explicitly — a negative is always a caller bug, and silently treating
// it as "default" used to mask flag-plumbing mistakes.
func TestValidateRejectsNegatives(t *testing.T) {
	for _, o := range []Options{
		{Par: -1},
	} {
		if _, err := o.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", o)
		}
		if _, err := Run(bench.Experiment{ID: "x", Unit: "us", Direction: bench.LowerIsBetter}, o); err == nil {
			t.Errorf("Run accepted %+v", o)
		}
	}
}

// TestRunRequiresDirection: an experiment declares which way is better,
// and RunCtx rejects one that declares none or an unknown one rather than
// guess a direction from the unit.
func TestRunRequiresDirection(t *testing.T) {
	for _, d := range []bench.Direction{"", "sideways"} {
		e := syntheticExperiment(1)
		e.Direction = d
		if _, err := RunCtx(context.Background(), e, Options{}); err == nil || !strings.Contains(err.Error(), "direction") {
			t.Errorf("RunCtx(direction %q) = %v, want a direction error", d, err)
		}
	}
}

// TestValidateBudget pins the pool-sizing rule: Par workers, or GOMAXPROCS
// when Par is 0.
func TestValidateBudget(t *testing.T) {
	for _, tc := range []struct{ par, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{3, 3},
	} {
		got, err := Options{Par: tc.par}.Validate()
		if err != nil || got != tc.want {
			t.Errorf("Validate(Par: %d) = %d workers (err %v), want %d", tc.par, got, err, tc.want)
		}
	}
}

// TestOptionsValidate is the table for the one sweep-request validator
// (every case of the retired cliconf-level table but its worker-budget rows).
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"plain seeds", Options{Seeds: 16}, true},
		{"negative seeds", Options{Seeds: -1}, false},
		{"negative par", Options{Par: -2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workers, err := tc.o.Validate()
			if tc.ok && (err != nil || workers < 1) {
				t.Fatalf("Validate(%+v) = %d, %v, want a pool and no error", tc.o, workers, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", tc.o)
			}
		})
	}
}
