package sweep

import (
	"bytes"
	"runtime"
	"testing"

	"splapi/internal/bench"
)

// TestValidateRejectsNegatives: parallelism options are validated
// explicitly — a negative is always a caller bug, and silently treating
// it as "default" used to mask flag-plumbing mistakes.
func TestValidateRejectsNegatives(t *testing.T) {
	for _, o := range []Options{
		{Par: -1},
		{Shards: -2},
	} {
		if _, err := o.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", o)
		}
		if _, err := Run(bench.Experiment{ID: "x", Unit: "us"}, o); err == nil {
			t.Errorf("Run accepted %+v", o)
		}
	}
}

// TestValidateBudget pins the pool-sizing rule: the outer worker pool is
// scaled down so cells x shards stays within max(GOMAXPROCS, Par), with a
// floor of one.
func TestValidateBudget(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{
		{2, 4},
		{4, 2},
		{16, 1}, // floor
	} {
		o, want := Options{Par: 8, Shards: tc.shards}, tc.want
		if g := runtime.GOMAXPROCS(0); g > 8 {
			want = min(8, max(g/tc.shards, 1)) // a wide host raises the cap
		}
		got, err := o.Validate()
		if err != nil {
			t.Fatalf("Validate(%+v): %v", o, err)
		}
		if got != want {
			t.Errorf("Validate(%+v) = %d workers, want %d", o, got, want)
		}
	}
	// Defaults: a plain serial sweep keeps its full pool.
	got, err := Options{}.Validate()
	if err != nil || got != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero options resolved to %d workers (err %v), want GOMAXPROCS", got, err)
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
		{"stopping rule", Options{Seeds: 4, SeedsMax: 32, RelCIPct: 2}, true},
		{"negative seeds", Options{Seeds: -1}, false},
		{"negative seeds-max", Options{SeedsMax: -4}, false},
		{"negative rel-ci", Options{RelCIPct: -1}, false},
		{"negative par", Options{Par: -2}, false},
		{"negative shards", Options{Shards: -1}, false},
		{"seeds-max below seeds", Options{Seeds: 16, SeedsMax: 4, RelCIPct: 2}, false},
		{"seeds-max below default seeds=1 is fine", Options{SeedsMax: 1, RelCIPct: 2}, true},
		{"seeds-max without rel-ci", Options{Seeds: 4, SeedsMax: 32}, false},
		{"rel-ci without seeds-max", Options{Seeds: 4, RelCIPct: 2}, false},
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

// TestShardInvarianceArtifact is the harness-level half of the tentpole
// determinism property: sweeping a real registry experiment on 1, 2, and 3
// engine shards must serialize byte-identical artifacts. (The cluster
// package proves every partition's trace matches serially; this proves the
// persisted results can never reveal the shard count.)
func TestShardInvarianceArtifact(t *testing.T) {
	e, err := bench.FindExperiment("ablate-eager")
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, shards := range []int{1, 2, 3} {
		r, err := Run(e, Options{Seeds: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("shards=%d produced different artifact bytes than shards=1", shards)
		}
	}
}
