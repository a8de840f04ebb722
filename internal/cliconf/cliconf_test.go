package cliconf

import (
	"flag"
	"testing"

	"splapi/internal/mpci"
)

func newFS() *flag.FlagSet {
	return flag.NewFlagSet("test", flag.ContinueOnError)
}

func TestFaultFlagsDefaultsToCleanFabric(t *testing.T) {
	fs := newFS()
	ff := Faults(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	plan, err := ff.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Fatalf("no flags should mean an empty plan, got %v", plan)
	}
	if ff.Spec() != "" {
		t.Fatalf("Spec() = %q, want empty", ff.Spec())
	}
}

func TestFaultFlagsPreset(t *testing.T) {
	fs := newFS()
	ff := Faults(fs)
	if err := fs.Parse([]string{"-faults", "burst-loss"}); err != nil {
		t.Fatal(err)
	}
	plan, err := ff.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "burst-loss" || plan.Empty() {
		t.Fatalf("preset plan = %v", plan)
	}
	if ff.Spec() != "burst-loss" {
		t.Fatalf("Spec = %q", ff.Spec())
	}
}

func TestMachineFlags(t *testing.T) {
	fs := newFS()
	m := Machine(fs)
	if err := fs.Parse([]string{"-machine", "sp160", "-faults", "corruptor"}); err != nil {
		t.Fatal(err)
	}
	p, err := m.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults.Name != "corruptor" {
		t.Fatalf("Params().Faults.Name = %q", p.Faults.Name)
	}
	pp, err := m.PaperParams()
	if err != nil {
		t.Fatal(err)
	}
	if pp.EagerLimit != 78 {
		t.Fatalf("PaperParams().EagerLimit = %d, want 78", pp.EagerLimit)
	}
}

func TestMachineFlagsUnknownPreset(t *testing.T) {
	fs := newFS()
	m := Machine(fs)
	if err := fs.Parse([]string{"-machine", "sp9000"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Params(); err == nil {
		t.Fatal("unknown machine preset must error")
	}
}

func TestSeedDefault(t *testing.T) {
	fs := newFS()
	seed := Seed(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *seed != 1 {
		t.Fatalf("default seed = %d, want 1", *seed)
	}
}

func TestSweepParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    SweepParams
		ok   bool
	}{
		{"zero value", SweepParams{}, true},
		{"plain seeds", SweepParams{Seeds: 16}, true},
		{"stopping rule", SweepParams{Seeds: 4, SeedsMax: 32, RelCIPct: 2}, true},
		{"shards within budget", SweepParams{Shards: 2, WorkerBudget: 8}, true},
		{"shards equal budget", SweepParams{Shards: 4, WorkerBudget: 4}, true},
		{"negative seeds", SweepParams{Seeds: -1}, false},
		{"negative seeds-max", SweepParams{SeedsMax: -4}, false},
		{"negative rel-ci", SweepParams{RelCIPct: -1}, false},
		{"negative par", SweepParams{Par: -2}, false},
		{"negative shards", SweepParams{Shards: -1}, false},
		{"negative budget", SweepParams{WorkerBudget: -1}, false},
		{"seeds-max below seeds", SweepParams{Seeds: 16, SeedsMax: 4, RelCIPct: 2}, false},
		{"seeds-max below default seeds=1 is fine", SweepParams{SeedsMax: 1, RelCIPct: 2}, true},
		{"seeds-max without rel-ci", SweepParams{Seeds: 4, SeedsMax: 32}, false},
		{"rel-ci without seeds-max", SweepParams{Seeds: 4, RelCIPct: 2}, false},
		{"shards over budget", SweepParams{Shards: 8, WorkerBudget: 4}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate(%+v) = %v, want nil", tc.p, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Validate(%+v) = nil, want error", tc.p)
			}
		})
	}
}

func TestTraceFlags(t *testing.T) {
	fs := newFS()
	tr := Trace(fs, 1<<10)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() || tr.New() != nil {
		t.Fatal("trace must be disabled by default and New() must return the nil sink")
	}
}

// TestProviderRejectedByCapabilityOnSP160: -provider is contradictory with
// -machine exactly when the registered capability set needs memory
// registration the generation lacks; every other pairing resolves to the
// named stack.
func TestProviderRejectedByCapabilityOnSP160(t *testing.T) {
	rejected := 0
	for _, f := range mpci.Providers() {
		for _, preset := range []string{"sp332", "sp160"} {
			fs := newFS()
			m, pf := Machine(fs), Provider(fs, false)
			if err := fs.Parse([]string{"-machine", preset, "-provider", f.Name}); err != nil {
				t.Fatal(err)
			}
			par, err := m.Params()
			if err != nil {
				t.Fatal(err)
			}
			stacks, err := pf.Stacks(&par)
			if wantErr := f.Caps.ZeroCopyRendezvous && preset == "sp160"; wantErr {
				rejected++
				if err == nil {
					t.Errorf("-provider %s -machine %s resolved to %v, want a contradictory-flags error", f.Name, preset, stacks)
				}
			} else if err != nil || len(stacks) != 1 || stacks[0].String() != f.Name {
				t.Errorf("-provider %s -machine %s = %v, %v", f.Name, preset, stacks, err)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no registered provider needs memory registration: the rejection is untested")
	}
}
