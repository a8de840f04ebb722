package cliconf

import (
	"flag"
	"strings"
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
			stacks, err := pf.Stacks(&par, false)
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

// TestCounterProviderRejectedUnderInterrupts: the interrupt-mode receiver
// (Section 6.1) makes no MPI calls and a CounterCompletions provider
// (Section 5.2) completes eager messages only inside them, so exactly that
// pairing is refused; every other provider runs with -interrupts, and every
// provider without it. raw-lapi, which has no interrupt-mode receiver, is
// refused too.
func TestCounterProviderRejectedUnderInterrupts(t *testing.T) {
	rejected := 0
	for _, f := range mpci.Providers() {
		for _, interrupts := range []bool{false, true} {
			fs := newFS()
			m, pf := Machine(fs), Provider(fs, false)
			if err := fs.Parse([]string{"-provider", f.Name}); err != nil {
				t.Fatal(err)
			}
			par, err := m.Params()
			if err != nil {
				t.Fatal(err)
			}
			stacks, err := pf.Stacks(&par, interrupts)
			if f.Caps.CounterCompletions && interrupts {
				rejected++
				if err == nil || !strings.Contains(err.Error(), "Section 5.2") || !strings.Contains(err.Error(), "Section 6.1") {
					t.Errorf("-provider %s -interrupts = %v, %v, want an error naming Sections 5.2 and 6.1", f.Name, stacks, err)
				}
			} else if err != nil || len(stacks) != 1 || stacks[0].String() != f.Name {
				t.Errorf("-provider %s interrupts=%v = %v, %v", f.Name, interrupts, stacks, err)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no registered provider completes by counters: the rejection is untested")
	}
	// raw-lapi (Section 5.1) has no interrupt-mode receiver at all.
	for _, interrupts := range []bool{false, true} {
		fs := newFS()
		m, pf := Machine(fs), Provider(fs, true)
		if err := fs.Parse([]string{"-provider", "raw-lapi"}); err != nil {
			t.Fatal(err)
		}
		par, err := m.Params()
		if err != nil {
			t.Fatal(err)
		}
		stacks, err := pf.Stacks(&par, interrupts)
		if interrupts && (err == nil || !strings.Contains(err.Error(), "Section 6.1")) {
			t.Errorf("-provider raw-lapi -interrupts = %v, %v, want an error naming Section 6.1", stacks, err)
		} else if !interrupts && (err != nil || len(stacks) != 1 || stacks[0] != "raw-lapi") {
			t.Errorf("-provider raw-lapi = %v, %v", stacks, err)
		}
	}
}
