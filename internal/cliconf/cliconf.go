// Package cliconf is the shared command-line wiring for the simulator
// binaries (sweep, pingpong, nasrun, chaos, spsimd): machine preset,
// provider, fault plan, seed and trace flags are registered here once, so
// every command spells them the same way.
package cliconf

import (
	"flag"
	"fmt"
	"os/exec"
	"strings"

	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/tracelog"
)

// GitDescribe returns `git describe --always --dirty --tags` for result
// provenance, or "unknown" outside a repository.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// FaultFlags is the fault-injection flag group: the -faults plan spec.
type FaultFlags struct {
	spec *string
}

// Faults registers the fault-injection flag on fs.
func Faults(fs *flag.FlagSet) *FaultFlags {
	return &FaultFlags{spec: fs.String("faults", "", "fault plan: 'none', 'uniform:drop=P,dup=P,corrupt=P', a preset ("+
		strings.Join(faults.PresetNames(), ", ")+"), or '@plan.json'")}
}

// Plan resolves the flag into a fault plan.
func (f *FaultFlags) Plan() (faults.Plan, error) { return faults.Parse(*f.spec) }

// Spec returns the plan spec exactly as given, for provenance records; ""
// is a clean fabric.
func (f *FaultFlags) Spec() string { return *f.spec }

// MachineFlags is the machine-model flag group: cost-model preset plus
// the fault flags (faults are machine configuration).
type MachineFlags struct {
	preset *string
	Faults *FaultFlags
}

// Machine registers -machine and the fault-injection flags on fs.
func Machine(fs *flag.FlagSet) *MachineFlags {
	m := &MachineFlags{Faults: Faults(fs)}
	m.preset = fs.String("machine", "sp332", "machine cost model (sp332: 332MHz SMP + TBMX; sp160: 160MHz P2SC + TB3)")
	return m
}

// Params resolves the preset and fault plan into a full cost model.
func (m *MachineFlags) Params() (machine.Params, error) {
	var p machine.Params
	switch *m.preset {
	case "sp332":
		p = machine.SP332()
	case "sp160":
		p = machine.SP160()
	default:
		return p, fmt.Errorf("cliconf: unknown machine preset %q (want sp332 or sp160)", *m.preset)
	}
	plan, err := m.Faults.Plan()
	if err != nil {
		return p, err
	}
	p.Faults = plan
	return p, nil
}

// PaperParams is Params with the paper's experimental settings applied
// (eager limit 78 bytes, Section 6) — what the benchmark drivers use.
func (m *MachineFlags) PaperParams() (machine.Params, error) {
	p, err := m.Params()
	if err != nil {
		return p, err
	}
	p.EagerLimit = 78
	return p, nil
}

// Preset returns the selected machine preset name.
func (m *MachineFlags) Preset() string { return *m.preset }

// Seed registers the -seed flag on fs (default 1).
func Seed(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 1, "simulation seed (every run is deterministic per seed)")
}

// TraceFlags is the event-tracing flag group.
type TraceFlags struct {
	out *string
	cap int
}

// Trace registers the -trace flag on fs; cap is the ring capacity used
// when tracing is enabled (<= 0 means tracelog.DefaultCap).
func Trace(fs *flag.FlagSet, cap int) *TraceFlags {
	t := &TraceFlags{cap: cap}
	t.out = fs.String("trace", "", "write a Chrome trace-event file of the run (load in Perfetto)")
	return t
}

// Enabled reports whether -trace was given.
func (t *TraceFlags) Enabled() bool { return *t.out != "" }

// New returns a fresh event log, or nil when tracing is disabled (the
// nil log is the zero-overhead sink every layer accepts).
func (t *TraceFlags) New() *tracelog.Log {
	if !t.Enabled() {
		return nil
	}
	return tracelog.New(t.cap)
}

// Write exports tl as a Chrome trace-event file at the -trace path and
// returns a one-line summary for stdout.
func (t *TraceFlags) Write(tl *tracelog.Log) (string, error) {
	if err := tracelog.WriteChromeFile(*t.out, tl); err != nil {
		return "", err
	}
	return fmt.Sprintf("wrote %s (%d events, %d dropped)", *t.out, tl.Len(), tl.Dropped()), nil
}
