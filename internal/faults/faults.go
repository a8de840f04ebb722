// Package faults is the scripted fault-injection subsystem: a
// deterministic, virtual-time-driven description of what goes wrong on
// the fabric and the adapters, consumed by switchnet (drop / duplicate /
// corrupt / route down), adapter (receive-DMA stalls) and hal (CRC
// verification of corrupted payloads).
//
// A Plan is pure data — JSON round-trippable, comparable, buildable from
// a preset name or a flag spec (see Parse) — and carries no engine state.
// The engine-facing half is the Injector compiled from a Plan: every
// probabilistic decision draws from sim.Engine.Rand(), the engine's one
// deterministic RNG stream, so a (seed, plan) pair fully determines a
// run. An empty plan compiles to a nil Injector whose methods are no-ops
// that consume no randomness: the fault-free fabric stays bit-identical
// to a build without this package.
package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"splapi/internal/sim"
)

// Kind names one fault mechanism.
type Kind string

const (
	// Drop discards a matching packet with probability Prob.
	Drop Kind = "drop"
	// Dup injects a second copy of a matching packet with probability
	// Prob (the copy takes its own trip through the switch).
	Dup Kind = "dup"
	// Corrupt flips one payload byte of a matching packet with
	// probability Prob. The HAL boundary CRC check catches it and the
	// packet is dropped there — detected, never silently delivered.
	Corrupt Kind = "corrupt"
	// LinkDown takes route Route of the matching ordered pair out of
	// service for the rule's window; the fabric fails matching packets
	// over to the remaining routes. Scripted, not probabilistic.
	LinkDown Kind = "linkdown"
	// Stall freezes the receive DMA engine of node Dst for the rule's
	// window (an adapter that stops draining the wire); packets arriving
	// during the window are DMAed only when it ends. Scripted.
	Stall Kind = "stall"
)

// Forever is far enough in virtual time to outlast any experiment; it is
// the effective end of an open-ended window.
const Forever = sim.Time(math.MaxInt64 / 4)

// Rule is one scripted fault. Its window is [From, Until); Until == 0
// means open-ended. If Period > 0 the window repeats: the rule is active
// during [From+k*Period, From+k*Period+(Until-From)) for k = 0, 1, ...
//
// Src, Dst and Route select traffic: -1 (the JSON default when a field
// is omitted) matches anything. Stall rules select the stalled node with
// Dst. Prob is only meaningful for the probabilistic kinds (drop, dup,
// corrupt); linkdown and stall are fully scripted and never draw
// randomness.
type Rule struct {
	Kind   Kind     `json:"kind"`
	From   sim.Time `json:"from,omitempty"`
	Until  sim.Time `json:"until,omitempty"`
	Period sim.Time `json:"period,omitempty"`
	Src    int      `json:"src"`
	Dst    int      `json:"dst"`
	Route  int      `json:"route"`
	Prob   float64  `json:"prob,omitempty"`
}

// UnmarshalJSON defaults the selector fields to -1 (match anything) so a
// hand-written plan can omit them; node 0 must be selected explicitly. An
// unknown key is an error: a misspelled "prob" would otherwise leave a
// rule that never fires.
func (r *Rule) UnmarshalJSON(data []byte) error {
	type alias Rule
	a := alias{Src: -1, Dst: -1, Route: -1}
	if err := decodeStrict(data, &a); err != nil {
		return err
	}
	*r = Rule(a)
	return nil
}

// decodeStrict is json.Unmarshal that also rejects keys v has no field
// for. A custom UnmarshalJSON does not inherit its caller's decoder
// settings, so Rule's must ask again.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// activeAt reports whether the rule's window covers virtual time t.
func (r *Rule) activeAt(t sim.Time) bool {
	if t < r.From {
		return false
	}
	if r.Period > 0 {
		dur := r.Until - r.From
		if dur <= 0 {
			return false
		}
		return (t-r.From)%r.Period < dur
	}
	return r.Until <= 0 || t < r.Until
}

// windowEnd returns the end of the active window covering t. It must
// only be called when activeAt(t) is true.
func (r *Rule) windowEnd(t sim.Time) sim.Time {
	if r.Period > 0 {
		k := (t - r.From) / r.Period
		return r.From + k*r.Period + (r.Until - r.From)
	}
	if r.Until <= 0 {
		return Forever
	}
	return r.Until
}

// matches reports whether the rule selects traffic from src to dst.
func (r *Rule) matches(src, dst int) bool {
	return (r.Src == -1 || r.Src == src) && (r.Dst == -1 || r.Dst == dst)
}

// matchesRoute reports whether the rule selects route route of the pair.
func (r *Rule) matchesRoute(route int) bool {
	return r.Route == -1 || r.Route == route
}

// Plan is a complete fault script: what goes wrong, where, and when, in
// virtual time. The zero value is the clean fabric. Plans are pure
// configuration — they can live on machine.Params, in JSON files, and in
// test tables — and are compiled into an Injector per engine.
type Plan struct {
	Name  string `json:"name,omitempty"`
	Rules []Rule `json:"rules,omitempty"`
}

// Empty reports whether the plan injects nothing (the clean fabric).
func (p Plan) Empty() bool { return len(p.Rules) == 0 }

// String renders a short human-readable description for reports.
func (p Plan) String() string {
	if p.Empty() {
		return "none"
	}
	if p.Name != "" {
		return fmt.Sprintf("%s (%d rules)", p.Name, len(p.Rules))
	}
	return fmt.Sprintf("%d rules", len(p.Rules))
}

// Uniform is the compatibility shim for the old DropProb/DupProb knobs:
// an always-active, every-pair plan dropping each packet with
// probability drop and duplicating it with probability dup. The compiled
// injector draws randomness in exactly the order the old fabric did
// (drop before transit, dup after), so uniform-drop sweeps regenerate
// bit-identically through the new API.
func Uniform(drop, dup float64) Plan {
	return uniformPlan(drop, dup, 0)
}

func uniformPlan(drop, dup, corrupt float64) Plan {
	var rules []Rule
	if drop > 0 {
		rules = append(rules, Rule{Kind: Drop, Src: -1, Dst: -1, Route: -1, Prob: drop})
	}
	if dup > 0 {
		rules = append(rules, Rule{Kind: Dup, Src: -1, Dst: -1, Route: -1, Prob: dup})
	}
	if corrupt > 0 {
		rules = append(rules, Rule{Kind: Corrupt, Src: -1, Dst: -1, Route: -1, Prob: corrupt})
	}
	if rules == nil {
		return Plan{}
	}
	return Plan{Name: "uniform", Rules: rules}
}

// Parse builds a Plan from a flag spec:
//
//	""            — clean fabric (also "none")
//	"uniform:drop=0.01,dup=0.005,corrupt=0.001"
//	              — always-on uniform probabilities (keys optional)
//	"burst-loss"  — a named preset (see Presets)
//	"@plan.json"  — a Plan unmarshalled from a JSON file
//
// Every spelling's plan must pass validate.
func Parse(spec string) (Plan, error) {
	p, err := parse(strings.TrimSpace(spec))
	if err != nil {
		return Plan{}, err
	}
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func parse(spec string) (Plan, error) {
	switch {
	case spec == "" || spec == "none":
		return Plan{}, nil
	case strings.HasPrefix(spec, "@"):
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return Plan{}, fmt.Errorf("faults: %w", err)
		}
		var p Plan
		if err := decodeStrict(data, &p); err != nil {
			return Plan{}, fmt.Errorf("faults: %s: %w", spec[1:], err)
		}
		return p, nil
	case spec == "uniform" || strings.HasPrefix(spec, "uniform:"):
		var drop, dup, corrupt float64
		args := strings.TrimPrefix(strings.TrimPrefix(spec, "uniform"), ":")
		for _, kv := range strings.Split(args, ",") {
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return Plan{}, fmt.Errorf("faults: uniform spec needs key=value, got %q", kv)
			}
			// A probability outside [0,1] must fail here: uniformPlan
			// drops a rule whose probability is not positive.
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0 && f <= 1) {
				return Plan{}, fmt.Errorf("faults: probability %q is not a number in [0,1]", kv)
			}
			switch k {
			case "drop":
				drop = f
			case "dup":
				dup = f
			case "corrupt":
				corrupt = f
			default:
				return Plan{}, fmt.Errorf("faults: unknown uniform key %q (want drop, dup, corrupt)", k)
			}
		}
		return uniformPlan(drop, dup, corrupt), nil
	default:
		if p, ok := Preset(spec); ok {
			return p, nil
		}
		return Plan{}, fmt.Errorf("faults: unknown plan %q (presets: %s; or uniform:drop=P,dup=P,corrupt=P; or @file.json)",
			spec, strings.Join(PresetNames(), ", "))
	}
}

// validate rejects a plan the injector would read as something else: a
// kind NewInjector does not know (it would ignore the rule), a probability
// that is not a number in [0,1], or a selector below -1 (which would match
// nothing).
func (p Plan) validate() error {
	for i, r := range p.Rules {
		switch r.Kind {
		case Drop, Dup, Corrupt, LinkDown, Stall:
		default:
			return fmt.Errorf("faults: rule %d: unknown kind %q (want drop, dup, corrupt, linkdown, stall)", i, r.Kind)
		}
		if !(r.Prob >= 0 && r.Prob <= 1) {
			return fmt.Errorf("faults: rule %d: probability %v is not a number in [0,1]", i, r.Prob)
		}
		if r.Src < -1 || r.Dst < -1 || r.Route < -1 {
			return fmt.Errorf("faults: rule %d: selectors src %d, dst %d, route %d: each must be -1 (any) or an index", i, r.Src, r.Dst, r.Route)
		}
	}
	return nil
}

// Preset returns the named preset plan.
func Preset(name string) (Plan, bool) {
	for _, p := range presets {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// PresetNames lists the available preset plans, sorted.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	return names
}
