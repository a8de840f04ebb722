// Provider registry: every MPCI implementation has a named factory in one
// table here, and every construction site (cluster, benches, cmds, tests)
// selects one through it. Callers that need to know what a provider can do
// read its Capabilities — never its name — so adding a provider never grows
// a string switch anywhere else.
package mpci

import (
	"slices"

	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/pipes"
	"splapi/internal/sim"
)

// Capabilities reports what a provider implementation supports. The zero
// value means "none of these".
type Capabilities struct {
	// ZeroCopyRendezvous: rendezvous bodies move by RDMA directly between
	// registered user buffers; no staging copy, no CTS round trip.
	ZeroCopyRendezvous bool
	// NativeFraming: messages are framed over the Pipes reliable byte
	// stream (Figure 1a) rather than LAPI active messages.
	NativeFraming bool
	// EnvelopeResequencing: the transport can reorder envelopes and the
	// provider restores MPI ordering with per-pair sequence numbers.
	EnvelopeResequencing bool
	// CounterCompletions: single-packet eager messages complete by target
	// counters instead of completion handlers (Section 5.2).
	CounterCompletions bool
	// InlineCompletions: completion handlers run in the dispatcher context
	// instead of a separate thread (Section 5.3).
	InlineCompletions bool
	// HysteresisInterrupts: the interrupt dispatcher dwells in the handler
	// hoping to batch packets (the native MPI scheme of Section 6.1).
	HysteresisInterrupts bool
}

// List returns the names of the set capabilities, in declaration order.
func (c Capabilities) List() []string {
	var out []string
	add := func(on bool, name string) {
		if on {
			out = append(out, name)
		}
	}
	add(c.ZeroCopyRendezvous, "zero-copy-rendezvous")
	add(c.NativeFraming, "native-framing")
	add(c.EnvelopeResequencing, "envelope-resequencing")
	add(c.CounterCompletions, "counter-completions")
	add(c.InlineCompletions, "inline-completions")
	add(c.HysteresisInterrupts, "hysteresis-interrupts")
	return out
}

// NodeStack is everything a provider factory builds above one node's HAL.
// Exactly one of Pipes/LAPI is non-nil, matching the provider's transport.
type NodeStack struct {
	Prov  Provider
	Pipes *pipes.Pipes
	LAPI  *lapi.LAPI
}

// Factory builds one provider's full per-node stack.
type Factory struct {
	// Name is the registry key (the -provider flag value).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Caps is the one place a provider's capability set is written down:
	// it selects the behaviour of the instances Build makes, and is what
	// they report. A ZeroCopyRendezvous provider needs
	// Params.RdmaSupported; config validation rejects it on machine
	// generations without it.
	Caps Capabilities
	// Build constructs the stack for one node; callers pass the factory's
	// own Caps. The HAL's trace log is already attached; factories
	// propagate it to the layers they build.
	Build func(caps Capabilities, eng *sim.Engine, par *machine.Params, h *hal.HAL, size int) NodeStack
}

// providers is the registry: one Factory per provider, sorted by name, so
// listings are deterministic without a sort.
var providers = []Factory{
	{
		Name:  "mpi-lapi-base",
		Doc:   "MPI-LAPI with threaded completion handlers (Section 4)",
		Caps:  Capabilities{EnvelopeResequencing: true},
		Build: buildLAPI,
	},
	{
		Name:  "mpi-lapi-counters",
		Doc:   "MPI-LAPI completing eager messages by counters (Section 5.2)",
		Caps:  Capabilities{EnvelopeResequencing: true, CounterCompletions: true},
		Build: buildLAPI,
	},
	{
		Name:  "mpi-lapi-enhanced",
		Doc:   "MPI-LAPI with same-context completion handlers (Section 5.3)",
		Caps:  Capabilities{EnvelopeResequencing: true, InlineCompletions: true},
		Build: buildLAPI,
	},
	{
		Name:  "native",
		Doc:   "original MPCI over the Pipes byte stream (Figure 1a)",
		Caps:  Capabilities{NativeFraming: true, HysteresisInterrupts: true},
		Build: buildNative,
	},
	{
		Name:  "rdma",
		Doc:   "enhanced MPI-LAPI with zero-copy RDMA-read rendezvous",
		Caps:  Capabilities{EnvelopeResequencing: true, InlineCompletions: true, ZeroCopyRendezvous: true},
		Build: buildLAPI,
	},
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	for _, f := range providers {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// Providers returns all registered factories sorted by name.
func Providers() []Factory { return slices.Clone(providers) }

func buildNative(caps Capabilities, eng *sim.Engine, par *machine.Params, h *hal.HAL, size int) NodeStack {
	pp := pipes.New(eng, par, h, size)
	pp.SetTrace(h.Trace())
	return NodeStack{Prov: newNative(eng, par, h, pp, size, caps), Pipes: pp}
}

// buildLAPI builds every LAPI-backed stack: the Section 5 designs and the
// zero-copy rendezvous differ only in caps.
func buildLAPI(caps Capabilities, eng *sim.Engine, par *machine.Params, h *hal.HAL, size int) NodeStack {
	variant := lapi.Threaded
	if caps.InlineCompletions {
		variant = lapi.Inline
	}
	l := lapi.New(eng, par, h, size, variant)
	l.SetTrace(h.Trace())
	return NodeStack{Prov: newLAPI(eng, par, l, size, caps), LAPI: l}
}
