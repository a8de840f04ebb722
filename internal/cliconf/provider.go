package cliconf

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/mpci"
)

// ProviderFlags is the protocol-stack selection flag group: the one
// -provider flag every command spells the same way, validated against the
// mpci provider registry instead of a per-command name list.
type ProviderFlags struct {
	name     *string
	allowRaw bool
	def      []cluster.Stack
}

// Provider registers the -provider flag on fs. def is the stack set used
// when the flag is absent (commands that compare stacks pass several);
// allowRaw additionally accepts raw-lapi, the bare-LAPI pseudo-stack that
// has no MPCI provider.
func Provider(fs *flag.FlagSet, allowRaw bool, def ...cluster.Stack) *ProviderFlags {
	p := &ProviderFlags{allowRaw: allowRaw, def: def}
	usage := "protocol stack; 'list' prints the provider registry"
	if len(def) > 0 {
		names := make([]string, len(def))
		for i, s := range def {
			names[i] = s.String()
		}
		usage += "; empty compares " + strings.Join(names, " vs ")
	}
	p.name = fs.String("provider", "", usage)
	return p
}

// Explicit reports whether a provider was named on the command line.
func (p *ProviderFlags) Explicit() bool { return *p.name != "" }

// IsList reports whether '-provider list' was given; the command should
// PrintList and exit.
func (p *ProviderFlags) IsList() bool { return *p.name == "list" }

// PrintList writes the provider registry, one line per provider with its
// capabilities.
func (p *ProviderFlags) PrintList(w io.Writer) {
	for _, f := range mpci.Providers() {
		line := f.Doc
		if caps := f.Caps.List(); len(caps) > 0 {
			line += "  [" + strings.Join(caps, ",") + "]"
		}
		fmt.Fprintf(w, "%-20s %s\n", f.Name, line)
	}
	if p.allowRaw {
		fmt.Fprintf(w, "%-20s %s\n", cluster.RawLAPI, "bare LAPI endpoints, no MPCI (the Figure 10 measurements)")
	}
}

// Stacks resolves the flag against par: the named provider, or the default
// comparison set when the flag is absent. Contradictory combinations are
// rejected here — naming a provider that needs memory registration on a
// machine generation that disables it cannot build a cluster, one that
// completes eager messages by counters never finishes under the
// interrupt-mode receiver (interrupts; false for commands without one), and
// raw-lapi has no interrupt-mode receiver at all.
func (p *ProviderFlags) Stacks(par *machine.Params, interrupts bool) ([]cluster.Stack, error) {
	if *p.name == "" {
		return append([]cluster.Stack(nil), p.def...), nil
	}
	if p.allowRaw && *p.name == string(cluster.RawLAPI) {
		if interrupts {
			return nil, fmt.Errorf("cliconf: contradictory flags: the Section 6.1 interrupt-mode receiver posts an MPI_Irecv, and raw-lapi has no MPI — its Section 5.1 LAPI_Put ping-pong only polls, so the run would silently measure polling (drop -interrupts or pick an MPI provider)")
		}
		return []cluster.Stack{cluster.RawLAPI}, nil
	}
	f, ok := mpci.Lookup(*p.name)
	if !ok {
		return nil, fmt.Errorf("cliconf: unknown provider %q (use -provider list)", *p.name)
	}
	if f.Caps.ZeroCopyRendezvous && !par.RdmaSupported {
		return nil, fmt.Errorf("cliconf: contradictory flags: provider %q needs adapter memory registration, which the selected machine generation disables (pick -machine sp332)", *p.name)
	}
	if f.Caps.CounterCompletions && interrupts {
		return nil, fmt.Errorf("cliconf: contradictory flags: the Section 6.1 interrupt-mode receiver never enters MPI, and provider %q (Section 5.2) reaps single-packet eager completions only inside MPI calls, so the run would never terminate (drop -interrupts or pick another provider)", *p.name)
	}
	return []cluster.Stack{cluster.Stack(f.Name)}, nil
}
