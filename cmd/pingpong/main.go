// Command pingpong measures point-to-point latency and streaming bandwidth
// between two simulated SP nodes on any protocol stack.
//
// Usage:
//
//	pingpong                       # default sweep on native and enhanced
//	pingpong -provider mpi-lapi-base -size 4096
//	pingpong -provider list        # available providers
//	pingpong -interrupts           # the Figure 13 interrupt-mode receiver
//	pingpong -bw                   # bandwidth instead of latency
//	pingpong -machine sp160        # the previous-generation node
//	pingpong -faults burst-loss -seed 7    # scripted fault plan
//	pingpong -provider raw-lapi -size 1 -trace t.json   # Chrome trace of one cell
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"splapi/internal/bench"
	"splapi/internal/cliconf"
	"splapi/internal/cluster"
	"splapi/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pingpong", flag.ContinueOnError)
	fs.SetOutput(stderr)
	prov := cliconf.Provider(fs, true, cluster.Native, cluster.LAPIEnhanced)
	size := fs.Int("size", -1, "message size in bytes; -1 sweeps")
	interrupts := fs.Bool("interrupts", false, "interrupt-mode receiver (Figure 13 methodology)")
	bw := fs.Bool("bw", false, "measure streaming bandwidth instead of latency")
	count := fs.Int("count", 48, "messages per bandwidth measurement")
	mach := cliconf.Machine(fs)
	seed := cliconf.Seed(fs)
	tr := cliconf.Trace(fs, 1<<20)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if prov.IsList() {
		prov.PrintList(stdout)
		return 0
	}
	par, err := mach.PaperParams()
	if err != nil {
		fmt.Fprintln(stderr, "pingpong:", err)
		return 2
	}
	stacks, err := prov.Stacks(&par, *interrupts)
	if err != nil {
		fmt.Fprintln(stderr, "pingpong:", err)
		return 2
	}
	if *bw && slices.Contains(stacks, cluster.RawLAPI) {
		fmt.Fprintln(stderr, "pingpong: contradictory flags: -bw streams with MPI_Isend/MPI_Irecv and raw-lapi has no MPI; the Figure 10 raw LAPI measurement is the latency ping-pong only (drop -bw or pick an MPI provider)")
		return 2
	}
	sizes := []int{0, 8, 64, 256, 1024, 4096, 16384, 65536}
	if *size >= 0 {
		sizes = []int{*size}
	}
	if tr.Enabled() && (len(stacks) != 1 || len(sizes) != 1) {
		fmt.Fprintln(stderr, "pingpong: -trace needs a single cell; give both -provider and -size")
		return 2
	}
	tl := tr.New()
	// The -machine/-faults cost model replaces the cells' default one whole.
	spec := bench.RunSpec{Seed: *seed, Mod: func(p *machine.Params) { *p = par }, Trace: tl}
	unit := "us one-way"
	if *bw {
		unit = "MB/s"
	}
	fmt.Fprintf(stdout, "%10s", "size(B)")
	for _, s := range stacks {
		fmt.Fprintf(stdout, "  %22s", s)
	}
	fmt.Fprintf(stdout, "   [%s]\n", unit)
	for _, sz := range sizes {
		fmt.Fprintf(stdout, "%10d", sz)
		for _, st := range stacks {
			cell := bench.PingPongCell("", st, sz, *interrupts, nil)
			if *bw {
				cell = bench.BandwidthCell("", st, sz, *count, nil)
			}
			fmt.Fprintf(stdout, "  %22.2f", cell.Run(spec).Value)
		}
		fmt.Fprintln(stdout)
	}
	if tl != nil {
		line, err := tr.Write(tl)
		if err != nil {
			fmt.Fprintln(stderr, "pingpong:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	return 0
}
