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
	"flag"
	"fmt"
	"os"

	"splapi/internal/bench"
	"splapi/internal/cliconf"
	"splapi/internal/cluster"
	"splapi/internal/machine"
)

func main() {
	prov := cliconf.Provider(flag.CommandLine, true, cluster.Native, cluster.LAPIEnhanced)
	size := flag.Int("size", -1, "message size in bytes; -1 sweeps")
	interrupts := flag.Bool("interrupts", false, "interrupt-mode receiver (Figure 13 methodology)")
	bw := flag.Bool("bw", false, "measure streaming bandwidth instead of latency")
	count := flag.Int("count", 48, "messages per bandwidth measurement")
	mach := cliconf.Machine(flag.CommandLine)
	seed := cliconf.Seed(flag.CommandLine)
	tr := cliconf.Trace(flag.CommandLine, 1<<20)
	flag.Parse()

	if prov.IsList() {
		prov.PrintList(os.Stdout)
		return
	}
	par, err := mach.PaperParams()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(2)
	}
	stacks, err := prov.Stacks(&par, *interrupts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pingpong:", err)
		os.Exit(2)
	}
	sizes := []int{0, 8, 64, 256, 1024, 4096, 16384, 65536}
	if *size >= 0 {
		sizes = []int{*size}
	}
	if tr.Enabled() && (len(stacks) != 1 || len(sizes) != 1) {
		fmt.Fprintln(os.Stderr, "pingpong: -trace needs a single cell; give both -provider and -size")
		os.Exit(2)
	}
	tl := tr.New()
	// The -machine/-faults cost model replaces the cells' default one whole.
	spec := bench.RunSpec{Seed: *seed, Mod: func(p *machine.Params) { *p = par }, Trace: tl}
	unit := "us one-way"
	if *bw {
		unit = "MB/s"
	}
	fmt.Printf("%10s", "size(B)")
	for _, s := range stacks {
		fmt.Printf("  %22s", s)
	}
	fmt.Printf("   [%s]\n", unit)
	for _, sz := range sizes {
		fmt.Printf("%10d", sz)
		for _, st := range stacks {
			cell := bench.PingPongCell("", st, sz, *interrupts, nil)
			if *bw && st != cluster.RawLAPI {
				cell = bench.BandwidthCell("", st, sz, *count, nil)
			}
			fmt.Printf("  %22.2f", cell.Run(spec).Value)
		}
		fmt.Println()
	}
	if tl != nil {
		line, err := tr.Write(tl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pingpong:", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
}
