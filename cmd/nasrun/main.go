// Command nasrun executes the NAS Parallel Benchmark kernels on the
// simulated 4-node SP and reports the Section 6.2 native-MPI vs MPI-LAPI
// comparison.
//
// Usage:
//
//	nasrun              # full suite, both stacks
//	nasrun -bench CG    # one kernel
//	nasrun -provider mpi-lapi-base -bench LU
//	nasrun -bench CG -faults flappy-route -seed 3   # kernel on a faulted fabric
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"splapi/internal/bench"
	"splapi/internal/cliconf"
	"splapi/internal/cluster"
	"splapi/internal/nas"
)

func main() {
	benchName := flag.String("bench", "", "single kernel to run (EP, MG, CG, FT, IS, LU, SP, BT); empty runs the suite")
	prov := cliconf.Provider(flag.CommandLine, false, cluster.Native, cluster.LAPIEnhanced)
	mach := cliconf.Machine(flag.CommandLine)
	seed := cliconf.Seed(flag.CommandLine)
	tr := cliconf.Trace(flag.CommandLine, 1<<22)
	flag.Parse()

	if prov.IsList() {
		prov.PrintList(os.Stdout)
		return
	}
	par, err := mach.PaperParams()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasrun:", err)
		os.Exit(2)
	}
	if tr.Enabled() && (*benchName == "" || !prov.Explicit()) {
		fmt.Fprintln(os.Stderr, "nasrun: -trace needs a single run; give both -bench and -provider")
		os.Exit(2)
	}
	if *benchName == "" && !prov.Explicit() && mach.Faults.Spec() == "" && *seed == 1 && mach.Preset() == "sp332" {
		bench.PrintNAS(os.Stdout)
		return
	}

	kernels := nas.Suite()
	if *benchName != "" {
		k, err := nas.ByName(strings.ToUpper(*benchName))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		kernels = []nas.Kernel{k}
	}
	stacks, err := prov.Stacks(&par, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasrun:", err)
		os.Exit(2)
	}
	tl := tr.New()
	fmt.Printf("%-6s %-22s %14s %10s\n", "bench", "stack", "time(ms)", "verified")
	for _, k := range kernels {
		for _, s := range stacks {
			res := bench.RunNASKernelOpts(k, s, par, *seed, tl)
			fmt.Printf("%-6s %-22s %14.2f %10v\n", k.Name, s, float64(res.Time)/1e6, res.Verified)
		}
	}
	if tl != nil {
		line, err := tr.Write(tl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nasrun:", err)
			os.Exit(1)
		}
		fmt.Println(line)
	}
}
