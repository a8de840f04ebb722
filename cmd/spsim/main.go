// Command spsim regenerates the paper's experiments on the simulated SP
// system as text reports; `spsim -exp all` is the committed results_all.txt.
//
// Usage:
//
//	spsim -exp fig10|fig11|fig12|fig13|table2|nas|ablate-ctxswitch|ablate-copies|ablate-eager|generations|breakdown|stats|all
//
// For multi-seed sweeps and BENCH_<exp>.json artifacts use cmd/sweep; for an
// event trace of one cell use cmd/pingpong -trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"splapi/internal/bench"
	"splapi/internal/prof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// report is one block of spsim output; id names it on -exp and is handed
// to its printer.
type report struct {
	id    string
	print func(w io.Writer, id string) error
}

// reports is the order of `-exp all`, and so of results_all.txt.
var reports = []report{
	{"fig10", figure},
	{"fig11", figure},
	{"fig12", figure},
	{"fig13", figure},
	{"table2", plain(bench.PrintTable2)},
	{"nas", plain(bench.PrintNAS)},
	{"ablate-ctxswitch", ablation("ctxswitch(us)", 22)},
	{"ablate-copies", figure},
	{"ablate-eager", ablation("eager(B)", 26)},
	{"generations", plain(bench.PrintNodeGenerations)},
	{"breakdown", plain(bench.PrintBreakdowns)},
	{"stats", func(w io.Writer, _ string) error { return bench.PrintStats(w) }},
}

// registry adapts a printer of a registry experiment: id names the
// bench.Experiments() entry that supplies title, unit and cells.
func registry(print func(io.Writer, bench.Experiment)) func(io.Writer, string) error {
	return func(w io.Writer, id string) error {
		e, err := bench.FindExperiment(id)
		if err != nil {
			return err
		}
		print(w, e)
		return nil
	}
}

// figure prints a registry experiment as a size-by-series table.
var figure = registry(func(w io.Writer, e bench.Experiment) {
	bench.PrintSeries(w, e.Title, e.Unit, bench.SeriesOf(e, 1, nil))
})

// ablation prints a registry experiment whose x axis is the ablated
// quantity rather than a message size.
func ablation(xLabel string, colWidth int) func(io.Writer, string) error {
	return registry(func(w io.Writer, e bench.Experiment) { bench.PrintAblation(w, e, xLabel, colWidth) })
}

// plain adapts a non-registry report that cannot fail.
func plain(print func(io.Writer)) func(io.Writer, string) error {
	return func(w io.Writer, _ string) error {
		print(w)
		return nil
	}
}

func run(args []string, stdout io.Writer) int {
	ids := make([]string, len(reports))
	for i, r := range reports {
		ids[i] = r.id
	}
	fs := flag.NewFlagSet("spsim", flag.ContinueOnError)
	exp := fs.String("exp", "all", "report to print ("+strings.Join(ids, ", ")+", all)")
	pf := prof.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsim:", err)
		return 2
	}
	defer stop()

	any := false
	for _, r := range reports {
		if *exp != "all" && *exp != r.id {
			continue
		}
		any = true
		err := r.print(stdout, r.id)
		fmt.Fprintln(stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spsim: %s: %v\n", r.id, err)
			return 1
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "spsim: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	return 0
}
