// Command sweep runs the parallel multi-seed experiment harness and
// persists machine-readable results.
//
// Usage:
//
//	sweep -exp fig10 -seeds 16 -par 8 -o BENCH_fig10.json
//	sweep -exp all -seeds 8                  # every experiment, BENCH_<id>.json each
//	sweep -exp fig12 -seeds 8 -faults burst-loss      # scripted fault plan
//	sweep -list                              # available experiments
//	sweep -compare old.json new.json -tol 1  # flag significant >1% movements
//
// Every cell runs exactly -seeds repetitions (a cell that proves seed-free
// runs once and is recorded at every seed). Results are bit-identical for
// any -par value: per-cell seeds are derived from the cell identity, never
// from scheduling, and wall-clock cost is reported on stdout rather than
// persisted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"splapi/internal/bench"
	"splapi/internal/cliconf"
	"splapi/internal/prof"
	"splapi/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// eprint reports an error on w under the command's name without doubling
// the prefix when the error already carries the package's own "sweep:"
// one.
func eprint(w io.Writer, err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "sweep:") {
		msg = "sweep: " + msg
	}
	fmt.Fprintln(w, msg)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id to sweep, or 'all'")
		seeds    = fs.Int("seeds", 1, "repetitions per cell (distinct derived seeds)")
		par      = fs.Int("par", 0, "worker-pool size (0 = GOMAXPROCS)")
		baseSeed = fs.Int64("baseseed", 1, "base seed perturbing every derived seed")
		out      = fs.String("o", "", "output file (default BENCH_<exp>.json)")
		faultsFl = cliconf.Faults(fs)
		list     = fs.Bool("list", false, "list available experiments and exit")
		compare  = fs.Bool("compare", false, "compare two result files: sweep -compare old.json new.json")
		tol      = fs.Float64("tol", 0, "comparison tolerance in percent of the old median")
		missing  = fs.Bool("allow-missing", false, "comparison: tolerate points present in old but absent in new (coverage loss fails the gate otherwise)")
		verbose  = fs.Bool("v", false, "verbose comparison output (include unmoved points)")
	)
	pf := prof.Flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := pf.Start()
	if err != nil {
		eprint(stderr, err)
		return 2
	}
	defer stop()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-18s %3d cells  [%s]  %s\n", e.ID, len(e.Cells), e.Unit, e.Title)
		}
		return 0
	}

	if *compare {
		files := fs.Args()
		if len(files) > 2 {
			// Flag parsing stops at the first positional operand, so
			// "-compare old.json new.json -tol 1" leaves -tol unparsed;
			// pick up any flags trailing the two file operands here.
			if err := fs.Parse(files[2:]); err != nil {
				return 2
			}
			files = files[:2]
		}
		if len(files) != 2 {
			fmt.Fprintln(stderr, "sweep: -compare needs exactly two result files")
			return 2
		}
		oldRes, err := sweep.Load(files[0])
		if err != nil {
			eprint(stderr, err)
			return 2
		}
		newRes, err := sweep.Load(files[1])
		if err != nil {
			eprint(stderr, err)
			return 2
		}
		deltas, err := sweep.Compare(oldRes, newRes, sweep.CompareOpts{TolPct: *tol, AllowMissing: *missing})
		if err != nil {
			eprint(stderr, err)
			return 2
		}
		sweep.PrintDeltas(stdout, deltas, *verbose)
		regs := sweep.Regressions(deltas)
		if len(regs) > 0 {
			fmt.Fprintf(stdout, "%d regression(s) (significant movement or lost coverage, +%g%% tolerance)\n", len(regs), *tol)
			return 1
		}
		fmt.Fprintf(stdout, "no regressions (%d points compared, tolerance %g%%)\n", len(deltas), *tol)
		return 0
	}

	if *exp == "" {
		fs.Usage()
		return 2
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		e, err := bench.FindExperiment(*exp)
		if err != nil {
			eprint(stderr, err)
			fmt.Fprintln(stderr, "sweep: use -list to see available experiments")
			return 2
		}
		exps = []bench.Experiment{e}
	}
	opts := sweep.Options{
		Seeds: *seeds, Par: *par, BaseSeed: *baseSeed,
		Faults: faultsFl.Spec(), GitDescribe: cliconf.GitDescribe(),
	}
	if _, err := opts.Validate(); err != nil {
		eprint(stderr, err)
		return 2
	}

	// Ctrl-C (or SIGTERM) drains the worker pool: in-flight cells finish,
	// queued ones are skipped, and the sweep exits without writing an
	// artifact — a file of partial points would pass for a complete run.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	for _, e := range exps {
		res, err := sweep.RunCtx(ctx, e, opts)
		if err != nil {
			eprint(stderr, err)
			if errors.Is(err, context.Canceled) {
				return 130
			}
			return 1
		}
		res.Print(stdout)
		path := *out
		if path == "" || *exp == "all" {
			path = "BENCH_" + e.ID + ".json"
		}
		if err := sweep.Save(path, res); err != nil {
			eprint(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "  wrote %s\n\n", path)
	}
	return 0
}
