// Command sweep runs the parallel multi-seed experiment harness and
// persists machine-readable results.
//
// Usage:
//
//	sweep -exp fig10 -seeds 16 -par 8 -o BENCH_fig10.json
//	sweep -exp all -seeds 8                  # every experiment, BENCH_<id>.json each
//	sweep -exp fig12 -seeds 8 -faults burst-loss      # scripted fault plan
//	sweep -exp fig12 -seeds 4 -seeds-max 32 -rel-ci 2 -faults burst-loss
//	                                         # sequential stopping: batches of 4
//	                                         # until the median CI is within 2%
//	sweep -list                              # available experiments
//	sweep -compare old.json new.json -tol 1  # flag significant >1% movements
//
// Results are bit-identical for any -par value: per-cell seeds are derived
// from the cell identity, never from scheduling, and wall-clock cost is
// reported on stdout rather than persisted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"splapi/internal/bench"
	"splapi/internal/cliconf"
	"splapi/internal/prof"
	"splapi/internal/sweep"
)

func main() { os.Exit(run()) }

// eprint reports an error on stderr under the command's name without
// doubling the prefix when the error already carries the package's own
// "sweep:" one.
func eprint(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "sweep:") {
		msg = "sweep: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
}

func run() int {
	var (
		exp      = flag.String("exp", "", "experiment id to sweep, or 'all'")
		seeds    = flag.Int("seeds", 1, "repetitions per cell (distinct derived seeds); the batch size under -seeds-max")
		seedsMax = flag.Int("seeds-max", 0, "sequential stopping: cap repetitions per cell, running batches of -seeds until -rel-ci converges")
		relCI    = flag.Float64("rel-ci", 0, "sequential stopping target: relative median-CI half-width in percent")
		par      = flag.Int("par", 0, "worker-pool size (0 = GOMAXPROCS)")
		baseSeed = flag.Int64("baseseed", 1, "base seed perturbing every derived seed")
		out      = flag.String("o", "", "output file (default BENCH_<exp>.json)")
		faultsFl = cliconf.Faults(flag.CommandLine)
		list     = flag.Bool("list", false, "list available experiments and exit")
		compare  = flag.Bool("compare", false, "compare two result files: sweep -compare old.json new.json")
		traced   = flag.Bool("trace", false, "attach (and discard) an event log to every cell run; results must be identical to an untraced sweep")
		tol      = flag.Float64("tol", 0, "comparison tolerance in percent of the old median")
		missing  = flag.Bool("allow-missing", false, "comparison: tolerate points present in old but absent in new (coverage loss fails the gate otherwise)")
		verbose  = flag.Bool("v", false, "verbose comparison output (include unmoved points)")
	)
	pf := prof.Flags(flag.CommandLine)
	flag.Parse()
	stop, err := pf.Start()
	if err != nil {
		eprint(err)
		return 2
	}
	defer stop()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s %3d cells  [%s]  %s\n", e.ID, len(e.Cells), e.Unit, e.Title)
		}
		return 0
	}

	if *compare {
		args := flag.Args()
		if len(args) > 2 {
			// Flag parsing stops at the first positional operand, so
			// "-compare old.json new.json -tol 1" leaves -tol unparsed;
			// pick up any flags trailing the two file operands here.
			flag.CommandLine.Parse(args[2:])
			args = args[:2]
		}
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "sweep: -compare needs exactly two result files")
			return 2
		}
		oldRes, err := sweep.Load(args[0])
		if err != nil {
			eprint(err)
			return 2
		}
		newRes, err := sweep.Load(args[1])
		if err != nil {
			eprint(err)
			return 2
		}
		deltas, err := sweep.Compare(oldRes, newRes, sweep.CompareOpts{TolPct: *tol, AllowMissing: *missing})
		if err != nil {
			eprint(err)
			return 2
		}
		sweep.PrintDeltas(os.Stdout, deltas, *verbose)
		regs := sweep.Regressions(deltas)
		if len(regs) > 0 {
			fmt.Printf("%d regression(s) (significant movement or lost coverage, +%g%% tolerance)\n", len(regs), *tol)
			return 1
		}
		fmt.Printf("no regressions (%d points compared, tolerance %g%%)\n", len(deltas), *tol)
		return 0
	}

	if *exp == "" {
		flag.Usage()
		return 2
	}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.Experiments()
	} else {
		e, err := bench.FindExperiment(*exp)
		if err != nil {
			eprint(err)
			fmt.Fprintln(os.Stderr, "sweep: use -list to see available experiments")
			return 2
		}
		exps = []bench.Experiment{e}
	}
	opts := sweep.Options{
		Seeds: *seeds, SeedsMax: *seedsMax, RelCIPct: *relCI,
		Par: *par, BaseSeed: *baseSeed,
		Faults: faultsFl.Spec(), GitDescribe: cliconf.GitDescribe(), Trace: *traced,
	}
	if _, err := opts.Validate(); err != nil {
		eprint(err)
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
			eprint(err)
			if errors.Is(err, context.Canceled) {
				return 130
			}
			return 1
		}
		res.Print(os.Stdout)
		path := *out
		if path == "" || *exp == "all" {
			path = "BENCH_" + e.ID + ".json"
		}
		if err := sweep.Save(path, res); err != nil {
			eprint(err)
			return 1
		}
		fmt.Printf("  wrote %s\n\n", path)
	}
	return 0
}
