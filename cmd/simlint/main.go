// Command simlint runs the determinism-invariant analyzer suite over the
// repository (see internal/simlint), test files included. It is part of
// the tier-1 verify line:
//
//	go run ./cmd/simlint ./...
//
// All requested packages are loaded into a single program before any
// analyzer runs, so interprocedural effect summaries (handlerctx) cross
// package boundaries exactly as the call graph does. -run names a subset
// of the analyzers and -list prints them.
//
// Exit status:
//
//	0  clean
//	1  findings
//	2  load or type-check errors
//	3  no findings, but stale //simlint:allow directives (unused, or
//	   naming an unknown analyzer) — dead waivers must be deleted
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"splapi/internal/simlint"
)

func main() {
	run := flag.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] [packages]\n\n"+
			"Runs the determinism-invariant analyzers over the given package\n"+
			"patterns (default ./...), test files included. Suppress an\n"+
			"intentional finding with a //simlint:allow <analyzer> <reason>\n"+
			"directive on the same line or the line above. Exit status: 0 clean,\n"+
			"1 findings, 2 load errors, 3 stale allow directives.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range simlint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := simlint.All()
	if *run != "" {
		byName := make(map[string]*simlint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(os.Stderr, "simlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld, err := simlint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	dirs, err := simlint.Expand(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	loadFailed := false
	var units []*simlint.Unit
	for _, dir := range dirs {
		us, err := ld.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			loadFailed = true
			continue
		}
		units = append(units, us...)
	}
	diags, stale := simlint.RunUnits(units, analyzers)
	simlint.Sort(diags)
	simlint.SortStale(stale)

	for _, d := range diags {
		fmt.Println(d)
	}
	for _, s := range stale {
		fmt.Fprintln(os.Stderr, s)
	}

	switch {
	case loadFailed:
		os.Exit(2)
	case len(diags) > 0:
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	case len(stale) > 0:
		fmt.Fprintf(os.Stderr, "simlint: %d stale allow directive(s)\n", len(stale))
		os.Exit(3)
	}
}
