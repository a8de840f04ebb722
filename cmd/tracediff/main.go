// Command tracediff compares two tracelog/v1 Chrome trace exports and
// reports the first divergent event — the mechanical answer to
// "determinism broke somewhere": two runs of the same (program, seed)
// must produce byte-identical event streams, and the first index where
// they differ sits next to the code that consulted forbidden state.
//
// Usage:
//
//	tracediff a.json b.json
//	tracediff -ctx 10 a.json b.json
//
// Exit status: 0 when the streams are identical, 1 when they diverge
// (with a context report), 2 on usage or read errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"splapi/internal/tracelog"
)

func main() { os.Exit(run()) }

func run() int {
	ctx := flag.Int("ctx", 5, "events of context to print around the divergence")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracediff [-ctx n] a.json b.json")
		return 2
	}
	a, err := tracelog.ReadChromeFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracediff:", err)
		return 2
	}
	b, err := tracelog.ReadChromeFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracediff:", err)
		return 2
	}
	idx := tracelog.Diff(a, b)
	if idx < 0 {
		fmt.Printf("identical: %d events\n", len(a))
		return 0
	}
	tracelog.FormatDivergence(os.Stdout, a, b, idx, *ctx)
	return 1
}
