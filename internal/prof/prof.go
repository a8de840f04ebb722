// Package prof wires the standard -cpuprofile/-memprofile flags into the
// repo's command-line tools, so any sweep or experiment run can be fed
// straight to `go tool pprof` without a separate harness.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

type flags struct {
	cpu, mem string
}

// Flags registers -cpuprofile and -memprofile on fs. Call before fs.Parse.
func Flags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write an allocation profile to this file on exit")
	return f
}

// Start begins CPU profiling if requested. The returned stop function
// flushes both profiles; call it before exiting (also on error paths —
// os.Exit skips deferred calls only if stop was never invoked).
func (f *flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		cpuFile, err = os.Create(f.cpu)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.mem != "" {
			mf, err := os.Create(f.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // flush unreachable objects so alloc_space is accurate
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
	}, nil
}
