package sweep

import (
	"fmt"
	"io"
)

// Print writes a human-readable summary of a sweep result: one row per
// point with the seeds consumed, the median, the observed range, the
// median-CI half-width and its construction method, plus the run's cost
// line (virtual seconds simulated, repetitions recorded and run,
// wall-clock, pool size).
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%s  [%s, %d seed(s), base %d]\n", r.Title, r.Unit, r.Seeds, r.BaseSeed)
	if r.Overrides.Faults != "" {
		fmt.Fprintf(w, "  fault injection: %s\n", r.Overrides.Faults)
	}
	fmt.Fprintf(w, "%-28s %10s %4s %12s %12s %12s %10s %10s %12s\n",
		"series", "x", "n", "median", "min", "max", "ci95±", "method", "rtx/pkts")
	var virtual int64
	recorded := 0
	for _, p := range r.Points {
		s := p.Stats
		fmt.Fprintf(w, "%-28s %10d %4d %12.3f %12.3f %12.3f %10.3f %10s %6d/%d\n",
			p.Series, p.X, s.N, s.Median, s.Min, s.Max, (s.CI95Hi-s.CI95Lo)/2, s.CIMethod,
			p.Trace.Retransmits, p.Trace.PacketsSent)
		virtual += p.VirtualTimeNs
		recorded += s.N
	}
	fmt.Fprintf(w, "  cost: %.3f virtual seconds", float64(virtual)/1e9)
	if r.Ran > 0 {
		fmt.Fprintf(w, ", %d repetitions recorded, %d run", recorded, r.Ran)
	}
	if r.WallClock > 0 {
		fmt.Fprintf(w, ", %v wall-clock on %d worker(s)", r.WallClock.Round(1e6), r.Par)
	}
	fmt.Fprintln(w)
}
