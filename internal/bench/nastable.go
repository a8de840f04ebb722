package bench

import (
	"fmt"
	"io"
	"math"
	"sync"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/nas"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// NASFlopNs is the virtual cost of one floating-point operation on the
// 332 MHz node (about 100 Mflop/s sustained).
const NASFlopNs = 10.0

// NASResult is one kernel's timing on one stack.
type NASResult struct {
	Name     string
	Time     sim.Time
	Checksum float64
	Verified bool
}

// RunNASKernel executes one kernel on a 4-node cluster of the given stack
// and reports its execution (virtual) time, taken as the paper does from
// job start to the last rank finishing, and whether the distributed
// checksum matches the serial reference (computed once per process).
func RunNASKernel(k nas.Kernel, stack cluster.Stack) NASResult {
	return RunNASKernelOpts(k, stack, paperParams(), 1, nil)
}

// RunNASKernelOpts is RunNASKernel with an explicit cost model and seed —
// the entry point chaos testing uses to run kernels on a faulted fabric —
// and an event log attached to the cluster (nil tl means untraced).
// Tracing an LU run makes the wavefront communication pattern visible as
// flow arrows in Perfetto.
func RunNASKernelOpts(k nas.Kernel, stack cluster.Stack, par machine.Params, seed int64, tl *tracelog.Log) NASResult {
	const nodes = 4
	c := cluster.New(cluster.Config{Nodes: nodes, Stack: stack, Seed: seed, Params: &par, Trace: tl})
	var end sim.Time
	var vals [nodes]float64 // each rank's checksum, by rank
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		env := &nas.Env{
			W: w,
			Compute: func(p *sim.Proc, flops float64) {
				// Charge compute in scheduler-quantum slices so protocol
				// processing (dispatch, copies) preempts long loops as it
				// does on a real timeshared node.
				const quantum = 25 * sim.Microsecond
				left := sim.Time(flops * NASFlopNs)
				for left > 0 {
					q := quantum
					if q > left {
						q = left
					}
					c.HALs[w.Rank()].ChargeCPU(p, q)
					left -= q
				}
			},
		}
		w.Barrier(p)
		v := k.Run(p, env)
		w.Barrier(p)
		if p.Now() > end {
			end = p.Now()
		}
		vals[w.Rank()] = v
	})
	// Every rank must agree with rank 0, and rank 0 with the serial
	// reference. The ranks leave the final barrier in any order, so the
	// comparison waits until all of them have finished.
	sum := vals[0]
	ok := true
	for _, v := range vals[1:] {
		if math.Abs(v-sum) > k.Tol {
			ok = false
		}
	}
	want := serialRef(k)
	if math.Abs(sum-want) > k.Tol*(1+math.Abs(want)) {
		ok = false
	}
	return NASResult{Name: k.Name, Time: end, Checksum: sum, Verified: ok}
}

// serialRefs memoises each kernel's serial reference, a constant of the
// kernel, by Kernel.Name: it is computed once per process, on first use.
var serialRefs sync.Map // string -> func() float64

// serialRef returns k's serial reference. A hit allocates nothing: the
// once-function is built only on a miss.
func serialRef(k nas.Kernel) float64 {
	f, ok := serialRefs.Load(k.Name)
	if !ok {
		f, _ = serialRefs.LoadOrStore(k.Name, sync.OnceValue(k.Serial))
	}
	return f.(func() float64)()
}

// NASTable runs the full suite on both the native stack and MPI-LAPI
// Enhanced, reporting the Section 6.2 comparison.
func NASTable() (native, lapiEnh []NASResult) {
	for _, k := range nas.Suite() {
		native = append(native, RunNASKernel(k, cluster.Native))
		lapiEnh = append(lapiEnh, RunNASKernel(k, cluster.LAPIEnhanced))
	}
	return
}

// PrintNAS prints the Section 6.2 NAS benchmark table.
func PrintNAS(w io.Writer) {
	fmt.Fprintln(w, "NAS Parallel Benchmarks (reduced scale) on 4 nodes (Section 6.2)")
	fmt.Fprintf(w, "%-6s %16s %16s %14s %10s\n", "bench", "native(ms)", "mpi-lapi(ms)", "improvement", "verified")
	native, lapiEnh := NASTable()
	for i := range native {
		n, l := native[i], lapiEnh[i]
		imp := (float64(n.Time) - float64(l.Time)) / float64(n.Time) * 100
		fmt.Fprintf(w, "%-6s %16.2f %16.2f %13.1f%% %10v\n",
			n.Name, float64(n.Time)/1e6, float64(l.Time)/1e6, imp, n.Verified && l.Verified)
	}
}

// NASImprovements returns the MPI-LAPI improvement percentage by kernel.
func NASImprovements() map[string]float64 {
	native, lapiEnh := NASTable()
	out := make(map[string]float64)
	for i := range native {
		out[native[i].Name] = (float64(native[i].Time) - float64(lapiEnh[i].Time)) / float64(native[i].Time) * 100
	}
	return out
}
