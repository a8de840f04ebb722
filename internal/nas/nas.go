// Package nas implements reduced-scale but algorithmically faithful
// versions of the eight NAS Parallel Benchmarks 2.3 kernels (EP, IS, CG,
// MG, FT, LU, BT, SP) against this repository's MPI, reproducing the
// Section 6.2 evaluation on a four-node SP.
//
// Each kernel keeps the communication pattern that characterizes its NAS
// namesake — EP's single reduction, IS's all-to-all key exchange, CG's halo
// exchanges and dot-product reductions, MG's per-level boundary exchanges,
// FT's transpose all-to-all, LU's wavefront pipelining of small messages,
// and BT/SP's ADI line-solve pipelines — at sizes that run quickly under
// the simulator. Computation is performed for real (results are verified
// against serial references, computed once per process by package bench)
// and its virtual cost is charged to the node's CPU at a fixed flops rate.
package nas

import (
	"fmt"

	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// Env is the per-rank execution environment a kernel runs in.
type Env struct {
	W *mpi.Comm
	// Compute charges flops of computation to this node's CPU.
	Compute func(p *sim.Proc, flops float64)
}

// Kernel is one NAS benchmark.
type Kernel struct {
	Name string
	// Run executes the kernel and returns a verification checksum; every
	// rank must return the same value (kernels end with the result made
	// global).
	Run func(p *sim.Proc, env *Env) float64
	// Serial computes the reference checksum sequentially, anew on every
	// call; bench.RunNASKernelOpts memoises it per process by Name.
	Serial func() float64
	// Tol is the acceptable |distributed - serial| (0 for exact).
	Tol float64
}

// Suite returns all eight kernels in the paper's reporting order
// (LU, IS, CG, BT, FT show improvements; EP, MG, SP under 1-2%).
func Suite() []Kernel {
	return []Kernel{
		EP(), MG(), CG(), FT(), IS(), LU(), SP(), BT(),
	}
}

// ByName returns the kernel with the given (upper-case) name.
func ByName(name string) (Kernel, error) {
	for _, k := range Suite() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("nas: unknown kernel %q", name)
}

// lcg is the NAS-style linear congruential generator (a*x mod 2^46).
type lcg struct{ x uint64 }

const lcgMult = 1220703125 // 5^13, the NAS EP multiplier

func newLCG(seed uint64) *lcg { return &lcg{x: seed % (1 << 46)} }

// next returns a double in (0,1).
func (g *lcg) next() float64 {
	g.x = (g.x * lcgMult) % (1 << 46)
	return float64(g.x) / float64(uint64(1)<<46)
}

// nextN returns an integer in [0, n).
func (g *lcg) nextN(n int) int {
	return int(g.next() * float64(n))
}
