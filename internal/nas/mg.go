package nas

import (
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// MG parameters: fine-grid points, V-cycles, and smoothing sweeps.
const (
	mgRanks  = 4
	mgN      = 1 << 14
	mgCycles = 4
	mgSweeps = 2
	mgLevels = 8 // coarsen down to mgN >> (mgLevels-1) points
)

// mgSmooth performs one weighted-Jacobi sweep of the 1D Poisson operator
// on u over interior global indices [lo, hi), reading the halo cells
// u[0] (global lo-1) and u[len-1] (global hi). Arrays carry one halo cell
// on each side. prev is scratch of u's length that receives the old u.
func mgSmooth(u, prev, f []float64, gn int, lo, hi int) float64 {
	copy(prev, u)
	for i := lo; i < hi; i++ {
		j := i - lo + 1
		l, r := prev[j-1], prev[j+1]
		if i == 0 {
			l = 0
		}
		if i == gn-1 {
			r = 0
		}
		u[j] = (1-2.0/3)*prev[j] + (1.0/3)*(l+r+f[j-1])
	}
	return float64(hi-lo) * 6
}

// mgResidual computes r = f - A u over [lo, hi).
func mgResidual(r, u, f []float64, gn, lo, hi int) float64 {
	for i := lo; i < hi; i++ {
		j := i - lo + 1
		l, rr := u[j-1], u[j+1]
		if i == 0 {
			l = 0
		}
		if i == gn-1 {
			rr = 0
		}
		r[i-lo] = f[i-lo] - (2*u[j] - l - rr)
	}
	return float64(hi-lo) * 5
}

// mgGrid is one level of the distributed hierarchy: each rank owns an
// equal contiguous block.
type mgGrid struct {
	gn     int // global points at this level
	lo, hi int // this rank's rows
	u, f   []float64
	prev   []float64 // mgSmooth's copy of u
	r      []float64 // the residual
}

// MG runs V-cycles of a 1D multigrid solver. Its communication is halo
// exchanges of a single value per level per sweep — many tiny messages —
// so per Section 6.2 the stack change buys little here.
func MG() Kernel {
	exchange := func(p *sim.Proc, env *Env, u []float64, lo, hi, gn int) {
		w := env.W
		nr := w.Size()
		me := w.Rank()
		buf := make([]byte, 8)
		local := hi - lo
		if me > 0 {
			w.Sendrecv(p, mpi.Float64Slice(u[1:2]), me-1, 1, buf, me-1, 2)
			mpi.PutFloat64Slice(u[0:1], buf)
		}
		if me < nr-1 {
			w.Sendrecv(p, mpi.Float64Slice(u[local:local+1]), me+1, 2, buf, me+1, 1)
			mpi.PutFloat64Slice(u[local+1:local+2], buf)
		}
	}
	run := func(p *sim.Proc, env *Env) float64 {
		w := env.W
		nr := w.Size()
		// Build the level hierarchy.
		grids := make([]*mgGrid, mgLevels)
		for l := 0; l < mgLevels; l++ {
			gn := mgN >> l
			rows := gn / nr
			g := &mgGrid{gn: gn, lo: w.Rank() * rows, hi: (w.Rank() + 1) * rows}
			g.u = make([]float64, rows+2)
			g.prev = make([]float64, rows+2)
			g.f = make([]float64, rows)
			g.r = make([]float64, rows)
			grids[l] = g
		}
		for i := range grids[0].f {
			gi := grids[0].lo + i
			grids[0].f[i] = float64(gi%11) * 0.05
		}
		for c := 0; c < mgCycles; c++ {
			// Descend.
			for l := 0; l < mgLevels-1; l++ {
				g := grids[l]
				for s := 0; s < mgSweeps; s++ {
					exchange(p, env, g.u, g.lo, g.hi, g.gn)
					env.Compute(p, mgSmooth(g.u, g.prev, g.f, g.gn, g.lo, g.hi))
				}
				exchange(p, env, g.u, g.lo, g.hi, g.gn)
				r := g.r
				env.Compute(p, mgResidual(r, g.u, g.f, g.gn, g.lo, g.hi))
				// Full-weighting restriction to the next level (local:
				// each rank's block halves in place).
				cg := grids[l+1]
				for i := range cg.f {
					cg.f[i] = 0.5 * (r[2*i] + r[2*i+1])
				}
				for i := range cg.u {
					cg.u[i] = 0
				}
				env.Compute(p, float64(len(cg.f))*2)
			}
			// Coarsest level: extra smoothing.
			g := grids[mgLevels-1]
			for s := 0; s < 8; s++ {
				exchange(p, env, g.u, g.lo, g.hi, g.gn)
				env.Compute(p, mgSmooth(g.u, g.prev, g.f, g.gn, g.lo, g.hi))
			}
			// Ascend: prolongate (local) and smooth.
			for l := mgLevels - 2; l >= 0; l-- {
				g := grids[l]
				cg := grids[l+1]
				for i := 0; i < cg.hi-cg.lo; i++ {
					g.u[2*i+1] += cg.u[i+1]
					g.u[2*i+2] += cg.u[i+1]
				}
				env.Compute(p, float64(cg.hi-cg.lo)*2)
				for s := 0; s < mgSweeps; s++ {
					exchange(p, env, g.u, g.lo, g.hi, g.gn)
					env.Compute(p, mgSmooth(g.u, g.prev, g.f, g.gn, g.lo, g.hi))
				}
			}
		}
		// Checksum: global residual norm on the fine grid.
		g := grids[0]
		exchange(p, env, g.u, g.lo, g.hi, g.gn)
		r := g.r
		env.Compute(p, mgResidual(r, g.u, g.f, g.gn, g.lo, g.hi))
		sum := 0.0
		for _, v := range r {
			sum += v * v
		}
		out := make([]byte, 8)
		w.Allreduce(p, mpi.Float64Slice([]float64{sum}), out, mpi.Float64, mpi.OpSum)
		res := make([]float64, 1)
		mpi.PutFloat64Slice(res, out)
		return res[0]
	}
	return Kernel{
		Name: "MG",
		Tol:  1e-7,
		Run:  run,
		Serial: func() float64 {
			type grid struct {
				gn            int
				u, f, prev, r []float64
			}
			grids := make([]*grid, mgLevels)
			for l := 0; l < mgLevels; l++ {
				gn := mgN >> l
				grids[l] = &grid{gn: gn, u: make([]float64, gn+2), f: make([]float64, gn),
					prev: make([]float64, gn+2), r: make([]float64, gn)}
			}
			for i := range grids[0].f {
				grids[0].f[i] = float64(i%11) * 0.05
			}
			for c := 0; c < mgCycles; c++ {
				for l := 0; l < mgLevels-1; l++ {
					g := grids[l]
					for s := 0; s < mgSweeps; s++ {
						mgSmooth(g.u, g.prev, g.f, g.gn, 0, g.gn)
					}
					r := g.r
					mgResidual(r, g.u, g.f, g.gn, 0, g.gn)
					cg := grids[l+1]
					for i := range cg.f {
						cg.f[i] = 0.5 * (r[2*i] + r[2*i+1])
					}
					for i := range cg.u {
						cg.u[i] = 0
					}
				}
				g := grids[mgLevels-1]
				for s := 0; s < 8; s++ {
					mgSmooth(g.u, g.prev, g.f, g.gn, 0, g.gn)
				}
				for l := mgLevels - 2; l >= 0; l-- {
					g := grids[l]
					cg := grids[l+1]
					for i := 0; i < cg.gn; i++ {
						g.u[2*i+1] += cg.u[i+1]
						g.u[2*i+2] += cg.u[i+1]
					}
					for s := 0; s < mgSweeps; s++ {
						mgSmooth(g.u, g.prev, g.f, g.gn, 0, g.gn)
					}
				}
			}
			g := grids[0]
			r := g.r
			mgResidual(r, g.u, g.f, g.gn, 0, g.gn)
			sum := 0.0
			for _, v := range r {
				sum += v * v
			}
			return sum
		},
	}
}
