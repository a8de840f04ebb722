package nas

import (
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// LU parameters: grid extents (nx columns, ny rows distributed across
// ranks, nz planes) and SSOR iterations. The wavefront sends one nx-wide
// row boundary (2 KB) per plane per sweep — the pipelined small-message
// pattern that makes LU latency-sensitive (Section 6.2 reports one of the
// largest improvements for it).
const (
	luRanks = 4
	luNX    = 256
	luNY    = 64
	luNZ    = 24
	luIters = 6
)

// luGrid is a rank's block of rows for all planes:
// u[k][j][i] with j local.
type luGrid struct {
	u          [][]float64 // [nz][(rows)*nx]
	rows       int
	jlo        int
	haloBottom []float64 // row jlo-1 of each plane during lower sweeps
	haloTop    []float64 // row jhi of each plane during upper sweeps
}

func newLUGrid(rank, nranks int) *luGrid {
	rows := luNY / nranks
	g := &luGrid{rows: rows, jlo: rank * rows, haloBottom: make([]float64, luNX), haloTop: make([]float64, luNX)}
	g.u = make([][]float64, luNZ)
	for k := range g.u {
		g.u[k] = make([]float64, rows*luNX)
		for j := 0; j < rows; j++ {
			r := (k + g.jlo + j) % 17 // (k+jlo+j+i) % 17 as a running residue
			for x := j * luNX; x < (j+1)*luNX; x++ {
				g.u[k][x] = float64(r) * 0.1
				if r++; r == 17 {
					r = 0
				}
			}
		}
	}
	return g
}

// row is row j of plane k.
func (g *luGrid) row(k, j int) *[luNX]float64 { return (*[luNX]float64)(g.u[k][j*luNX:]) }

// luLower applies the lower-triangular SSOR sweep to plane k of the block.
// halo is global row jlo-1 of the plane (zeros at the domain boundary).
// Each element is 0.96*u + 0.02*(below+left) + 0.001 over final neighbours.
// Rows go in pairs as two dependency chains, the upper one a column behind
// (element (j+1, i-1) needs only (j, i-1) and (j+1, i-2)), and each chain
// carries its left neighbour in a register.
func (g *luGrid) luLower(k int, halo []float64) float64 {
	below := (*[luNX]float64)(halo)
	var spare [luNX]float64 // an odd last row pairs with a throwaway row
	for j := 0; j < g.rows; j += 2 {
		r0, r1 := g.row(k, j), &spare
		if j+1 < g.rows {
			r1 = g.row(k, j+1)
		}
		l0, l1 := 0.0, 0.0
		for i := 0; i < luNX; i++ {
			if i > 0 {
				l1 = 0.96*r1[i-1] + 0.02*(l0+l1) + 0.001
				r1[i-1] = l1
			}
			l0 = 0.96*r0[i] + 0.02*(below[i]+l0) + 0.001
			r0[i] = l0
		}
		r1[luNX-1] = 0.96*r1[luNX-1] + 0.02*(l0+l1) + 0.001
		below = r1
	}
	return float64(g.rows * luNX * 5)
}

// luUpper applies the upper-triangular sweep, luLower mirrored: each element
// is 0.96*u + 0.02*(above+right) - 0.0005; halo is global row jhi.
func (g *luGrid) luUpper(k int, halo []float64) float64 {
	above := (*[luNX]float64)(halo)
	var spare [luNX]float64
	for j := g.rows - 1; j >= 0; j -= 2 {
		r0, r1 := g.row(k, j), &spare
		if j > 0 {
			r1 = g.row(k, j-1)
		}
		l0, l1 := 0.0, 0.0
		for i := luNX - 1; i >= 0; i-- {
			if i < luNX-1 {
				l1 = 0.96*r1[i+1] + 0.02*(l0+l1) - 0.0005
				r1[i+1] = l1
			}
			l0 = 0.96*r0[i] + 0.02*(above[i]+l0) - 0.0005
			r0[i] = l0
		}
		r1[0] = 0.96*r1[0] + 0.02*(l0+l1) - 0.0005
		above = r1
	}
	return float64(g.rows * luNX * 5)
}

func (g *luGrid) norm() float64 {
	s := 0.0
	for k := range g.u {
		for _, v := range g.u[k] {
			s += v * v
		}
	}
	return s
}

// LU is the SSOR wavefront kernel.
func LU() Kernel {
	zeros := make([]float64, luNX)
	run := func(p *sim.Proc, env *Env) float64 {
		w := env.W
		me, nr := w.Rank(), w.Size()
		g := newLUGrid(me, nr)
		buf := make([]byte, 8*luNX)
		for it := 0; it < luIters; it++ {
			// Lower sweep: wavefront flows from rank 0 upward, pipelined
			// over the nz planes.
			for k := 0; k < luNZ; k++ {
				halo := zeros
				if me > 0 {
					w.Recv(p, buf, me-1, 100+k)
					mpi.PutFloat64Slice(g.haloBottom, buf)
					halo = g.haloBottom
				}
				env.Compute(p, g.luLower(k, halo))
				if me < nr-1 {
					top := g.u[k][(g.rows-1)*luNX:]
					w.Send(p, mpi.Float64Slice(top), me+1, 100+k)
				}
			}
			// Upper sweep: wavefront flows back down.
			for k := 0; k < luNZ; k++ {
				halo := zeros
				if me < nr-1 {
					w.Recv(p, buf, me+1, 200+k)
					mpi.PutFloat64Slice(g.haloTop, buf)
					halo = g.haloTop
				}
				env.Compute(p, g.luUpper(k, halo))
				if me > 0 {
					bottom := g.u[k][:luNX]
					w.Send(p, mpi.Float64Slice(bottom), me-1, 200+k)
				}
			}
		}
		out := make([]byte, 8)
		w.Allreduce(p, mpi.Float64Slice([]float64{g.norm()}), out, mpi.Float64, mpi.OpSum)
		res := make([]float64, 1)
		mpi.PutFloat64Slice(res, out)
		return res[0]
	}
	return Kernel{
		Name: "LU",
		Tol:  1e-6,
		Run:  run,
		Serial: func() float64 {
			gs := make([]*luGrid, luRanks)
			for r := range gs {
				gs[r] = newLUGrid(r, luRanks)
			}
			for it := 0; it < luIters; it++ {
				for k := 0; k < luNZ; k++ {
					for r := 0; r < luRanks; r++ {
						halo := zeros
						if r > 0 {
							halo = gs[r-1].u[k][(gs[r-1].rows-1)*luNX:]
						}
						gs[r].luLower(k, halo)
					}
				}
				for k := 0; k < luNZ; k++ {
					for r := luRanks - 1; r >= 0; r-- {
						halo := zeros
						if r < luRanks-1 {
							halo = gs[r+1].u[k][:luNX]
						}
						gs[r].luUpper(k, halo)
					}
				}
			}
			sum := 0.0
			for _, g := range gs {
				sum += g.norm()
			}
			return sum
		},
	}
}
