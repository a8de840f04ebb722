package nas

import (
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// BT and SP are ADI-style solvers: each iteration performs line solves in
// the x, y, and z directions. With rows (y) distributed, the y-direction
// forward elimination and back substitution pipeline across ranks, one
// boundary message per plane per phase. BT carries 5x5 block systems, so
// its boundary messages are five times larger (10 KB vs 2 KB) and its
// per-cell work much heavier — Section 6.2 reports a solid improvement for
// BT and an under-1-2% change for SP.
const (
	adiRanks = 4
	adiNX    = 256
	adiNY    = 64
	adiNZ    = 12
)

// adiGrid holds a rank's rows for every plane, with m components per cell.
type adiGrid struct {
	m    int
	u    [][]float64 // [nz][(rows)*nx*m]
	rows int
	jlo  int
}

func newADIGrid(rank, nranks, m int, seed float64) *adiGrid {
	rows := adiNY / nranks
	g := &adiGrid{m: m, rows: rows, jlo: rank * rows}
	g.u = make([][]float64, adiNZ)
	for k := range g.u {
		g.u[k] = make([]float64, rows*adiNX*m)
		x := 0
		for j := 0; j < rows; j++ {
			r := (k + g.jlo + j) % 19 // (k+jlo+j+i) % 19 as a running residue; rc adds c
			for i := 0; i < adiNX; i++ {
				for c, rc := 0, r; c < m; c++ {
					g.u[k][x] = seed * float64(rc)
					x++
					if rc++; rc == 19 {
						rc = 0
					}
				}
				if r++; r == 19 {
					r = 0
				}
			}
		}
	}
	return g
}

// xSweep is the local x-direction line solve (Thomas-like recurrences along
// each row): per component, u = 0.9*u + 0.05*left + 0.001 forward, then
// u -= 0.04*right backward. Components never mix and rows are independent,
// so each recurrence carries its neighbour in a register and rows go in
// pairs as two dependency chains.
func (g *adiGrid) xSweep(k int, flopsPerCell float64) float64 {
	m := g.m
	n := adiNX * m
	for j := 0; j < g.rows; j += 2 {
		a := g.u[k][j*n : (j+1)*n]
		b := a // an odd last row pairs with itself: both chains agree
		if j+1 < g.rows {
			b = g.u[k][(j+1)*n : (j+2)*n]
		}
		for c := 0; c < m; c++ {
			pa, pb := a[c], b[c]
			for x := c + m; x < n; x += m {
				pa = 0.9*a[x] + 0.05*pa + 0.001
				pb = 0.9*b[x] + 0.05*pb + 0.001
				a[x], b[x] = pa, pb
			}
			for x := n - 2*m + c; x >= 0; x -= m {
				pa = a[x] - 0.04*pa
				pb = b[x] - 0.04*pb
				a[x], b[x] = pa, pb
			}
		}
	}
	return float64(g.rows*adiNX*m) * flopsPerCell
}

// yForward applies the forward elimination along y for plane k; halo is
// global row jlo-1 (zeros at the boundary).
func (g *adiGrid) yForward(k int, halo []float64) float64 {
	u := g.u[k]
	m := g.m
	stride := adiNX * m
	for j := 0; j < g.rows; j++ {
		var below []float64
		if j == 0 {
			below = halo
		} else {
			below = u[(j-1)*stride : j*stride]
		}
		for x := 0; x < stride; x++ {
			u[j*stride+x] = 0.92*u[j*stride+x] + 0.04*below[x] + 0.0002
		}
	}
	return float64(g.rows*adiNX*m) * 3
}

// yBackward applies the back substitution along y; halo is global row jhi.
func (g *adiGrid) yBackward(k int, halo []float64) float64 {
	u := g.u[k]
	m := g.m
	stride := adiNX * m
	for j := g.rows - 1; j >= 0; j-- {
		var above []float64
		if j == g.rows-1 {
			above = halo
		} else {
			above = u[(j+1)*stride : (j+2)*stride]
		}
		for x := 0; x < stride; x++ {
			u[j*stride+x] -= 0.03 * above[x]
		}
	}
	return float64(g.rows*adiNX*m) * 2
}

// zSweep is the local z-direction recurrence across planes.
func (g *adiGrid) zSweep() float64 {
	for k := 1; k < adiNZ; k++ {
		for x := range g.u[k] {
			g.u[k][x] = 0.94*g.u[k][x] + 0.03*g.u[k-1][x]
		}
	}
	return float64((adiNZ - 1) * g.rows * adiNX * g.m * 3)
}

func (g *adiGrid) norm() float64 {
	s := 0.0
	for k := range g.u {
		for _, v := range g.u[k] {
			s += v * v
		}
	}
	return s
}

// adiKernel builds BT (m=5) or SP (m=1).
func adiKernel(name string, m, iters int, flopsPerCell float64, seed float64) Kernel {
	run := func(p *sim.Proc, env *Env) float64 {
		w := env.W
		me, nr := w.Rank(), w.Size()
		g := newADIGrid(me, nr, m, seed)
		stride := adiNX * m
		zeros := make([]float64, stride)
		buf := make([]byte, 8*stride)
		halo := make([]float64, stride)
		for it := 0; it < iters; it++ {
			for k := 0; k < adiNZ; k++ {
				env.Compute(p, g.xSweep(k, flopsPerCell))
			}
			// y forward elimination: pipeline rank 0 -> nr-1.
			for k := 0; k < adiNZ; k++ {
				h := zeros
				if me > 0 {
					w.Recv(p, buf, me-1, 300+k)
					mpi.PutFloat64Slice(halo, buf)
					h = halo
				}
				env.Compute(p, g.yForward(k, h))
				if me < nr-1 {
					w.Send(p, mpi.Float64Slice(g.u[k][(g.rows-1)*stride:]), me+1, 300+k)
				}
			}
			// y back substitution: pipeline nr-1 -> 0.
			for k := 0; k < adiNZ; k++ {
				h := zeros
				if me < nr-1 {
					w.Recv(p, buf, me+1, 400+k)
					mpi.PutFloat64Slice(halo, buf)
					h = halo
				}
				env.Compute(p, g.yBackward(k, h))
				if me > 0 {
					w.Send(p, mpi.Float64Slice(g.u[k][:stride]), me-1, 400+k)
				}
			}
			env.Compute(p, g.zSweep())
		}
		out := make([]byte, 8)
		w.Allreduce(p, mpi.Float64Slice([]float64{g.norm()}), out, mpi.Float64, mpi.OpSum)
		res := make([]float64, 1)
		mpi.PutFloat64Slice(res, out)
		return res[0]
	}
	serial := func() float64 {
		gs := make([]*adiGrid, adiRanks)
		for r := range gs {
			gs[r] = newADIGrid(r, adiRanks, m, seed)
		}
		stride := adiNX * m
		zeros := make([]float64, stride)
		for it := 0; it < iters; it++ {
			for r := 0; r < adiRanks; r++ {
				for k := 0; k < adiNZ; k++ {
					gs[r].xSweep(k, flopsPerCell)
				}
			}
			for k := 0; k < adiNZ; k++ {
				for r := 0; r < adiRanks; r++ {
					h := zeros
					if r > 0 {
						h = gs[r-1].u[k][(gs[r-1].rows-1)*stride:]
					}
					gs[r].yForward(k, h)
				}
			}
			for k := 0; k < adiNZ; k++ {
				for r := adiRanks - 1; r >= 0; r-- {
					h := zeros
					if r < adiRanks-1 {
						h = gs[r+1].u[k][:stride]
					}
					gs[r].yBackward(k, h)
				}
			}
			for r := 0; r < adiRanks; r++ {
				gs[r].zSweep()
			}
		}
		sum := 0.0
		for _, g := range gs {
			sum += g.norm()
		}
		return sum
	}
	return Kernel{Name: name, Tol: 1e-6, Run: run, Serial: serial}
}

// BT is the block-tridiagonal ADI solver (5 components per cell).
func BT() Kernel { return adiKernel("BT", 5, 4, 12, 0.02) }

// SP is the scalar-pentadiagonal ADI solver (1 component per cell).
func SP() Kernel { return adiKernel("SP", 1, 4, 30, 0.05) }
