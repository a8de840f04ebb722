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
	// Component c of cell (k, j, i) holds seed * ((k+jlo+j+i+c) % 19), so
	// the row whose first cell has residue r is the pattern from cell r on.
	n := adiNX * m
	pat := make([]float64, n+19*m)
	for i := 0; i < adiNX+19; i++ {
		for c := 0; c < m; c++ {
			pat[i*m+c] = seed * float64((i+c)%19)
		}
	}
	g.u = make([][]float64, adiNZ)
	for k := range g.u {
		g.u[k] = make([]float64, rows*n)
		for j := 0; j < rows; j++ {
			copy(g.u[k][j*n:(j+1)*n], pat[(k+g.jlo+j)%19*m:])
		}
	}
	return g
}

// xSweep is the local x-direction line solve (Thomas-like recurrences along
// each row): per component, u = 0.9*u + 0.05*left + 0.001 forward, then
// u -= 0.04*right backward. Components never mix and rows are independent,
// so each recurrence carries its neighbour in a register and rows go in
// fours as four dependency chains. A short last group repeats its last row:
// the chains run in step, so they read the same values and store the same
// results.
func (g *adiGrid) xSweep(k int, flopsPerCell float64) float64 {
	m := g.m
	n := adiNX * m
	u := g.u[k]
	row := func(j int) []float64 {
		j = min(j, g.rows-1)
		return u[j*n : (j+1)*n]
	}
	for j := 0; j < g.rows; j += 4 {
		a, b, c, d := row(j), row(j+1), row(j+2), row(j+3)
		b, c, d = b[:len(a)], c[:len(a)], d[:len(a)]
		for s := 0; s < m; s++ {
			pa, pb, pc, pd := a[s], b[s], c[s], d[s]
			for x := s + m; x < len(a); x += m {
				pa = 0.9*a[x] + 0.05*pa + 0.001
				pb = 0.9*b[x] + 0.05*pb + 0.001
				pc = 0.9*c[x] + 0.05*pc + 0.001
				pd = 0.9*d[x] + 0.05*pd + 0.001
				a[x], b[x], c[x], d[x] = pa, pb, pc, pd
			}
			for x := n - 2*m + s; x >= 0; x -= m {
				pa = a[x] - 0.04*pa
				pb = b[x] - 0.04*pb
				pc = c[x] - 0.04*pc
				pd = d[x] - 0.04*pd
				a[x], b[x], c[x], d[x] = pa, pb, pc, pd
			}
		}
	}
	return float64(g.rows*adiNX*m) * flopsPerCell
}

// yForward applies the forward elimination along y for plane k; halo is
// global row jlo-1 (zeros at the boundary).
func (g *adiGrid) yForward(k int, halo []float64) float64 {
	u := g.u[k]
	stride := adiNX * g.m
	below := halo
	for j := 0; j < g.rows; j++ {
		row := u[j*stride : (j+1)*stride]
		below = below[:len(row)]
		for x := range row {
			row[x] = 0.92*row[x] + 0.04*below[x] + 0.0002
		}
		below = row
	}
	return float64(g.rows*stride) * 3
}

// yBackward applies the back substitution along y; halo is global row jhi.
func (g *adiGrid) yBackward(k int, halo []float64) float64 {
	u := g.u[k]
	stride := adiNX * g.m
	above := halo
	for j := g.rows - 1; j >= 0; j-- {
		row := u[j*stride : (j+1)*stride]
		above = above[:len(row)]
		for x := range row {
			row[x] -= 0.03 * above[x]
		}
		above = row
	}
	return float64(g.rows*stride) * 2
}

// zSweep is the local z-direction recurrence across planes.
func (g *adiGrid) zSweep() float64 {
	for k := 1; k < adiNZ; k++ {
		cur := g.u[k]
		prev := g.u[k-1][:len(cur)]
		for x := range cur {
			cur[x] = 0.94*cur[x] + 0.03*prev[x]
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
