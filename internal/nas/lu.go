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
	// Cell (k, j, i) holds ((k+jlo+j+i) % 17) * 0.1, so the row whose first
	// cell has residue r is the pattern from r on.
	var pat [luNX + 17]float64
	for x := range pat {
		pat[x] = float64(x%17) * 0.1
	}
	g.u = make([][]float64, luNZ)
	for k := range g.u {
		g.u[k] = make([]float64, rows*luNX)
		for j := 0; j < rows; j++ {
			copy(g.u[k][j*luNX:(j+1)*luNX], pat[(k+g.jlo+j)%17:])
		}
	}
	return g
}

// row is row j of plane k.
func (g *luGrid) row(k, j int) *[luNX]float64 { return (*[luNX]float64)(g.u[k][j*luNX:]) }

// rows4 returns the four rows j, j+dj, j+2dj, j+3dj of plane k; rows
// outside the block are the throwaway rows of spare.
func (g *luGrid) rows4(k, j, dj int, spare *[3][luNX]float64) (r [4]*[luNX]float64) {
	for c := range r {
		if jc := j + c*dj; jc >= 0 && jc < g.rows {
			r[c] = g.row(k, jc)
		} else {
			r[c] = &spare[c-1]
		}
	}
	return r
}

// lower and upper are the LU sweeps' element updates over final neighbours.
func lower(u, below, left float64) float64  { return 0.96*u + 0.02*(below+left) + 0.001 }
func upper(u, above, right float64) float64 { return 0.96*u + 0.02*(above+right) - 0.0005 }

// luLower applies the lower-triangular SSOR sweep to plane k of the block.
// halo is global row jlo-1 of the plane (zeros at the domain boundary).
// Element (j, i) needs only final (j-1, i) and (j, i-1), so rows go in
// fours as four dependency chains, each one column behind the row below it
// and carrying its left neighbour in a register. Every step advances all
// chains from the previous step's values, then stores. A short last group
// runs its missing rows as throwaway rows.
func (g *luGrid) luLower(k int, halo []float64) float64 {
	below := (*[luNX]float64)(halo)
	var spare [3][luNX]float64
	const e = luNX - 1
	for j := 0; j < g.rows; j += 4 {
		r := g.rows4(k, j, 1, &spare)
		r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
		l0, l1, l2, l3 := 0.0, 0.0, 0.0, 0.0
		l0 = lower(r0[0], below[0], l0)
		r0[0] = l0
		l1, l0 = lower(r1[0], l0, l1), lower(r0[1], below[1], l0)
		r1[0], r0[1] = l1, l0
		l2, l1, l0 = lower(r2[0], l1, l2), lower(r1[1], l0, l1), lower(r0[2], below[2], l0)
		r2[0], r1[1], r0[2] = l2, l1, l0
		for i := 3; i < luNX; i++ {
			l3, l2, l1, l0 = lower(r3[i-3], l2, l3), lower(r2[i-2], l1, l2), lower(r1[i-1], l0, l1), lower(r0[i], below[i], l0)
			r3[i-3], r2[i-2], r1[i-1], r0[i] = l3, l2, l1, l0
		}
		l3, l2, l1 = lower(r3[e-2], l2, l3), lower(r2[e-1], l1, l2), lower(r1[e], l0, l1)
		r3[e-2], r2[e-1], r1[e] = l3, l2, l1
		l3, l2 = lower(r3[e-1], l2, l3), lower(r2[e], l1, l2)
		r3[e-1], r2[e] = l3, l2
		r3[e] = lower(r3[e], l2, l3)
		below = r3
	}
	return float64(g.rows * luNX * 5)
}

// luUpper applies the upper-triangular sweep, luLower mirrored: each element
// is 0.96*u + 0.02*(above+right) - 0.0005; halo is global row jhi.
func (g *luGrid) luUpper(k int, halo []float64) float64 {
	above := (*[luNX]float64)(halo)
	var spare [3][luNX]float64
	const e = luNX - 1
	for j := g.rows - 1; j >= 0; j -= 4 {
		r := g.rows4(k, j, -1, &spare)
		r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
		l0, l1, l2, l3 := 0.0, 0.0, 0.0, 0.0
		l0 = upper(r0[e], above[e], l0)
		r0[e] = l0
		l1, l0 = upper(r1[e], l0, l1), upper(r0[e-1], above[e-1], l0)
		r1[e], r0[e-1] = l1, l0
		l2, l1, l0 = upper(r2[e], l1, l2), upper(r1[e-1], l0, l1), upper(r0[e-2], above[e-2], l0)
		r2[e], r1[e-1], r0[e-2] = l2, l1, l0
		for i := e - 3; i >= 0; i-- {
			l3, l2, l1, l0 = upper(r3[i+3], l2, l3), upper(r2[i+2], l1, l2), upper(r1[i+1], l0, l1), upper(r0[i], above[i], l0)
			r3[i+3], r2[i+2], r1[i+1], r0[i] = l3, l2, l1, l0
		}
		l3, l2, l1 = upper(r3[2], l2, l3), upper(r2[1], l1, l2), upper(r1[0], l0, l1)
		r3[2], r2[1], r1[0] = l3, l2, l1
		l3, l2 = upper(r3[1], l2, l3), upper(r2[0], l1, l2)
		r3[1], r2[0] = l3, l2
		r3[0] = upper(r3[0], l2, l3)
		above = r3
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
