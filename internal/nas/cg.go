package nas

import (
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// CG parameters: global unknowns, matrix half-bandwidth, and iterations.
// The band of 256 makes each halo exchange a 2 KB message — CG's signature
// neighbor traffic.
const (
	cgRanks = 4
	cgN     = 16384
	cgBand  = 256
	cgIters = 12
)

// cgMatvecDot computes y = A x for the symmetric banded test matrix
//
//	A[i][i] = 2.5 + (i mod 7) * 0.01,  A[i][i±band] = -1
//
// over global rows [lo, hi), and the dot product of x's owned window with
// y, accumulated in cgDot's order. x must cover [lo-band, hi+band) clamped
// to the domain, indexed so that x[i-lo+band] is global element i.
func cgMatvecDot(y, x []float64, lo, hi int) (dot, flops float64) {
	a := min(max(lo, cgBand), hi)    // rows [lo, a) lack x[i-band]
	b := max(min(hi, cgN-cgBand), a) // rows [b, hi) lack x[i+band]
	dot = cgRows(y[:a-lo], cgZeros, x[cgBand:], x[2*cgBand:], lo, 0)
	dot = cgRows(y[a-lo:b-lo], x[a-lo:], x[a-lo+cgBand:], x[a-lo+2*cgBand:], a, dot)
	dot = cgRows(y[b-lo:hi-lo], x[b-lo:], x[b-lo+cgBand:], cgZeros, b, dot)
	return dot, float64(hi-lo) * 6
}

// cgZeros stands in for a missing neighbour: v - 0 is v exactly, so a row
// that subtracts it computes what one that skips the subtraction does.
var cgZeros = make([]float64, cgBand)

// cgRows sets y[j] = (diag*xc[j] - xl[j]) - xr[j] for global rows row,
// row+1, ... and returns dot + the sum of xc[j]*y[j], added in row order.
// The diagonal repeats every 7 rows, so it runs blocks of 7 rows against a
// table rotated to row: no branch or bounds check inside a block.
func cgRows(y, xl, xc, xr []float64, row int, dot float64) float64 {
	var d [7]float64
	for k := range d {
		d[k] = 2.5 + float64((row+k)%7)*0.01
	}
	xl, xc, xr = xl[:len(y)], xc[:len(y)], xr[:len(y)]
	for ; len(y) >= 7; y, xl, xc, xr = y[7:], xl[7:], xc[7:], xr[7:] {
		y7, l7, c7, r7 := (*[7]float64)(y), (*[7]float64)(xl), (*[7]float64)(xc), (*[7]float64)(xr)
		for k := range y7 {
			y7[k] = d[k]*c7[k] - l7[k] - r7[k]
			dot += c7[k] * y7[k]
		}
	}
	for k := range y {
		y[k] = d[k]*xc[k] - xl[k] - xr[k]
		dot += xc[k] * y[k]
	}
	return dot
}

// cgUpdateDot applies x += alpha*d and r -= alpha*q, and returns r·r
// accumulated in cgDot's order; x and d are owned windows.
func cgUpdateDot(x, r, d, q []float64, alpha float64) float64 {
	r, d, q = r[:len(x)], d[:len(x)], q[:len(x)]
	rr := 0.0
	for i := range x {
		x[i] += alpha * d[i]
		r[i] -= alpha * q[i]
		rr += r[i] * r[i]
	}
	return rr
}

// cgDirection sets d = r + beta*d; d is an owned window.
func cgDirection(d, r []float64, beta float64) {
	r = r[:len(d)]
	for i := range d {
		d[i] = r[i] + beta*d[i]
	}
}

func cgDot(a, b []float64) (float64, float64) {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s, float64(2 * len(a))
}

// CG runs conjugate-gradient iterations on the banded system: every matvec
// exchanges band-wide halos with both neighbors and every dot product is a
// global reduction (Section 6.2 reports a solid improvement for CG).
func CG() Kernel {
	run := func(p *sim.Proc, env *Env) float64 {
		w := env.W
		nr := w.Size()
		rows := cgN / nr
		lo, hi := w.Rank()*rows, (w.Rank()+1)*rows

		// Local vectors; x carries halo wings of cgBand on each side.
		haloBuf := make([]byte, 8*cgBand)
		x := make([]float64, rows+2*cgBand)
		r := make([]float64, rows)
		d := make([]float64, rows+2*cgBand)
		q := make([]float64, rows)
		for i := 0; i < rows; i++ {
			r[i] = 1.0 + float64((lo+i)%13)*0.1 // b, with x0 = 0
			d[i+cgBand] = r[i]
		}

		allreduce1 := func(v float64) float64 {
			out := make([]byte, 8)
			w.Allreduce(p, mpi.Float64Slice([]float64{v}), out, mpi.Float64, mpi.OpSum)
			res := make([]float64, 1)
			mpi.PutFloat64Slice(res, out)
			return res[0]
		}
		// exchangeHalo fills v's wings from the neighbors' edge bands.
		exchangeHalo := func(v []float64) {
			me := w.Rank()
			if me > 0 {
				w.Sendrecv(p,
					mpi.Float64Slice(v[cgBand:2*cgBand]), me-1, 1,
					haloBuf, me-1, 2)
				mpi.PutFloat64Slice(v[:cgBand], haloBuf)
			}
			if me < nr-1 {
				w.Sendrecv(p,
					mpi.Float64Slice(v[rows:rows+cgBand]), me+1, 2,
					haloBuf, me+1, 1)
				mpi.PutFloat64Slice(v[rows+cgBand:], haloBuf)
			}
		}

		rho, fl := cgDot(r, r)
		env.Compute(p, fl)
		rho = allreduce1(rho)
		for it := 0; it < cgIters; it++ {
			exchangeHalo(d)
			// The dot products ride in the loops that produce q and r; their
			// flops are still charged apart, as separate steps.
			dq, fl := cgMatvecDot(q, d, lo, hi)
			env.Compute(p, fl)
			env.Compute(p, float64(2*rows))
			alpha := rho / allreduce1(dq)
			rhoNew := cgUpdateDot(x[cgBand:cgBand+rows], r, d[cgBand:cgBand+rows], q, alpha)
			env.Compute(p, float64(4*rows))
			env.Compute(p, float64(2*rows))
			rhoNew = allreduce1(rhoNew)
			beta := rhoNew / rho
			rho = rhoNew
			cgDirection(d[cgBand:cgBand+rows], r, beta)
			env.Compute(p, float64(2*rows))
		}
		sum, _ := cgDot(x[cgBand:cgBand+rows], x[cgBand:cgBand+rows])
		return allreduce1(sum) + rho
	}
	return Kernel{
		Name: "CG",
		Tol:  1e-5, // reduction order differs between tree and serial sums
		Run:  run,
		Serial: func() float64 {
			x := make([]float64, cgN+2*cgBand)
			r := make([]float64, cgN)
			d := make([]float64, cgN+2*cgBand)
			q := make([]float64, cgN)
			for i := 0; i < cgN; i++ {
				r[i] = 1.0 + float64(i%13)*0.1
				d[i+cgBand] = r[i]
			}
			rho, _ := cgDot(r, r)
			for it := 0; it < cgIters; it++ {
				dq, _ := cgMatvecDot(q, d, 0, cgN)
				alpha := rho / dq
				rhoNew := cgUpdateDot(x[cgBand:cgBand+cgN], r, d[cgBand:cgBand+cgN], q, alpha)
				beta := rhoNew / rho
				rho = rhoNew
				cgDirection(d[cgBand:cgBand+cgN], r, beta)
			}
			sum, _ := cgDot(x[cgBand:cgBand+cgN], x[cgBand:cgBand+cgN])
			return sum + rho
		},
	}
}
