package nas

import (
	"encoding/binary"
	"math"

	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// FT parameters: a 2D complex grid, row-distributed; each iteration evolves
// the spectrum pointwise and re-transforms. The distributed transpose is an
// all-to-all of 16 KB blocks — FT's signature communication.
const (
	ftRanks = 4
	ftN     = 128 // grid is ftN x ftN complex values
	ftIters = 3
)

// ftInit fills the row-block [rlo, rhi) with the NAS-style pseudorandom
// initial condition.
func ftInit(rows []float64, rlo, rhi int) {
	for r := rlo; r < rhi; r++ {
		g := newLCG(161803398 + uint64(r)*65537)
		for c := 0; c < ftN; c++ {
			rows[((r-rlo)*ftN+c)*2] = 2*g.next() - 1
			rows[((r-rlo)*ftN+c)*2+1] = 2*g.next() - 1
		}
	}
}

// ftEvolve multiplies each element by the evolution factor
// exp(-(r²+c²) * alpha * t) as NAS FT's time evolution does.
func ftEvolve(rows []float64, rlo, rhi, t int) float64 {
	alpha := 1e-6
	for r := rlo; r < rhi; r++ {
		for c := 0; c < ftN; c++ {
			k := float64((r-ftN/2)*(r-ftN/2) + (c-ftN/2)*(c-ftN/2))
			f := math.Exp(-k * alpha * float64(t))
			i := ((r-rlo)*ftN + c) * 2
			rows[i] *= f
			rows[i+1] *= f
		}
	}
	return float64((rhi - rlo) * ftN * 8)
}

// ftRowFFTs transforms every local row in place.
func ftRowFFTs(rows []float64, nrows int, inverse bool) float64 {
	for r := 0; r < nrows; r++ {
		fft(rows[r*ftN*2:(r+1)*ftN*2], inverse)
	}
	return float64(nrows) * fftFlops(ftN)
}

// ftChecksum mixes a handful of spread-out entries.
func ftChecksum(rows []float64, rlo, rhi int) float64 {
	sum := 0.0
	for q := 0; q < 16; q++ {
		r := (5 * q) % ftN
		c := (3 * q * q) % ftN
		if r >= rlo && r < rhi {
			i := ((r-rlo)*ftN + c) * 2
			sum += rows[i] + 2*rows[i+1]
		}
	}
	return sum
}

// ftTranspose redistributes the row-distributed matrix to its transpose via
// Alltoall: rank r sends the block of columns owned by rank q and locally
// transposes each received block. Blocks are encoded straight into the send
// bytes and decoded straight from the received ones.
func ftTranspose(p *sim.Proc, env *Env, rows []float64, nrows int) {
	w := env.W
	nr := w.Size()
	blockElems := nrows * nrows // block is nrows x nrows complex
	blockBytes := blockElems * 16
	send := make([]byte, nr*blockBytes)
	for q := 0; q < nr; q++ {
		// Block destined to rank q: columns [q*nrows, (q+1)*nrows), row by
		// row.
		blk := send[q*blockBytes : (q+1)*blockBytes]
		for r := 0; r < nrows; r++ {
			src := rows[(r*ftN+q*nrows)*2 : (r*ftN+(q+1)*nrows)*2]
			out := blk[r*nrows*16 : (r+1)*nrows*16]
			for i, v := range src {
				binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
			}
		}
	}
	env.Compute(p, float64(nr*blockElems)*2)
	recv := make([]byte, nr*blockBytes)
	w.Alltoall(p, send, recv, blockBytes)
	// Reassemble transposed: element (row q*nrows+r of the original, our
	// column c) of the block from rank q lands at transpose position
	// (c, q*nrows+r), so new row c holds old column rlo+c.
	for q := 0; q < nr; q++ {
		blk := recv[q*blockBytes : (q+1)*blockBytes]
		for r := 0; r < nrows; r++ {
			in := blk[r*nrows*16 : (r+1)*nrows*16]
			for c := 0; c < nrows; c++ {
				dst := (c*ftN + q*nrows + r) * 2
				rows[dst] = math.Float64frombits(binary.LittleEndian.Uint64(in[16*c:]))
				rows[dst+1] = math.Float64frombits(binary.LittleEndian.Uint64(in[16*c+8:]))
			}
		}
	}
	env.Compute(p, float64(nr*blockElems)*2)
}

// FT is the spectral kernel: repeated 2D FFTs implemented as local row
// FFTs, a distributed transpose (all-to-all), and local FFTs again
// (Section 6.2 reports a clear improvement for FT).
func FT() Kernel {
	run := func(p *sim.Proc, env *Env) float64 {
		w := env.W
		nrows := ftN / w.Size()
		rlo := w.Rank() * nrows
		rows := make([]float64, nrows*ftN*2)
		ftInit(rows, rlo, rlo+nrows)
		sum := 0.0
		for t := 1; t <= ftIters; t++ {
			env.Compute(p, ftEvolve(rows, rlo, rlo+nrows, t))
			env.Compute(p, ftRowFFTs(rows, nrows, false))
			ftTranspose(p, env, rows, nrows)
			env.Compute(p, ftRowFFTs(rows, nrows, false))
			// After the transform the local rows hold transposed data;
			// checksum in that layout (deterministic either way).
			sum += ftChecksum(rows, rlo, rlo+nrows) * float64(t)
			// Transform back so the next evolution acts on the original
			// layout.
			env.Compute(p, ftRowFFTs(rows, nrows, true))
			ftTranspose(p, env, rows, nrows)
			env.Compute(p, ftRowFFTs(rows, nrows, true))
		}
		out := make([]byte, 8)
		w.Allreduce(p, mpi.Float64Slice([]float64{sum}), out, mpi.Float64, mpi.OpSum)
		res := make([]float64, 1)
		mpi.PutFloat64Slice(res, out)
		return res[0]
	}
	return Kernel{
		Name: "FT",
		Tol:  1e-6,
		Run:  run,
		Serial: func() float64 {
			rows := make([]float64, ftN*ftN*2)
			ftInit(rows, 0, ftN)
			transpose := func() {
				for r := 0; r < ftN; r++ {
					for c := r + 1; c < ftN; c++ {
						a, b := (r*ftN+c)*2, (c*ftN+r)*2
						rows[a], rows[b] = rows[b], rows[a]
						rows[a+1], rows[b+1] = rows[b+1], rows[a+1]
					}
				}
			}
			sum := 0.0
			for t := 1; t <= ftIters; t++ {
				ftEvolve(rows, 0, ftN, t)
				ftRowFFTs(rows, ftN, false)
				transpose()
				ftRowFFTs(rows, ftN, false)
				sum += ftChecksum(rows, 0, ftN) * float64(t)
				ftRowFFTs(rows, ftN, true)
				transpose()
				ftRowFFTs(rows, ftN, true)
			}
			return sum
		},
	}
}
