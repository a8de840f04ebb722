package nas

import (
	"fmt"
	"testing"
)

// plainCGMatvec is cgMatvecDot's product written one row at a time, testing both
// neighbours against the domain on every row. It exists only here: the
// kernel's split matvec must match it bit for bit on any row range.
func plainCGMatvec(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := (2.5 + float64(i%7)*0.01) * x[i-lo+cgBand]
		if i-cgBand >= 0 {
			v -= x[i-lo]
		}
		if i+cgBand < cgN {
			v -= x[i-lo+2*cgBand]
		}
		y[i-lo] = v
	}
}

// cgRanges are every rank's rows for 1, 2, 4, 8 and 16 ranks, plus ranges
// narrower than 2*cgBand (and some narrower than cgBand) at both ends of
// the domain and straddling each edge/interior boundary.
func cgRanges() [][2]int {
	var rs [][2]int
	for _, nr := range []int{1, 2, 4, 8, 16} {
		rows := cgN / nr
		for r := 0; r < nr; r++ {
			rs = append(rs, [2]int{r * rows, (r + 1) * rows})
		}
	}
	for _, w := range []int{0, 1, 7, cgBand - 1, cgBand, cgBand + 1, 2*cgBand - 1} {
		rs = append(rs, [2]int{0, w}, [2]int{cgN - w, cgN})
	}
	for _, at := range []int{cgBand, cgN - cgBand} {
		rs = append(rs, [2]int{at - 3, at + 5}, [2]int{at - 1, at}, [2]int{at, at + 1})
	}
	return rs
}

func TestCGMatvecMatchesPlainLoop(t *testing.T) {
	for _, r := range cgRanges() {
		lo, hi := r[0], r[1]
		// x covers [lo-band, hi+band); wings outside the domain hold values
		// the matvec must never read into y.
		x := field(hi-lo+2*cgBand, uint64(lo*31+hi))
		got, want := field(hi-lo, 1), field(hi-lo, 1)
		cgMatvecDot(got, x, lo, hi)
		plainCGMatvec(want, x, lo, hi)
		sameBits(t, fmt.Sprintf("rows [%d, %d)", lo, hi), got, want)
	}
}

// TestCGFusedDotsMatchSeparateLoops holds the dot products folded into the
// matvec and the update to cgDot over the vectors the plain loops produce,
// bit for bit, on every rank's rows for 1, 2, 4, 8 and 16 ranks.
func TestCGFusedDotsMatchSeparateLoops(t *testing.T) {
	for _, nr := range []int{1, 2, 4, 8, 16} {
		rows := cgN / nr
		for rank := 0; rank < nr; rank++ {
			lo, hi := rank*rows, (rank+1)*rows
			what := fmt.Sprintf("%d ranks, rows [%d, %d)", nr, lo, hi)
			x := field(rows+2*cgBand, uint64(lo*31+hi))
			q, want := make([]float64, rows), make([]float64, rows)
			dq, _ := cgMatvecDot(q, x, lo, hi)
			plainCGMatvec(want, x, lo, hi)
			wantDQ, _ := cgDot(x[cgBand:cgBand+rows], want)
			sameBits(t, what+": d·q", []float64{dq}, []float64{wantDQ})

			xs, r, d := field(rows, 3), field(rows, 4), field(rows, 5)
			xs2, r2 := append([]float64(nil), xs...), append([]float64(nil), r...)
			rr := cgUpdateDot(xs, r, d, q, 0.37)
			for i := range xs2 {
				xs2[i] += 0.37 * d[i]
				r2[i] -= 0.37 * q[i]
			}
			wantRR, _ := cgDot(r2, r2)
			sameBits(t, what+": x", xs, xs2)
			sameBits(t, what+": r", r, r2)
			sameBits(t, what+": r·r", []float64{rr}, []float64{wantRR})
		}
	}
}

// BenchmarkCGMatvec is one whole-domain product, as the serial reference
// computes it (with its fused d·q), against the one-row loop it replaced.
func BenchmarkCGMatvec(b *testing.B) {
	x := field(cgN+2*cgBand, 7)
	y := make([]float64, cgN)
	for _, c := range []struct {
		name string
		mv   func(y, x []float64, lo, hi int)
	}{
		{"split", func(y, x []float64, lo, hi int) { cgMatvecDot(y, x, lo, hi) }},
		{"plain", plainCGMatvec},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(8 * cgN)
			for i := 0; i < b.N; i++ {
				c.mv(y, x, 0, cgN)
			}
		})
	}
}
