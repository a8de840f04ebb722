package nas

import (
	"math"
	"math/bits"
	"sync"
)

// fftPlan is the data-independent part of an n-point transform: the
// bit-reversal swaps and every stage's twiddles, for both directions.
type fftPlan struct {
	once  sync.Once
	swaps [][2]int32 // interleaved offsets 2i, 2j of the pairs i < j to swap
	// tw[0] (forward) and tw[1] (inverse) hold each stage's twiddles as
	// re/im pairs, stage by stage: length/2 pairs for the stage of length.
	tw [2][]float64
}

// fftPlans holds one plan per size, indexed by log2 n and built on first
// use, so a lookup allocates nothing.
var fftPlans [bits.UintSize]fftPlan

// build fills p for n points. The twiddles come from the cwr, cwi
// recurrence the butterflies used to run inline, restarted at 1 for every
// stage, so each value is bit for bit the one that recurrence produced.
func (p *fftPlan) build(n int) {
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			p.swaps = append(p.swaps, [2]int32{int32(2 * i), int32(2 * j)})
		}
	}
	for dir, sign := range [2]float64{-1, 1} {
		tw := make([]float64, 0, 2*n)
		for length := 2; length <= n; length <<= 1 {
			ang := sign * 2 * math.Pi / float64(length)
			wr, wi := math.Cos(ang), math.Sin(ang)
			cwr, cwi := 1.0, 0.0
			for k := 0; k < length/2; k++ {
				tw = append(tw, cwr, cwi)
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
		p.tw[dir] = tw
	}
}

// fft computes an in-place radix-2 decimation-in-time FFT of a complex
// vector given as interleaved re/im pairs. n must be a power of two.
// inverse applies the conjugate transform scaled by 1/n.
func fft(data []float64, inverse bool) {
	n := len(data) / 2
	if n&(n-1) != 0 {
		panic("nas: fft length must be a power of two")
	}
	if n == 0 {
		return
	}
	data = data[:2*n]
	p := &fftPlans[bits.TrailingZeros(uint(n))]
	p.once.Do(func() { p.build(n) })
	for _, s := range p.swaps {
		i, j := s[0], s[1]
		data[i], data[j] = data[j], data[i]
		data[i+1], data[j+1] = data[j+1], data[i+1]
	}
	tw := p.tw[0]
	if inverse {
		tw = p.tw[1]
	}
	for length := 2; length <= n; length <<= 1 {
		w := tw[:length]
		tw = tw[length:]
		for rest := data; len(rest) > 0; rest = rest[2*length:] {
			lo, hi := rest[:len(w)], rest[len(w):2*len(w)]
			for k := 0; k < len(w); k += 2 {
				cwr, cwi := w[k], w[k+1]
				ur, ui := lo[k], lo[k+1]
				vr := hi[k]*cwr - hi[k+1]*cwi
				vi := hi[k]*cwi + hi[k+1]*cwr
				lo[k], lo[k+1] = ur+vr, ui+vi
				hi[k], hi[k+1] = ur-vr, ui-vi
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range data {
			data[i] *= inv
		}
	}
}

// fftFlops is the approximate flop count of one n-point FFT.
func fftFlops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}
