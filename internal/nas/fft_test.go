package nas

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// dftRef is a direct O(n^2) DFT for verifying the FFT.
func dftRef(data []float64, inverse bool) []float64 {
	n := len(data) / 2
	out := make([]float64, len(data))
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			x := complex(data[2*j], data[2*j+1])
			w := cmplx.Exp(complex(0, sign*2*math.Pi*float64(k*j)/float64(n)))
			acc += x * w
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[2*k] = real(acc)
		out[2*k+1] = imag(acc)
	}
	return out
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		data := make([]float64, 2*n)
		g := newLCG(97)
		for i := range data {
			data[i] = 2*g.next() - 1
		}
		want := dftRef(data, false)
		got := append([]float64(nil), data...)
		fft(got, false)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: fft[%d]=%g, dft=%g", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundtrip(t *testing.T) {
	prop := func(seed uint32) bool {
		n := 32
		data := make([]float64, 2*n)
		g := newLCG(uint64(seed) + 1)
		for i := range data {
			data[i] = 2*g.next() - 1
		}
		out := append([]float64(nil), data...)
		fft(out, false)
		fft(out, true)
		for i := range data {
			if math.Abs(out[i]-data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	// Energy conservation: sum |x|^2 == (1/n) sum |X|^2.
	n := 128
	data := make([]float64, 2*n)
	g := newLCG(12345)
	for i := range data {
		data[i] = 2*g.next() - 1
	}
	var eIn float64
	for i := 0; i < n; i++ {
		eIn += data[2*i]*data[2*i] + data[2*i+1]*data[2*i+1]
	}
	fft(data, false)
	var eOut float64
	for i := 0; i < n; i++ {
		eOut += data[2*i]*data[2*i] + data[2*i+1]*data[2*i+1]
	}
	if math.Abs(eOut/float64(n)-eIn) > 1e-9*eIn {
		t.Fatalf("Parseval violated: in=%g out/n=%g", eIn, eOut/float64(n))
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fft must reject non-power-of-two lengths")
		}
	}()
	fft(make([]float64, 2*12), false)
}

func TestLCGProperties(t *testing.T) {
	g := newLCG(271828183)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.next()
		if v <= 0 || v >= 1 {
			t.Fatalf("sample %d out of (0,1): %g", i, v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
	// Same seed reproduces the stream.
	a, b := newLCG(7), newLCG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("lcg not reproducible")
		}
	}
}

func TestLCGNextNInRange(t *testing.T) {
	prop := func(seed uint32, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		g := newLCG(uint64(seed))
		for i := 0; i < 50; i++ {
			v := g.nextN(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSerialChecksumsStable(t *testing.T) {
	// Serial references must be deterministic (they anchor verification).
	for _, k := range Suite() {
		a, b := k.Serial(), k.Serial()
		if a != b {
			t.Fatalf("%s serial reference nondeterministic: %g vs %g", k.Name, a, b)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("%s serial checksum is %g", k.Name, a)
		}
	}
}

// recurrenceFFT is fft with its twiddles computed inline by the cwr, cwi
// recurrence, restarted for every block. It exists only here: the planned
// transform must match it bit for bit.
func recurrenceFFT(data []float64, inverse bool) {
	n := len(data) / 2
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			data[2*i], data[2*j] = data[2*j], data[2*i]
			data[2*i+1], data[2*j+1] = data[2*j+1], data[2*i+1]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cwr, cwi := 1.0, 0.0
			for k := 0; k < length/2; k++ {
				a, b := start+k, start+k+length/2
				ur, ui := data[2*a], data[2*a+1]
				vr := data[2*b]*cwr - data[2*b+1]*cwi
				vi := data[2*b]*cwi + data[2*b+1]*cwr
				data[2*a], data[2*a+1] = ur+vr, ui+vi
				data[2*b], data[2*b+1] = ur-vr, ui-vi
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
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

// TestFFTMatchesRecurrence holds the planned transform to the inline
// recurrence bit for bit, for every power of two up to 256, both ways.
func TestFFTMatchesRecurrence(t *testing.T) {
	for n := 1; n <= 256; n *= 2 {
		for _, inverse := range []bool{false, true} {
			data := field(2*n, uint64(n)*3+1)
			want := append([]float64(nil), data...)
			fft(data, inverse)
			recurrenceFFT(want, inverse)
			sameBits(t, fmt.Sprintf("n=%d inverse=%v", n, inverse), data, want)
		}
	}
}

// TestFFTPlanZeroAlloc: once its plan is built, a transform allocates
// nothing.
func TestFFTPlanZeroAlloc(t *testing.T) {
	data := field(2*ftN, 5)
	fft(data, false)
	if a := testing.AllocsPerRun(100, func() { fft(data, false); fft(data, true) }); a != 0 {
		t.Fatalf("planned fft allocates %v objects per forward+inverse pair", a)
	}
}

// BenchmarkFFT times one forward transform, planned and inline-recurrence.
func BenchmarkFFT(b *testing.B) {
	data := field(2*ftN, 9)
	for _, c := range []struct {
		name string
		fn   func([]float64, bool)
	}{{"128", fft}, {"recurrence_128", recurrenceFFT}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn(data, false)
			}
		})
	}
}
