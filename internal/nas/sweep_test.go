package nas

import (
	"math"
	"strconv"
	"testing"
)

// The plain loops below are the sweeps written one element at a time, each
// reloading the neighbour it just stored. They exist only here: the kernels'
// sweeps must match them bit for bit on any row count.

func plainLULower(g *luGrid, k int, halo []float64) {
	u := g.u[k]
	for j := 0; j < g.rows; j++ {
		below := halo
		if j > 0 {
			below = u[(j-1)*luNX : j*luNX]
		}
		for i := 0; i < luNX; i++ {
			left := 0.0
			if i > 0 {
				left = u[j*luNX+i-1]
			}
			u[j*luNX+i] = 0.96*u[j*luNX+i] + 0.02*(below[i]+left) + 0.001
		}
	}
}

func plainLUUpper(g *luGrid, k int, halo []float64) {
	u := g.u[k]
	for j := g.rows - 1; j >= 0; j-- {
		above := halo
		if j < g.rows-1 {
			above = u[(j+1)*luNX : (j+2)*luNX]
		}
		for i := luNX - 1; i >= 0; i-- {
			right := 0.0
			if i < luNX-1 {
				right = u[j*luNX+i+1]
			}
			u[j*luNX+i] = 0.96*u[j*luNX+i] + 0.02*(above[i]+right) - 0.0005
		}
	}
}

func plainXSweep(g *adiGrid, k int) {
	u, m := g.u[k], g.m
	for j := 0; j < g.rows; j++ {
		for i := 1; i < adiNX; i++ {
			for c := 0; c < m; c++ {
				u[(j*adiNX+i)*m+c] = 0.9*u[(j*adiNX+i)*m+c] + 0.05*u[(j*adiNX+i-1)*m+c] + 0.001
			}
		}
		for i := adiNX - 2; i >= 0; i-- {
			for c := 0; c < m; c++ {
				u[(j*adiNX+i)*m+c] -= 0.04 * u[(j*adiNX+i+1)*m+c]
			}
		}
	}
}

// field fills n values from a fixed LCG stream, signed and of mixed
// magnitude, so that no rounding step is trivially exact.
func field(n int, seed uint64) []float64 {
	g := newLCG(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = (g.next() - 0.5) * math.Ldexp(1, g.nextN(20)-10)
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestSweepsMatchPlainLoops runs the LU and ADI x sweeps against the plain
// loops on row counts that exercise every remainder of the four-row groups
// (1 to 9) and a whole and a ragged 16-row block: with four ranks every
// block has 16 rows, so the kernels never reach a short group themselves.
func TestSweepsMatchPlainLoops(t *testing.T) {
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17} {
		u := field(rows*luNX, uint64(rows))
		halo := field(luNX, 99)
		a := &luGrid{u: [][]float64{u}, rows: rows}
		b := &luGrid{u: [][]float64{append([]float64(nil), u...)}, rows: rows}
		a.luLower(0, halo)
		plainLULower(b, 0, halo)
		sameBits(t, "luLower rows="+strconv.Itoa(rows), a.u[0], b.u[0])
		a.luUpper(0, halo)
		plainLUUpper(b, 0, halo)
		sameBits(t, "luUpper rows="+strconv.Itoa(rows), a.u[0], b.u[0])

		for _, m := range []int{1, 5} {
			u := field(rows*adiNX*m, uint64(100*m+rows))
			a := &adiGrid{m: m, u: [][]float64{u}, rows: rows}
			b := &adiGrid{m: m, u: [][]float64{append([]float64(nil), u...)}, rows: rows}
			a.xSweep(0, 1)
			plainXSweep(b, 0)
			sameBits(t, "xSweep m="+strconv.Itoa(m)+" rows="+strconv.Itoa(rows), a.u[0], b.u[0])
		}
	}
}

var sink float64

// BenchmarkLUSweep times the lower and the upper sweep of a 16-row plane,
// the block one LU rank owns, and the lower sweep as the plain loop.
func BenchmarkLUSweep(b *testing.B) {
	g := newLUGrid(1, luRanks)
	halo := make([]float64, luNX)
	b.Run("lower", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			sink += g.luLower(0, halo)
		}
	})
	b.Run("upper", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			sink += g.luUpper(0, halo)
		}
	})
	b.Run("plain_lower", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			plainLULower(g, 0, halo)
		}
	})
}

// BenchmarkADISweep times the x, y and z sweeps of one rank's grid for SP
// (m=1) and BT (m=5): x and y over one 16-row plane, z over all planes.
func BenchmarkADISweep(b *testing.B) {
	for _, m := range []int{1, 5} {
		g := newADIGrid(1, adiRanks, m, 0.02)
		halo := make([]float64, adiNX*m)
		for _, c := range []struct {
			name  string
			sweep func() float64
		}{
			{"x", func() float64 { return g.xSweep(0, 1) }},
			{"y", func() float64 { return g.yForward(0, halo) + g.yBackward(0, halo) }},
			{"z", g.zSweep},
		} {
			b.Run(c.name+"/m="+strconv.Itoa(m), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					sink += c.sweep()
				}
			})
		}
	}
}

// BenchmarkSerial times each kernel's serial reference computed anew: the
// cost one process pays once per kernel.
func BenchmarkSerial(b *testing.B) {
	for _, k := range Suite() {
		b.Run(k.Name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				sink += k.Serial()
			}
		})
	}
}
