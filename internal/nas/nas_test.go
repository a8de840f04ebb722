package nas_test

import (
	"math"
	"testing"

	"splapi/internal/bench"
	"splapi/internal/cluster"
	"splapi/internal/nas"
	"splapi/internal/sim"
)

// TestKernelsVerifyOnBothStacks checks every kernel's distributed checksum
// against its serial reference on both protocol stacks.
func TestKernelsVerifyOnBothStacks(t *testing.T) {
	for _, k := range nas.Suite() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want := k.Serial()
			for _, stack := range []cluster.Stack{cluster.Native, cluster.LAPIEnhanced} {
				res := bench.RunNASKernel(k, stack)
				if !res.Verified {
					t.Fatalf("%s on %v: checksum %g, serial %g (tol %g)",
						k.Name, stack, res.Checksum, want, k.Tol)
				}
				if res.Time <= 0 {
					t.Fatalf("%s on %v: nonpositive execution time %v", k.Name, stack, res.Time)
				}
			}
		})
	}
}

// TestKernelsDeterministic ensures the same kernel on the same stack yields
// identical virtual times across runs.
func TestKernelsDeterministic(t *testing.T) {
	k, err := nas.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	a := bench.RunNASKernel(k, cluster.LAPIEnhanced)
	b := bench.RunNASKernel(k, cluster.LAPIEnhanced)
	if a.Time != b.Time || a.Checksum != b.Checksum {
		t.Fatalf("nondeterministic: %v/%g vs %v/%g", a.Time, a.Checksum, b.Time, b.Checksum)
	}
}

// TestSection62Shape asserts the paper's qualitative Section 6.2 findings:
// the communication-heavy kernels improve materially under MPI-LAPI while
// EP and MG stay within a small band of zero.
func TestSection62Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full NAS suite in -short mode")
	}
	imp := bench.NASImprovements()
	for _, name := range []string{"LU", "IS", "CG", "BT", "FT"} {
		if imp[name] < 3 {
			t.Errorf("%s improvement = %.1f%%, want >= 3%% (Section 6.2)", name, imp[name])
		}
	}
	for _, name := range []string{"EP", "MG"} {
		if math.Abs(imp[name]) > 4 {
			t.Errorf("%s improvement = %.1f%%, want within ±4%% (Section 6.2: negligible)", name, imp[name])
		}
	}
	if imp["SP"] >= imp["BT"] {
		t.Errorf("SP improvement (%.1f%%) should stay below BT's (%.1f%%): SP's scalar messages are smaller", imp["SP"], imp["BT"])
	}
}

func TestByName(t *testing.T) {
	if _, err := nas.ByName("CG"); err != nil {
		t.Fatal(err)
	}
	if _, err := nas.ByName("XX"); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
}

// TestKernelChecksumsPinned pins, bit for bit, every kernel's serial
// reference and its distributed checksum and virtual time on the native
// and MPI-LAPI Enhanced stacks. The host arithmetic may be rewritten for
// speed; not one of these bits may move.
func TestKernelChecksumsPinned(t *testing.T) {
	type run struct {
		sum  uint64
		time sim.Time
	}
	pins := []struct {
		name     string
		serial   uint64
		native   run
		enhanced run
	}{
		{"EP", 0x410470e56c3ff788, run{0x410470e56c3ff788, 10175840}, run{0x410470e56c3ff788, 10281166}},
		{"MG", 0x408fffea5f0d2952, run{0x408fffea5f0d298a, 20735908}, run{0x408fffea5f0d298a, 20981217}},
		{"CG", 0x41016381ead7c9ef, run{0x41016381ead7cac5, 20653072}, run{0x41016381ead7cac5, 17310968}},
		{"FT", 0x405cac564f8db584, run{0x405cac564f8db560, 28455475}, run{0x405cac564f8db560, 27104356}},
		{"IS", 0x40ce3c59245cd6cc, run{0x40ce3c59245cd6cc, 24683870}, run{0x40ce3c59245cd6cc, 23481296}},
		{"LU", 0x4113cefcf451c943, run{0x4113cefcf451c943, 140314491}, run{0x4113cefcf451c943, 128511108}},
		{"SP", 0x40c69689eb6e89ad, run{0x40c69689eb6e89ae, 103447967}, run{0x40c69689eb6e89ae, 98383272}},
		{"BT", 0x40c2be0b90fc01df, run{0x40c2be0b90fc01de, 271706767}, run{0x40c2be0b90fc01de, 246169220}},
	}
	if len(pins) != len(nas.Suite()) {
		t.Fatalf("%d pins for %d kernels", len(pins), len(nas.Suite()))
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			k, err := nas.ByName(pin.name)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(k.Serial()); got != pin.serial {
				t.Errorf("serial = %016x, want %016x", got, pin.serial)
			}
			for _, c := range []struct {
				stack cluster.Stack
				want  run
			}{{cluster.Native, pin.native}, {cluster.LAPIEnhanced, pin.enhanced}} {
				res := bench.RunNASKernel(k, c.stack)
				if got := (run{math.Float64bits(res.Checksum), res.Time}); got != c.want {
					t.Errorf("%v: checksum %016x / %d ns, want %016x / %d ns",
						c.stack, got.sum, got.time, c.want.sum, c.want.time)
				}
			}
		})
	}
}
