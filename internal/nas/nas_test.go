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
// reference and its distributed checksum and virtual time on all five
// MPCI providers. The host arithmetic may be rewritten for speed; not one
// of these bits may move. The rdma column also catches a buffer handed to
// MPI whose allocation changed: its registration cache keys on the buffer.
func TestKernelChecksumsPinned(t *testing.T) {
	type run struct {
		sum  uint64
		time sim.Time
	}
	stacks := []cluster.Stack{cluster.Native, cluster.LAPIBase, cluster.LAPICounters, cluster.LAPIEnhanced, cluster.RDMA}
	pins := []struct {
		name   string
		serial uint64
		runs   [5]run // in the order of stacks
	}{
		{"EP", 0x410470e56c3ff788, [5]run{{0x410470e56c3ff788, 10175840}, {0x410470e56c3ff788, 10690269}, {0x410470e56c3ff788, 10542341}, {0x410470e56c3ff788, 10281166}, {0x410470e56c3ff788, 10255790}}},
		{"MG", 0x408fffea5f0d2952, [5]run{{0x408fffea5f0d298a, 20735908}, {0x408fffea5f0d298a, 31679125}, {0x408fffea5f0d298a, 21059141}, {0x408fffea5f0d298a, 20981217}, {0x408fffea5f0d298a, 20981217}}},
		{"CG", 0x41016381ead7c9ef, [5]run{{0x41016381ead7cac5, 20653072}, {0x41016381ead7cac5, 23871472}, {0x41016381ead7cac5, 21109817}, {0x41016381ead7cac5, 17310968}, {0x41016381ead7cac5, 15878621}}},
		{"FT", 0x405cac564f8db584, [5]run{{0x405cac564f8db560, 28455475}, {0x405cac564f8db560, 28360262}, {0x405cac564f8db560, 28074556}, {0x405cac564f8db560, 27104356}, {0x405cac564f8db560, 24896746}}},
		{"IS", 0x40ce3c59245cd6cc, [5]run{{0x40ce3c59245cd6cc, 24683870}, {0x40ce3c59245cd6cc, 28256581}, {0x40ce3c59245cd6cc, 25408636}, {0x40ce3c59245cd6cc, 23481296}, {0x40ce3c59245cd6cc, 23328051}}},
		{"LU", 0x4113cefcf451c943, [5]run{{0x4113cefcf451c943, 140314491}, {0x4113cefcf451c943, 146341012}, {0x4113cefcf451c943, 146081976}, {0x4113cefcf451c943, 128511108}, {0x4113cefcf451c943, 125599666}}},
		{"SP", 0x40c69689eb6e89ad, [5]run{{0x40c69689eb6e89ae, 103447967}, {0x40c69689eb6e89ae, 105996678}, {0x40c69689eb6e89ae, 105711272}, {0x40c69689eb6e89ae, 98383272}, {0x40c69689eb6e89ae, 97087780}}},
		{"BT", 0x40c2be0b90fc01df, [5]run{{0x40c2be0b90fc01de, 271706767}, {0x40c2be0b90fc01de, 254991530}, {0x40c2be0b90fc01de, 254706124}, {0x40c2be0b90fc01de, 246169220}, {0x40c2be0b90fc01de, 244833460}}},
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
			for i, stack := range stacks {
				res := bench.RunNASKernel(k, stack)
				want := pin.runs[i]
				if got := (run{math.Float64bits(res.Checksum), res.Time}); got != want || !res.Verified {
					t.Errorf("%v: checksum %016x / %d ns (verified %v), want %016x / %d ns",
						stack, got.sum, got.time, res.Verified, want.sum, want.time)
				}
			}
		})
	}
}
