package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"splapi/internal/cluster"
	"splapi/internal/nas"
	"splapi/internal/sim"
)

var refSink float64

// TestSerialRefZeroAlloc: once a kernel's serial reference is memoised, a
// lookup allocates nothing, so every run after the first pays neither the
// reference's arithmetic nor a closure or a boxed key.
func TestSerialRefZeroAlloc(t *testing.T) {
	k, err := nas.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	want := serialRef(k)
	if allocs := testing.AllocsPerRun(100, func() { refSink = serialRef(k) }); allocs != 0 {
		t.Fatalf("memoised serialRef allocates %v objects per call, want 0", allocs)
	}
	if refSink != want {
		t.Fatalf("memoised serialRef = %v, first call %v", refSink, want)
	}
}

// onceRuns numbers TestSerialRefOncePerProcess's kernels: the memo lives
// as long as the process, so each run (-count) needs a name of its own.
var onceRuns atomic.Int32

// TestSerialRefOncePerProcess drives one kernel through RunNASKernel from
// eight goroutines at once: its serial reference is computed exactly once
// and every run verifies against it. Serial takes 50 ms, so the other runs
// reach the memo while the first computation is still in progress.
func TestSerialRefOncePerProcess(t *testing.T) {
	var calls atomic.Int32
	k := nas.Kernel{
		Name: fmt.Sprintf("serial-ref-once-%d", onceRuns.Add(1)),
		Run:  func(*sim.Proc, *nas.Env) float64 { return 42 },
		Serial: func() float64 {
			calls.Add(1)
			time.Sleep(50 * time.Millisecond)
			return 42
		},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := RunNASKernel(k, cluster.Native); !res.Verified {
				t.Errorf("checksum %v not verified against the memoised reference", res.Checksum)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("Serial ran %d times across 8 concurrent runs, want 1", n)
	}
}

// TestRunNASKernelChecksEveryRank gives one rank at a time a checksum that
// disagrees with the others: every rank's value is compared, whichever
// leaves the final barrier first.
func TestRunNASKernelChecksEveryRank(t *testing.T) {
	for bad := 0; bad < 4; bad++ {
		k := nas.Kernel{
			Name: fmt.Sprintf("checks-every-rank-%d", bad),
			Run: func(_ *sim.Proc, env *nas.Env) float64 {
				if env.W.Rank() == bad {
					return 43
				}
				return 42
			},
			Serial: func() float64 { return 42 },
		}
		if res := RunNASKernel(k, cluster.Native); res.Verified {
			t.Errorf("rank %d returned 43, the others 42: verified with checksum %v", bad, res.Checksum)
		}
	}
}
