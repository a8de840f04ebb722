// Multi-engine parallel-safety tests. The sweep harness (internal/sweep)
// runs many engines concurrently on a worker pool; that is only sound if
// an Engine and everything above it — the whole protocol stack — shares no
// hidden mutable state (package-level RNGs, caches, counters) across
// instances. These tests run full-stack workloads on several engines at
// once and demand bit-identical virtual-time results against serial
// execution.
//
// This is an external test package so it can drive the real stacks through
// internal/cluster without an import cycle.
package sim_test

import (
	"sync"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// pingRing runs a small mixed-size ring exchange on a fresh cluster and
// returns the final virtual time — a single number that digests the entire
// event schedule (any divergence anywhere in the run shifts it).
func pingRing(stack cluster.Stack, seed int64, drop float64) sim.Time {
	par := machine.SP332()
	par.EagerLimit = 78
	par.Faults = faults.Uniform(drop, 0)
	c := cluster.New(cluster.Config{Nodes: 4, Stack: stack, Seed: seed, Params: &par})
	return c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		for round, sz := range []int{16, 78, 1024, 8192} {
			buf := make([]byte, sz)
			w.Sendrecv(p, buf, next, round, make([]byte, sz), prev, round)
		}
		w.Barrier(p)
	})
}

// concurrently runs fn(0), ..., fn(n-1) on n goroutines at once and waits
// for them all.
func concurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//simlint:allow baregoroutine these tests race whole engines against each other on purpose
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// TestConcurrentEnginesBitIdentical runs >= 4 independent engines in
// goroutines — different stacks, seeds, and fault settings, all active at
// the same time — and asserts every one reproduces the virtual time its
// serial twin produced.
func TestConcurrentEnginesBitIdentical(t *testing.T) {
	type config struct {
		stack cluster.Stack
		seed  int64
		drop  float64
	}
	var configs []config
	for _, stack := range []cluster.Stack{cluster.Native, cluster.LAPIBase, cluster.LAPICounters, cluster.LAPIEnhanced} {
		for _, seed := range []int64{1, 7} {
			configs = append(configs, config{stack, seed, 0})
		}
		configs = append(configs, config{stack, 3, 0.002})
	}

	// Serial reference pass.
	want := make([]sim.Time, len(configs))
	for i, c := range configs {
		want[i] = pingRing(c.stack, c.seed, c.drop)
		if want[i] == 0 {
			t.Fatalf("config %d finished at virtual time 0", i)
		}
	}

	// Concurrent pass: all engines live at once.
	got := make([]sim.Time, len(configs))
	concurrently(len(configs), func(i int) {
		c := configs[i]
		got[i] = pingRing(c.stack, c.seed, c.drop)
	})

	for i, c := range configs {
		if got[i] != want[i] {
			t.Errorf("config %d (stack=%v seed=%d drop=%g): concurrent run ended at %v, serial at %v — engines share state",
				i, c.stack, c.seed, c.drop, got[i], want[i])
		}
	}
}

// TestConcurrentSameConfigEngines runs many engines with the *same*
// configuration concurrently: identical universes must stay identical even
// while racing each other for the host CPU.
func TestConcurrentSameConfigEngines(t *testing.T) {
	const n = 8
	want := pingRing(cluster.LAPIEnhanced, 42, 0.001)
	got := make([]sim.Time, n)
	concurrently(n, func(i int) { got[i] = pingRing(cluster.LAPIEnhanced, 42, 0.001) })
	for i := 0; i < n; i++ {
		if got[i] != want {
			t.Errorf("replica %d ended at %v, want %v", i, got[i], want)
		}
	}
}
