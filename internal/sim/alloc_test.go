package sim

import "testing"

// The alloc gates pin the kernel's zero-allocation steady state: once the
// event free list is warm, neither the schedule+dispatch cycle nor Sleep —
// elided by the fast path, or parked and woken by a token handoff from
// another process — may touch the heap. They skip under the race detector,
// whose instrumentation allocates.

func TestEventLoopZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := NewEngine(1)
	fn := func() {}
	e.After(1, fn)
	e.Run(0) // warm the event free list and heap capacity
	allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.Run(0)
	})
	if allocs != 0 {
		t.Errorf("After+Run cycle allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

func TestSleepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	const laps = 1000
	for _, tc := range []struct {
		name  string
		procs int // 1: every sleep takes the fast path; 2: wake-ups alternate, every one is a handoff
	}{{"fast path", 1}, {"handoff", 2}} {
		e := NewEngine(1)
		spawn := func() {
			for i := 0; i < tc.procs; i++ {
				first := Time(1 + i)
				e.Spawn("sleeper", func(p *Proc) {
					p.Sleep(first)
					for l := 0; l < laps; l++ {
						p.Sleep(2)
					}
				})
			}
		}
		spawn()
		e.Run(0)
		// Each run pays a constant spawn cost (Proc, channel, goroutine,
		// event heap churn); with the engine warm, the laps themselves must
		// add nothing, so any per-lap allocation would show up as >= laps.
		allocs := testing.AllocsPerRun(10, func() {
			spawn()
			e.Run(0)
		})
		if allocs >= laps {
			t.Errorf("%s: Sleep allocates in steady state: %.1f objects per %d-lap run", tc.name, allocs, laps)
		}
		if allocs > 32 {
			t.Errorf("%s: spawn+run fixed overhead grew to %.1f objects/run (was under 32)", tc.name, allocs)
		}
	}
}
