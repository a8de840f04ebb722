package sim

import "testing"

// The kernel microbenchmarks measure the wall-clock cost of the engine's
// hot paths in isolation: the schedule+dispatch cycle (events/sec), the
// timer arm/cancel cycle, and the three prices a process wake-up can have
// (elided, in place, one coroutine switch). Virtual-time results are
// irrelevant here; only host-side
// throughput and allocs/op matter. cmd/benchmark reports the same kernels
// as its sim.*_ns per-layer metrics.

// BenchmarkEventLoop is the events/sec microbenchmark: schedule and
// dispatch b.N no-op callbacks, keeping a standing batch in the queue so
// the heap's sift paths are exercised at a realistic depth.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	const batch = 512
	b.ReportAllocs()
	b.ResetTimer()
	pending := 0
	for i := 0; i < b.N; i++ {
		e.After(Time(pending), fn)
		pending++
		if pending == batch {
			e.Run(0)
			pending = 0
		}
	}
	e.Run(0)
}

// BenchmarkTimerStop measures the arm-then-cancel cycle (the ack/rtx timer
// pattern in the transport layers): most timers never fire.
func BenchmarkTimerStop(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(64, fn)
		tm.Stop()
		if i&255 == 255 {
			e.Run(0) // drain the cancelled events
		}
	}
	e.Run(0)
}

// BenchmarkSleep measures Proc.Sleep's fast path: with nothing else pending
// the wake-up is the next pop, so the clock advances with no heap operation
// and no coroutine switch.
func BenchmarkSleep(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Run(0)
}

// BenchmarkSleepInterleaved has two processes whose wake-ups alternate, so
// no sleep can be elided and every wake-up is a real token handoff: one
// timer event plus one coroutine switch, straight from the process that
// parked to the one that wakes.
func BenchmarkSleepInterleaved(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 2; i++ {
		first, laps := Time(1+i), (b.N+1-i)/2
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(first)
			for l := 0; l < laps; l++ {
				p.Sleep(2)
			}
		})
	}
	e.Run(0)
}

// BenchmarkCallbackWake parks a process on a Cond that an At callback
// signals — the shape of a receive completed by a packet delivery. "self"
// is a lone process: the callback runs on its own coroutine and its resume
// returns in place, no switch. In "peer" two processes wake each other
// through callbacks, so each wake-up also hands the token over.
func BenchmarkCallbackWake(b *testing.B) {
	b.Run("self", func(b *testing.B) {
		e := NewEngine(1)
		var c Cond
		signal := func() { c.Signal() }
		b.ReportAllocs()
		b.ResetTimer()
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				e.After(1, signal)
				c.Wait(p)
			}
		})
		e.Run(0)
	})
	b.Run("peer", func(b *testing.B) {
		e := NewEngine(1)
		var conds [2]Cond
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < 2; i++ {
			mine, theirs := &conds[i], &conds[1-i]
			wakePeer := func() { theirs.Signal() }
			laps := (b.N + 1 - i) / 2
			e.Spawn("waiter", func(p *Proc) {
				for l := 0; l < laps; l++ {
					if i == 1 || l > 0 {
						mine.Wait(p)
					}
					e.After(1, wakePeer)
				}
			})
		}
		e.Run(0)
	})
}
