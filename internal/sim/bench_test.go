package sim

import "testing"

// The kernel microbenchmarks measure the wall-clock cost of the engine's
// hot paths in isolation: the schedule+dispatch cycle (events/sec), the
// timer arm/cancel cycle, and the full process park/unpark handoff behind
// Proc.Sleep. Virtual-time results are irrelevant here; only host-side
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

// BenchmarkSleep measures the full park/unpark round trip of Proc.Sleep:
// one timer event plus two token handoffs through the ctl/resume channels.
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
