package sim

import (
	"errors"
	"runtime"
	"testing"
)

// Scheduling edge cases of token-passing dispatch and the Sleep fast path
// (DESIGN.md "Token-passing dispatch"). The golden digests pin the total
// order wholesale; these name the individual obligations.

// TestSleepTieLetsOlderEventRunFirst: an event pending at exactly now+d was
// scheduled before the sleeper's wake-up, so it runs first. The fast path's
// comparison is strict for this reason.
func TestSleepTieLetsOlderEventRunFirst(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Spawn("sleeper", func(p *Proc) {
		e.At(p.Now()+10, func() { order = append(order, "callback") })
		p.Sleep(10)
		order = append(order, "sleeper")
	})
	if n := e.Run(0); n != 3 {
		t.Errorf("Run executed %d events, want 3 (start, callback, resume)", n)
	}
	if len(order) != 2 || order[0] != "callback" {
		t.Fatalf("order = %v, want the older same-time callback first", order)
	}
}

// TestSleepAcrossHorizon: a wake-up beyond the horizon is not taken early.
// The clock stops at the horizon, Run's shutdown kills the sleeper, and its
// resume event stays queued: a later Run counts it and skips it.
func TestSleepAcrossHorizon(t *testing.T) {
	e := NewEngine(1)
	var woke, exited bool
	e.Spawn("sleeper", func(p *Proc) {
		p.OnExit(func() { exited = true })
		p.Sleep(10) // fast path: nothing else is pending
		p.Sleep(10) // wake-up at 20 lies beyond the horizon
		woke = true
	})
	fired := Time(-1)
	e.At(30, func() { fired = e.Now() })
	if n := e.Run(15); n != 2 {
		t.Errorf("first Run executed %d events, want 2 (start and the sleep to 10)", n)
	}
	if e.Now() != 15 {
		t.Errorf("clock = %v after the horizon run, want 15", e.Now())
	}
	if woke || !exited || e.LiveProcs() != 0 {
		t.Errorf("sleeper woke=%v exited=%v live=%d, want it killed at the horizon", woke, exited, e.LiveProcs())
	}
	if e.Idle() {
		t.Fatal("events beyond the horizon were dropped")
	}
	if n := e.Run(0); n != 2 {
		t.Errorf("second Run executed %d events, want 2 (stale resume, callback)", n)
	}
	if woke || fired != 30 {
		t.Errorf("woke=%v, callback at %v; want the dead sleeper skipped and the callback at 30", woke, fired)
	}
}

// TestStopThenSleepKillsProc: once Stop is called the clock must not move,
// so the fast path is off and the sleeper is killed by Run's shutdown.
func TestStopThenSleepKillsProc(t *testing.T) {
	e := NewEngine(1)
	var resumed, exited bool
	e.Spawn("p", func(p *Proc) {
		p.OnExit(func() { exited = true })
		p.Sleep(5)
		e.Stop()
		p.Sleep(5)
		resumed = true
	})
	e.Run(0)
	if resumed || !exited {
		t.Errorf("resumed=%v exited=%v, want the proc killed in its Sleep after Stop", resumed, exited)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5: Sleep after Stop must not advance it", e.Now())
	}
}

// TestCancelledTopDoesNotBlockFastPath: a stopped timer earlier than the
// wake-up is purged, not mistaken for pending work. The fast path leaves
// the heap alone, so the purged slot is the last one recycled; the slow
// path would have recycled its own resume event after it.
func TestCancelledTopDoesNotBlockFastPath(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		tm := e.After(1, func() { t.Error("stopped timer fired") })
		tm.Stop()
		before := e.switches
		p.Sleep(5)
		if p.Now() != 5 {
			t.Errorf("woke at %v, want 5", p.Now())
		}
		if !e.Idle() {
			t.Error("cancelled event still queued after the sleep")
		}
		if n := len(e.free); n == 0 || e.free[n-1] != tm.ev {
			t.Error("Sleep went through the heap although only a cancelled event was pending")
		}
		if e.switches != before {
			t.Errorf("Sleep cost %d coroutine switches, want 0", e.switches-before)
		}
	})
	if n := e.Run(0); n != 2 {
		t.Errorf("Run executed %d events, want 2 (start, sleep)", n)
	}
}

// pinnedProgram mixes fast-path sleeps, self-resumes, direct handoffs,
// timeouts and a cancelled timer.
func pinnedProgram() (n int, now Time) {
	e := NewEngine(1)
	var c Cond
	q := NewQueue(1)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(3)
			q.Put(p, i)
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			q.Get(p)
			p.Sleep(2)
			if i%5 == 0 {
				c.Signal()
			}
		}
	})
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 6; i++ {
			c.WaitTimeout(p, 17)
		}
	})
	e.Spawn("solo", func(p *Proc) {
		p.Sleep(1000)
		for i := 0; i < 50; i++ {
			p.Sleep(1)
		}
	})
	tm := e.After(40, func() {})
	e.After(10, func() { tm.Stop() })
	n = e.Run(0)
	return n, e.Now()
}

// TestRunEventCountPinned: Run's return value counts every event exactly as
// the engine-goroutine loop did, elided resume events included. 124 events
// ending at t=1050 is what commit e63ae49 reports for this program.
func TestRunEventCountPinned(t *testing.T) {
	if n, now := pinnedProgram(); n != 124 || now != 1050 {
		t.Errorf("pinned program: %d events ending at %v, want 124 at 1050ns", n, now)
	}
}

// TestOwnTimeoutWakesWithoutHandoff: a lone process parked in WaitTimeout
// runs its timeout callback on its own coroutine and returns straight from
// its own resume event; the token never changes hands.
func TestOwnTimeoutWakesWithoutHandoff(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	e.Spawn("p", func(p *Proc) {
		before := e.switches
		if c.WaitTimeout(p, 100) {
			t.Error("WaitTimeout reported a signal, want timeout")
		}
		if p.Now() != 100 {
			t.Errorf("woke at %v, want 100", p.Now())
		}
		if e.switches != before {
			t.Errorf("timeout wake cost %d coroutine switches, want 0", e.switches-before)
		}
	})
	e.Run(0)
}

// TestInterleavedSleepsCostOneHandoffEach: two processes whose wake-ups
// alternate pass the token directly to each other, one coroutine switch per
// wake-up rather than two through a middle-man.
func TestInterleavedSleepsCostOneHandoffEach(t *testing.T) {
	const laps = 100
	e := NewEngine(1)
	for i := 0; i < 2; i++ {
		first := Time(1 + i)
		e.Spawn("p", func(p *Proc) {
			p.Sleep(first)
			for l := 0; l < laps; l++ {
				p.Sleep(2)
			}
		})
	}
	e.Run(0)
	// 2 starts, 2×laps sleeps, 2 exits; the lone survivor's last sleep is
	// free. Allow the handful of edge effects, not a second switch per wake.
	if e.switches < 2*laps-2 || e.switches > 2*laps+6 {
		t.Errorf("%d coroutine switches for %d interleaved wake-ups, want one each", e.switches, 2*laps)
	}
}

// TestCondPingPongCostsOneSwitchPerWake: two processes waking each other
// through Conds pass the token by one coroutine switch per wake-up. The
// pinger entered the ponger, so the ponger yields straight back to it, and
// the pinger's next wake of the ponger enters it again.
func TestCondPingPongCostsOneSwitchPerWake(t *testing.T) {
	const laps = 100
	e := NewEngine(1)
	var ping, pong Cond
	var switches uint64
	e.Spawn("pinger", func(p *Proc) {
		p.Yield() // the ponger starts and parks
		before := e.switches
		for i := 0; i < laps; i++ {
			pong.Signal()
			ping.Wait(p)
		}
		switches = e.switches - before
	})
	e.Spawn("ponger", func(p *Proc) {
		for {
			pong.Wait(p)
			ping.Signal()
		}
	})
	e.Run(0)
	if switches != 2*laps {
		t.Errorf("%d coroutine switches for %d wake-ups, want one each", switches, 2*laps)
	}
}

// TestRoundRobinClimbsTheChain: with three processes taking turns, the
// first enters the second, the second the third, and the third's wake of
// the first climbs the two links back to it: four switches a round of three
// wake-ups.
func TestRoundRobinClimbsTheChain(t *testing.T) {
	const laps = 100
	e := NewEngine(1)
	for i := 0; i < 3; i++ {
		first := Time(1 + i)
		e.Spawn("p", func(p *Proc) {
			p.Sleep(first)
			for l := 0; l < laps; l++ {
				p.Sleep(3)
			}
		})
	}
	e.Run(0)
	// Plus the starts and exits at either end.
	if e.switches < 4*laps || e.switches > 4*laps+12 {
		t.Errorf("%d coroutine switches for %d rounds of three wake-ups, want four a round", e.switches, laps)
	}
}

// TestKillWhileParkedLeavesNoGoroutines: processes parked when Run ends —
// on a Cond, on a Resource, in a Sleep past the horizon, entered by Run's
// goroutine or by another process — are killed, and their coroutines end.
func TestKillWhileParkedLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine(int64(i))
		var blamed any
		parkForever(e, 4, &blamed)
		r := NewResource(1)
		for j := 0; j < 3; j++ {
			e.Spawn("queued", func(p *Proc) { r.Acquire(p) })
		}
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
		e.Run(50)
		if blamed != nil {
			t.Fatalf("a parked process was unwound with %v, want a plain kill", blamed)
		}
		if e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
			t.Fatalf("after the run: live=%d parked=%d", e.LiveProcs(), e.BlockedProcs())
		}
	}
	waitGoroutines(t, base)
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// killed process has handed the token back before Run returns, but its
// coroutine's goroutine may still be a few instructions from exiting.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for spins := 0; runtime.NumGoroutine() > base; spins++ {
		if spins == 1<<20 {
			t.Fatalf("%d goroutines left, %d before the runs: parked processes leaked", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// recoverRun runs fn and returns what it panicked with (nil if nothing).
func recoverRun(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// parkForever spawns n processes that wait on a Cond nobody signals. Each
// records how it was unwound: a kill is fine, any other panic value means
// the process was blamed for somebody else's failure.
func parkForever(e *Engine, n int, blamed *any) {
	c := new(Cond)
	for i := 0; i < n; i++ {
		e.Spawn("parked", func(p *Proc) {
			defer func() {
				if r := recover(); r != nil {
					if _, kill := r.(procKilled); !kill {
						*blamed = r
					}
					panic(r)
				}
			}()
			c.Wait(p)
		})
	}
}

// TestPanicLeavesNoGoroutines: a panic from a process or from a callback —
// on Run's goroutine or on a process's that was running the loop — surfaces
// from Run unchanged, after the parked processes were killed and with the
// engine ready to run again. 50 recovered runs of the old engine left four
// goroutines behind each.
func TestPanicLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name  string
		build func(e *Engine)
	}{
		{"proc", func(e *Engine) {
			e.Spawn("culprit", func(p *Proc) {
				p.Sleep(5)
				panic(boom)
			})
		}},
		{"callback on a proc's goroutine", func(e *Engine) {
			// At t=5 every process is parked and the last to park holds
			// the token.
			e.At(5, func() { panic(boom) })
		}},
		{"callback on Run's goroutine", func(e *Engine) {
			// The exiting process returns the token to Run's goroutine,
			// which then pops the same-time callback itself.
			e.Spawn("exits", func(p *Proc) { p.Sleep(5) })
			e.At(5, func() { panic(boom) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				e := NewEngine(int64(i))
				var blamed any
				parkForever(e, 4, &blamed)
				tc.build(e)
				if r := recoverRun(func() { e.Run(0) }); r != any(boom) {
					t.Fatalf("Run panicked with %v, want the original value %v", r, boom)
				}
				if blamed != nil {
					t.Fatalf("a parked process was unwound with %v, want a plain kill", blamed)
				}
				if e.running || e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
					t.Fatalf("after the panic: running=%v live=%d parked=%d", e.running, e.LiveProcs(), e.BlockedProcs())
				}
				e.Run(0) // must not report re-entry
			}
			waitGoroutines(t, base)
		})
	}
}
