package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Spawn("a", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(10 * Microsecond)
		times = append(times, p.Now())
		p.Sleep(5 * Microsecond)
		times = append(times, p.Now())
	})
	e.Run(0)
	want := []Time{0, 10 * Microsecond, 15 * Microsecond}
	if len(times) != len(want) {
		t.Fatalf("got %v timestamps, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("step %d: at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestSpawnOrderingSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) { order = append(order, name) })
	}
	e.Run(0)
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("spawn order = %q, want abc (FIFO at same timestamp)", got)
	}
}

func TestAtCallbackAndCancel(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(5, func() { fired++ })
	tm := e.At(7, func() { fired += 100 })
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (cancelled timer must not run)", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5 (cancelled event must not advance clock)", e.Now())
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
		p.Sleep(10)
		c.Broadcast()
	})
	e.Run(0)
	if len(order) != 3 || order[0] != "w1" {
		t.Fatalf("wake order = %v, want w1 first then broadcast of the rest", order)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	var c Cond
	var gotSignal, gotTimeout bool
	var tSignal, tTimeout Time
	e.Spawn("timeouter", func(p *Proc) {
		ok := c.WaitTimeout(p, 100)
		gotTimeout = !ok
		tTimeout = p.Now()
	})
	e.Spawn("signaled", func(p *Proc) {
		p.Sleep(1) // join the wait list second
		ok := c.WaitTimeout(p, 1000)
		gotSignal = ok
		tSignal = p.Now()
	})
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(200)
		c.Signal() // "timeouter" already timed out at t=100; must wake "signaled"
	})
	e.Run(0)
	if !gotTimeout || tTimeout != 100 {
		t.Errorf("timeouter: timedOut=%v at %v, want timeout at 100", gotTimeout, tTimeout)
	}
	if !gotSignal || tSignal != 200 {
		t.Errorf("signaled: signaled=%v at %v, want signal at 200", gotSignal, tSignal)
	}
	if c.Waiters() != 0 {
		t.Errorf("wait list not empty: %d", c.Waiters())
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 10)
			ends = append(ends, p.Now())
		})
	}
	e.Run(0)
	want := []Time{10, 20, 30}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v (capacity-1 resource serializes)", ends, want)
		}
	}
}

func TestResourceCapacity2Overlaps(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 10)
			ends = append(ends, p.Now())
		})
	}
	e.Run(0)
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: inUse=%d", r.InUse())
	}
}

func TestQueueBlockingGetPut(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue(2)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(50)
			got = append(got, q.Get(p).(int))
		}
	})
	var putTimes []Time
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Put(p, i)
			putTimes = append(putTimes, p.Now())
		}
	})
	e.Run(0)
	if len(got) != 4 {
		t.Fatalf("consumer got %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
	// First two puts immediate; third blocks until first Get at t=50,
	// fourth until second Get at t=100.
	want := []Time{0, 0, 50, 100}
	for i := range want {
		if putTimes[i] != want[i] {
			t.Fatalf("putTimes = %v, want %v", putTimes, want)
		}
	}
}

func TestBarrier(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(3)
	var release []Time
	for i := 0; i < 3; i++ {
		d := Time(i * 10)
		e.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			b.Await(p)
			release = append(release, p.Now())
		})
	}
	e.Run(0)
	if len(release) != 3 {
		t.Fatalf("released %d procs, want 3", len(release))
	}
	for _, r := range release {
		if r != 20 {
			t.Fatalf("release times %v, want all 20 (last arrival)", release)
		}
	}
}

func TestBarrierReusableAcrossGenerations(t *testing.T) {
	e := NewEngine(1)
	b := NewBarrier(2)
	rounds := make([][]Time, 3)
	for i := 0; i < 2; i++ {
		d := Time((i + 1) * 7)
		e.Spawn("p", func(p *Proc) {
			for r := 0; r < 3; r++ {
				p.Sleep(d)
				b.Await(p)
				rounds[r] = append(rounds[r], p.Now())
			}
		})
	}
	e.Run(0)
	for r, ts := range rounds {
		if len(ts) != 2 || ts[0] != ts[1] {
			t.Fatalf("round %d release times %v, want equal pair", r, ts)
		}
	}
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1)
	steps := 0
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			steps++
		}
	})
	e.Run(55)
	if steps != 5 {
		t.Fatalf("steps = %d, want 5 (events past horizon must not run)", steps)
	}
	if e.Now() != 55 {
		t.Fatalf("clock = %v, want horizon 55", e.Now())
	}
}

func TestKilledProcsRunExitHooks(t *testing.T) {
	e := NewEngine(1)
	exited := false
	e.Spawn("p", func(p *Proc) {
		p.OnExit(func() { exited = true })
		var c Cond
		c.Wait(p) // parks forever; must be killed at end of Run
	})
	e.Run(0)
	if !exited {
		t.Fatal("OnExit hook did not run for killed process")
	}
	if e.LiveProcs() != 0 || e.BlockedProcs() != 0 {
		t.Fatalf("leaked procs: live=%d blocked=%d", e.LiveProcs(), e.BlockedProcs())
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var out []Time
		var c Cond
		for i := 0; i < 5; i++ {
			e.Spawn("w", func(p *Proc) {
				jitter := Time(e.Rand().Intn(100))
				p.Sleep(jitter)
				c.Wait(p)
				out = append(out, p.Now())
			})
		}
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(37)
				c.Signal()
			}
		})
		e.Run(0)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different lengths: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// Property: for any set of sleep durations, a capacity-1 resource used by k
// processes finishes at exactly the sum of durations, and each process's end
// time equals the prefix sum (FIFO order at t=0).
func TestResourcePrefixSumProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		e := NewEngine(7)
		r := NewResource(1)
		ends := make([]Time, len(raw))
		for i, d := range raw {
			i, d := i, Time(d)
			e.Spawn("u", func(p *Proc) {
				r.Use(p, d)
				ends[i] = p.Now()
			})
		}
		e.Run(0)
		var sum Time
		for i, d := range raw {
			sum += Time(d)
			if ends[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
	if m := (2500 * Nanosecond).Micros(); m != 2.5 {
		t.Errorf("Micros = %v, want 2.5", m)
	}
}

// TestRunResumesPastHorizon is the regression test for the horizon bug:
// Run used to pop the first event beyond the horizon and then discard it,
// so a subsequent Run with a larger horizon silently lost that event.
func TestRunResumesPastHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10*Microsecond, func() { fired = append(fired, e.Now()) })
	e.At(20*Microsecond, func() { fired = append(fired, e.Now()) })
	e.At(30*Microsecond, func() { fired = append(fired, e.Now()) })

	if n := e.Run(15 * Microsecond); n != 1 {
		t.Fatalf("first Run executed %d events, want 1", n)
	}
	if e.Now() != 15*Microsecond {
		t.Fatalf("clock = %v after horizon run, want 15us", e.Now())
	}
	if e.Idle() {
		t.Fatal("engine reports idle with events still pending past the horizon")
	}
	if n := e.Run(0); n != 2 {
		t.Fatalf("resumed Run executed %d events, want 2 (horizon run lost an event)", n)
	}
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestRunResumePreservesOrderAcrossHorizons resumes several times with
// growing horizons and checks no event is lost or reordered.
func TestRunResumePreservesOrderAcrossHorizons(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for i := 1; i <= 10; i++ {
		tt := Time(i) * Microsecond
		e.At(tt, func() { fired = append(fired, e.Now()) })
	}
	total := 0
	for _, h := range []Time{2500, 4200, 9999, 0} {
		total += e.Run(h * Nanosecond)
	}
	if total != 10 {
		t.Fatalf("executed %d events across resumed runs, want 10", total)
	}
	for i := range fired {
		if fired[i] != Time(i+1)*Microsecond {
			t.Fatalf("event %d fired at %v, want %v", i, fired[i], Time(i+1)*Microsecond)
		}
	}
}

// TestRandIsLazyAndUnchanged: the random source is built on the first Rand
// call, RandUsed reports exactly whether that happened — a run that never
// draws is observable as seed-free — and the stream drawn is the one
// rand.New(rand.NewSource(seed)) gives.
func TestRandIsLazyAndUnchanged(t *testing.T) {
	const seed = 42
	e := NewEngine(seed)
	e.Spawn("idle", func(p *Proc) { p.Sleep(Microsecond) })
	e.Run(0)
	if e.RandUsed() {
		t.Fatal("RandUsed() = true on an engine that never called Rand")
	}
	//simlint:allow globalrand the reference stream the engine's lazy source must reproduce
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < 8; i++ {
		if got, want := e.Rand().Int63(), ref.Int63(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
	if !e.RandUsed() {
		t.Fatal("RandUsed() = false after Rand was called")
	}
}
