package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// The event queue must pop the unique minimum of the (time, seq) order,
// whatever its data structure. qcheck holds the engine to that: it keeps
// the reference queue — every event scheduled and neither run nor stopped
// — beside the engine's, and each event checks, as it runs, that it is the
// least of the reference's live keys.

type refKey struct {
	t   Time
	seq uint64
}

type qcheck struct {
	t      *testing.T
	e      *Engine
	rng    *rand.Rand
	live   []refKey
	times  []Time  // recently scheduled times, for forced ties
	timers []Timer // every timer armed, for Stops
	ran    int     // events checked
	failed bool
}

// newQcheck returns a checker whose program draws from its engine's
// source, seeded with seed.
func newQcheck(t *testing.T, seed int64) *qcheck {
	e := NewEngine(seed)
	return &qcheck{t: t, e: e, rng: e.Rand()}
}

// add records a key the engine is about to queue.
func (c *qcheck) add(k refKey) {
	c.live = append(c.live, k)
	if c.times = append(c.times, k.t); len(c.times) > 16 {
		c.times = c.times[1:]
	}
}

// drop removes seq from the reference; it reports whether seq was live.
func (c *qcheck) drop(seq uint64) bool {
	for i, k := range c.live {
		if k.seq == seq {
			c.live[i] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			return true
		}
	}
	return false
}

// least returns the reference's next key: the live keys sorted by (t, seq)
// and the first one taken.
func (c *qcheck) least() refKey {
	m := c.live[0]
	for _, k := range c.live[1:] {
		if k.t < m.t || k.t == m.t && k.seq < m.seq {
			m = k
		}
	}
	return m
}

// run checks the event seq, which is executing now.
func (c *qcheck) run(seq uint64) {
	got := refKey{c.e.now, seq}
	if want := c.least(); got != want && !c.failed {
		c.failed = true
		c.t.Errorf("event %d: the engine ran (t=%d, seq=%d), the reference queue says (t=%d, seq=%d)",
			c.ran, got.t, got.seq, want.t, want.seq)
	}
	c.drop(seq)
	c.ran++
}

// delay draws a delay of 0 to 2^span ns, spread evenly over the powers of
// two, or, one time in four, one that ties with a recently scheduled event.
func (c *qcheck) delay(span int) Time {
	if n := len(c.times); n > 0 && c.rng.Intn(4) == 0 {
		if t := c.times[c.rng.Intn(n)]; t >= c.e.now {
			return t - c.e.now
		}
	}
	return Time(c.rng.Int63n(int64(1) << c.rng.Intn(span+1)))
}

func (c *qcheck) after(d Time, fn func()) Timer {
	k := refKey{c.e.now + d, c.e.seq}
	c.add(k)
	tm := c.e.After(d, func() {
		c.run(k.seq)
		fn()
	})
	c.timers = append(c.timers, tm)
	return tm
}

// stop cancels tm; Stop must report true exactly while its event is live.
func (c *qcheck) stop(tm Timer) {
	if live, stopped := c.drop(tm.seq), tm.Stop(); live != stopped && !c.failed {
		c.failed = true
		c.t.Errorf("Stop on seq %d reported %v; the event was live: %v", tm.seq, stopped, live)
	}
}

func (c *qcheck) spawn(fn func(p *Proc)) {
	k := refKey{c.e.now, c.e.seq}
	c.add(k)
	c.e.Spawn("q", func(p *Proc) {
		c.run(k.seq)
		fn(p)
	})
}

// sleep is Proc.Sleep with its resume event in the reference, taken or not
// by the fast path. A process killed at the end of a Run leaves its resume
// queued, to run unseen; it leaves the reference.
func (c *qcheck) sleep(p *Proc, d Time) {
	k := refKey{c.e.now + d, c.e.seq}
	c.add(k)
	woke := false
	defer func() {
		if !woke {
			c.drop(k.seq)
		}
	}()
	p.Sleep(d)
	woke = true
	c.run(k.seq)
}

// flow is the retransmit timer of lapi.flow and pipes: a stream of acks a
// few ns to a few µs apart, each of which stops the timer and re-arms it
// 2 ms later, so that nearly every timer is cancelled, far ahead of the
// clock.
func (c *qcheck) flow(acks int) {
	var rtx Timer
	var ack func()
	ack = func() {
		if rtx.e != nil {
			c.stop(rtx)
		}
		rtx = c.after(2*Millisecond, func() {})
		if acks--; acks > 0 {
			c.after(Time(1+c.rng.Intn(3000)), ack)
		}
	}
	c.after(0, ack)
}

// play spawns procs processes of steps random steps each, with delays of
// up to 2^span ns.
func (c *qcheck) play(procs, steps, span int) {
	for i := 0; i < procs; i++ {
		c.spawn(func(p *Proc) {
			for s := 0; s < steps; s++ {
				switch c.rng.Intn(7) {
				case 0, 1:
					c.sleep(p, c.delay(span))
				case 2:
					c.sleep(p, 0)
				case 3:
					c.after(c.delay(span), func() {
						if c.rng.Intn(3) == 0 {
							c.after(c.delay(span), func() {})
						}
					})
				case 4:
					c.after(c.delay(span), func() {})
				case 5:
					if n := len(c.timers); n > 0 {
						c.stop(c.timers[c.rng.Intn(n)])
					}
				case 6:
					if c.rng.Intn(3) == 0 {
						c.flow(8 + c.rng.Intn(56))
					}
				}
			}
		})
	}
}

// runTo is Run(h) followed by its contract: every live event later than
// h, and the clock at h if one is left.
func (c *qcheck) runTo(h Time) {
	c.e.Run(h)
	for _, k := range c.live {
		if k.t <= h && !c.failed {
			c.failed = true
			c.t.Errorf("Run(%d) left (t=%d, seq=%d) queued", h, k.t, k.seq)
		}
	}
	if h > 0 && len(c.live) > 0 && c.e.now != h && !c.failed {
		c.failed = true
		c.t.Errorf("Run(%d) with events pending ended at %d", h, c.e.now)
	}
}

// session plays phases horizon-split Runs, each with processes of its
// own and events scheduled from outside, then runs to quiescence.
func (c *qcheck) session(phases, span int) {
	for i := 0; i < phases; i++ {
		c.play(2+c.rng.Intn(4), 8+c.rng.Intn(24), span)
		for j := c.rng.Intn(4); j > 0; j-- {
			c.after(c.delay(span), func() {})
		}
		c.runTo(c.e.now + 1 + c.delay(span))
	}
	c.runTo(0)
	if len(c.live) != 0 && !c.failed {
		c.t.Errorf("%d events never ran", len(c.live))
	}
}

// TestQueueOrderMatchesReference runs 48 seeded programs, each split into
// horizon-bounded Runs with delays of up to 2^8 to 2^40 ns, and then 16
// pairs of engines: one that quiesces late (t ≈ 2^35) and hands its queue
// on, and a new one, whose clock starts at 0, that takes it and schedules
// both near 0 and just past the first engine's end.
func TestQueueOrderMatchesReference(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 48 && !t.Failed(); seed++ {
		c := newQcheck(t, seed)
		c.session(4, 8+int(seed)%33)
		total += c.ran
	}
	if total < 10000 && !t.Failed() {
		t.Errorf("the programs checked %d events; too few to exercise the queue", total)
	}
	for seed := int64(1); seed <= 16 && !t.Failed(); seed++ {
		EmptyStash()
		a := newQcheck(t, seed)
		a.session(2, 30)
		end := Time(1)<<35 + Time(a.rng.Int63n(1<<20))
		a.after(end-a.e.now, func() {})
		a.runTo(0)
		if a.e.now != end {
			t.Fatalf("seed %d: the first engine ended at %d, want %d", seed, a.e.now, end)
		}
		b := newQcheck(t, seed+100)
		b.after(end-b.e.now+1, func() {})
		b.after(1, func() {})
		if b.e.Grown() != 0 {
			t.Fatalf("seed %d: test premise broken: the second engine did not take the first one's queue", seed)
		}
		b.after(end, func() {})
		b.session(2, 36)
	}
}

// TestRunBelowNowKeepsTheClock: a Run whose horizon the clock has already
// passed runs nothing and leaves the clock where it is. Moving it back
// would let an event be scheduled before one the queue has already
// sorted past.
func TestRunBelowNowKeepsTheClock(t *testing.T) {
	e := NewEngine(1)
	var order []Time
	log := func() { order = append(order, e.now) }
	e.At(100, log)
	e.At(200, log)
	e.Run(150)
	if n := e.Run(120); n != 0 || e.now != 150 {
		t.Fatalf("Run(120) at 150 ran %d events and left the clock at %d, want 0 and 150", n, e.now)
	}
	e.After(10, log)
	e.Run(0)
	if want := []Time{100, 160, 200}; !slices.Equal(order, want) {
		t.Errorf("events ran at %v, want %v", order, want)
	}
}
