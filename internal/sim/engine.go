// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel with a virtual nanosecond clock.
//
// The kernel executes exactly one logical thread of control at a time: either
// the event loop or a single simulated process. Each process is a coroutine
// (iter.Pull) and control passes between them with a single "token", moved
// by a coroutine switch, so simulated code never races with other simulated
// code. This makes the whole simulation deterministic: given the same seed
// and the same program, every virtual timestamp is identical on every run.
//
// The event loop has no goroutine of its own: it runs on whichever coroutine
// holds the token — Run's caller, or a process that parked and has nothing
// better to do than dispatch events until its own wake-up pops (see
// Engine.dispatch and DESIGN.md "Token-passing dispatch").
//
// Processes are spawned with Engine.Spawn and block using the primitives in
// this package (Proc.Sleep, Cond.Wait, Resource.Acquire, Queue.Get, ...).
// Callback events scheduled with Engine.At run in engine context — on an
// arbitrary coroutine of the simulation — and must not block.
//
// The event queue and the scheduling paths are engineered for wall-clock
// throughput (see DESIGN.md "Kernel performance"): a specialized 4-ary
// min-heap over *event with no interface boxing, a free list that recycles
// fired and cancelled events (generation counters keep stale Timer handles
// harmless), a typed resume-process event kind so Proc.Sleep allocates no
// closure, and an engine-owned payload buffer pool (BufPool). Event order
// is a strict total order on (time, sequence), so none of this can change
// a single virtual timestamp.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations, for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros reports t as a float number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// timeInf is "no pending event": later than any schedulable time.
const timeInf = Time(math.MaxInt64)

// satAdd returns a+b saturating at timeInf (a, b >= 0).
func satAdd(a, b Time) Time {
	if a >= timeInf-b {
		return timeInf
	}
	return a + b
}

// Event kinds. The generic callback kind calls fn; the resume and start
// kinds name their proc directly, so neither Sleep nor Spawn needs a closure.
const (
	evCall byte = iota
	evResume
	evStart
)

// event is a scheduled occurrence. Events are owned by the engine and
// recycled through a free list; gen counts reuses of the slot so a Timer
// handle from a previous life can never cancel the current occupant.
type event struct {
	t    Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	gen  uint32 // slot reuse count (see Timer)
	kind byte
	dead bool   // cancelled; skipped (and recycled) when popped
	fn   func() // evCall
	proc *Proc  // evResume, evStart
}

// eventLess is the queue's strict total order. seq is unique, so two
// distinct events never compare equal and any correct heap pops them in
// exactly one order — the bedrock of bit-identical replay.
func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Engine is the discrete-event simulation engine. It owns the virtual clock
// and the event queue. An Engine must be created with NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64   // events run so far, over all Runs (Sleep's fast path counts too)
	switches uint64   // coroutine switches, for tests
	events   []*event // 4-ary min-heap ordered by eventLess
	free     []*event // recycled event slots
	hand     *Proc    // named by a proc yielding to the proc that entered it: the one due
	seed     int64
	rng      *rand.Rand         // built from seed by the first Rand call; nil until then
	procs    map[*Proc]struct{} // live (spawned, not finished) processes
	parked   int                // how many of them are parked on a primitive
	running  bool
	procSeq  int
	stopped  bool // Stop was called; Run drains no further events
	// winEnd is the exclusive time bound of the current Run (horizon+1).
	winEnd Time
	// procPanic carries a panic out of a process coroutine — the process's
	// own, or that of a callback it was dispatching — so Run can re-raise
	// it on the caller's goroutine (where tests can recover it).
	procPanic any
	// pool is large (free lists + per-class counters for every size class)
	// and cold relative to the dispatch loop; keeping it last keeps the
	// scalar fields above packed into the leading cache lines.
	pool BufPool
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed (determinism: same seed, same schedule). The
// seed is read nowhere but Rand.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:  seed,
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source, built on the first
// call. It must only be used from simulation context (engine callbacks or
// processes).
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		//simlint:allow globalrand the engine owns the per-run root source; all other sim code draws from Engine.Rand()
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// RandUsed reports whether Rand was ever called. Rand is the only reader of
// the seed, so a run for which it is false would have been the same under
// any seed.
func (e *Engine) RandUsed() bool { return e.rng != nil }

// Pool returns the engine's payload buffer pool. Like everything else on
// the engine it must only be used from simulation context.
func (e *Engine) Pool() *BufPool { return &e.pool }

// push inserts ev into the 4-ary heap (sift up).
func (e *Engine) push(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event (sift down). The 4-ary layout
// halves the tree height of a binary heap; the extra child comparisons are
// cheap relative to the memory traffic they save.
func (e *Engine) pop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if eventLess(h[j], h[m]) {
					m = j
				}
			}
			if !eventLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

// alloc takes an event slot from the free list, or makes a new one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles a fired or cancelled event slot. The generation bump
// invalidates every outstanding Timer handle to the slot.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.proc = nil
	ev.dead = false
	e.free = append(e.free, ev)
}

// schedule enqueues an event at absolute time t (clamped to now).
func (e *Engine) schedule(t Time, kind byte, fn func(), p *Proc) *event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc()
	ev.t = t
	ev.seq = e.seq
	ev.kind = kind
	ev.fn = fn
	ev.proc = p
	e.seq++
	e.push(ev)
	return ev
}

// Timer is a handle to a scheduled callback, allowing cancellation. Timers
// are plain values; the zero Timer is valid and Stop on it reports false.
// The handle pins nothing: once the callback fires, the event slot is
// recycled, and the generation check makes Stop on the stale handle a
// guaranteed no-op even if the slot now holds an unrelated event.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It reports whether the callback had not yet fired
// (and therefore will never fire).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// fn runs in engine context and must not block.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, evCall, fn, nil)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes. Pending events are
// discarded and parked processes are killed.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty, the horizon is exceeded, or
// Stop is called. horizon <= 0 means no horizon. It returns the number of
// events executed. Before returning — normally, or by re-raising a panic
// from simulated code — it force-kills any still-parked processes so their
// coroutines end (their pending work is abandoned).
func (e *Engine) Run(horizon Time) int {
	if e.running {
		panic("sim: Engine.Run re-entered")
	}
	e.winEnd = timeInf
	if horizon > 0 {
		e.winEnd = satAdd(horizon, 1)
	}
	start := e.executed
	e.running = true
	defer e.shutdown()
	e.dispatch(nil)
	if horizon > 0 && e.live() && len(e.events) > 0 {
		// The loop ended on a live event beyond the horizon. It stays
		// queued for a later Run with a larger one; the clock stops here.
		e.now = horizon
	}
	return int(e.executed - start)
}

// shutdown ends a Run: parked processes are killed, and a panic carried out
// of a process coroutine is re-raised on Run's goroutine. Run defers it, so
// a callback that panics on Run's own goroutine passes through it as well
// and leaves no coroutine and no running flag behind.
func (e *Engine) shutdown() {
	e.running = false
	e.killAll()
	if r := e.procPanic; r != nil {
		e.procPanic = nil
		panic(r)
	}
}

// live reports whether the loop may execute another event: the engine is
// inside Run and nothing has asked it to end.
func (e *Engine) live() bool {
	return e.running && !e.stopped && e.procPanic == nil
}

// nextTime returns the time of the earliest pending live event. Dead
// (cancelled) events encountered at the top are recycled on the way, so
// the answer is exact. ok is false when the queue is empty.
func (e *Engine) nextTime() (t Time, ok bool) {
	for len(e.events) > 0 {
		if !e.events[0].dead {
			return e.events[0].t, true
		}
		e.release(e.pop())
	}
	return 0, false
}

// next pops the event the loop must execute now. It returns nil when the
// loop is over: the engine is not live, the queue is empty, or the earliest
// live event lies at or beyond winEnd (and stays queued).
func (e *Engine) next() *event {
	if !e.live() {
		return nil
	}
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.dead {
			e.release(ev)
			continue
		}
		if ev.t >= e.winEnd {
			// Not consumed: pushed back, so a later Run with a larger
			// horizon still sees it. Popping first and undoing it
			// once per run is cheaper than peeking before every pop.
			e.push(ev)
			return nil
		}
		return ev
	}
	return nil
}

// dispatch is the event loop, run by whoever holds the token: Run's
// goroutine (self == nil) or a process parked in yield. Callbacks run in
// place; self's own resume returns into it. Any other due process is entered
// by a coroutine switch — unless it is running, waiting in enter up the
// chain of processes that entered one another down to self. Then the token
// climbs back to it, one switch a link, the due process named in hand. So
// waking the process that entered you costs one switch. A process that ends,
// or finds the loop over (see next), returns the token to its enterer too; a
// yielded process returns once its resume or kill enters it, from anywhere.
func (e *Engine) dispatch(self *Proc) {
	p := e.due(self)
	for p != self {
		if p == nil || p.running {
			e.hand = p
			e.switches++
			self.running = false
			self.suspend(struct{}{})
			return
		}
		e.enter(p)
		if p, e.hand = e.hand, nil; p == nil {
			p = e.due(self)
		}
	}
}

// due runs events until a process falls due and returns it (nil: loop over).
func (e *Engine) due(self *Proc) *Proc {
	for {
		ev := e.next()
		if ev == nil {
			return nil
		}
		e.now = ev.t
		// Recycle the slot before dispatch: the callback commonly schedules
		// follow-up events, which then reuse it immediately. The gen bump in
		// release is what makes Stop-after-fire report false.
		kind, fn, p := ev.kind, ev.fn, ev.proc
		e.release(ev)
		e.executed++
		switch {
		case kind == evCall:
			if self == nil {
				fn()
			} else {
				e.callGuarded(fn)
			}
		case p.done:
			// a resume left behind by a killed process
		case kind == evStart:
			p.start()
			return p
		default:
			e.unparked(p)
			return p
		}
	}
}

// enter switches into p until it parks or ends.
func (e *Engine) enter(p *Proc) {
	p.running = true
	e.switches++
	p.next()
}

// callGuarded runs a callback on a process's coroutine. The process only
// lends its stack to the loop, so a panic in the callback is not its own:
// it must not unwind the process's stack (running its deferred calls and
// exit hooks as if it had failed, or being swallowed by a recover there).
// The value is kept in procPanic instead, which ends the loop and surfaces
// from Run like a callback panic on Run's own goroutine.
func (e *Engine) callGuarded(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			e.procPanic = r
		}
	}()
	fn()
}

// unparked clears p's parked mark as its resume or kill is delivered.
func (e *Engine) unparked(p *Proc) {
	p.parked = false
	e.parked--
}

// killAll enters every parked process with the killed flag set so its
// coroutine unwinds (see Proc.yield) and ends. Kill order is ascending proc
// id; unwinding code may park again, so the scan repeats until no process
// is parked.
func (e *Engine) killAll() {
	var order []*Proc
	for e.parked > 0 {
		order = order[:0]
		for q := range e.procs {
			if q.parked {
				order = append(order, q)
			}
		}
		if len(order) == 0 {
			panic("sim: parked count out of step with the process table")
		}
		sort.Slice(order, func(i, j int) bool { return order[i].id < order[j].id })
		for _, p := range order {
			if !p.parked {
				continue
			}
			e.unparked(p)
			p.killed = true
			e.enter(p)
		}
	}
}

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// LiveProcs returns the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// BlockedProcs returns the number of processes parked on a primitive.
func (e *Engine) BlockedProcs() int { return e.parked }

// procKilled is the panic value used to unwind a killed process.
type procKilled struct{}

// Proc is a simulated process. Exactly one Proc (or the engine) runs at a
// time. All methods must be called from the process itself.
type Proc struct {
	eng     *Engine
	name    string
	id      int
	fn      func(p *Proc)
	next    func() (struct{}, bool) // switches into the coroutine (see start)
	suspend func(struct{}) bool     // switches out of it, back to its enterer
	running bool                    // not suspended: running, or inside enter
	parked  bool                    // inside yield, waiting for a resume event or a kill
	killed  bool
	done    bool
	// w queues it on one Cond or Resource at a time without allocating; a
	// killed process's stale entry is harmless, as killAll ends the Run.
	w      waiter
	onExit []func()
}

// Spawn creates a process named name running fn, starting at the current
// virtual time (after already-scheduled same-time events).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, id: e.procSeq, fn: fn}
	e.procSeq++
	e.procs[p] = struct{}{}
	e.schedule(e.now, evStart, nil, p)
	return p
}

// run is the body of the process coroutine, which its start event creates.
// When it ends, the coroutine switches back to whoever entered it last.
func (p *Proc) run() {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				// A real panic from simulated code: carry it to Run's
				// goroutine, where it is re-raised.
				e.procPanic = r
			}
		}
		p.done = true
		delete(e.procs, p)
		for i := len(p.onExit) - 1; i >= 0; i-- {
			p.onExit[i]()
		}
		e.switches++
	}()
	p.fn(p)
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// OnExit registers fn to run (in the process coroutine) when the process
// finishes or is killed. LIFO order.
func (p *Proc) OnExit(fn func()) { p.onExit = append(p.onExit, fn) }

// yield parks the process until its resume event pops. The process keeps
// the token and runs the event loop itself meanwhile (see dispatch); if it
// was killed while parked, it unwinds.
func (p *Proc) yield() {
	p.parked = true
	p.eng.parked++
	p.eng.dispatch(p)
	if p.killed {
		panic(procKilled{})
	}
}

// unpark schedules p to resume at time t. Must be called from sim context.
// This is a typed event, not a closure, so parking is allocation-free once
// the engine's free list is warm.
func (p *Proc) unpark(t Time) {
	p.eng.schedule(t, evResume, nil, p)
}

// Sleep advances the process's virtual time by d (>= 0).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	t := e.now + d
	if e.live() && t < e.winEnd {
		if next, ok := e.nextTime(); !ok || next > t {
			// Every pending event is strictly later than the wake-up, so the
			// resume event this Sleep would schedule is the very next pop
			// (an event at exactly t is older and would go first, hence the
			// strict comparison). Do what that pop would do — advance the
			// clock, count the event, and use up its sequence number so the
			// numbering of later events is unchanged — and keep running.
			e.now = t
			e.seq++
			e.executed++
			return
		}
	}
	p.unpark(t)
	p.yield()
}

// Yield lets all other ready work at the current time run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }
