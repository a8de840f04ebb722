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
// throughput (see DESIGN.md "Kernel performance"): a monotone radix heap of
// pointer-free (time, sequence, slot) keys — the clock never runs
// backwards, so keys only move down its buckets and a pop is O(1)
// amortized — over an indexed slot arena, a stack of free slot indices
// that recycles fired and cancelled events (a slot's sequence number keeps
// stale Timer handles harmless), a typed resume-process event kind so
// Proc.Sleep allocates no closure, and an engine-owned payload buffer pool
// (BufPool). A quiesced engine hands its event storage and buffers to the
// next one. Event order is a strict total order on (time, sequence), which
// every exact priority queue pops alike, so none of this can change a
// single virtual timestamp.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
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

// key is a scheduled occurrence as the queue sees it: its time, its
// sequence number and the arena slot holding the rest. Keys pop in (t, seq)
// order, a strict total order since seq is unique: any exact priority queue
// pops them in exactly one order — the bedrock of bit-identical replay. A
// key holds no pointer, so moving keys between buckets copies plain values,
// with no write barrier, and the GC never scans them.
type key struct {
	t    Time
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot uint32
}

// noSeq marks an arena slot with no live occupant: free, or cancelled and
// waiting for its key to pop. The engine's counter never reaches it.
const noSeq = math.MaxUint64

// event is the payload of an arena slot. seq names the occupant: a key
// whose seq differs from its slot's is cancelled, and so is a Timer's.
type event struct {
	seq  uint64
	kind byte
	fn   func() // evCall
	proc *Proc  // evResume, evStart
}

// buckets are the radix queue's far keys: buckets[i] holds the keys whose
// time first differs from last at bit i (times are non-negative, so 63
// bits). Each bucket is in seq order.
type buckets [63][]key

// bucketCap is the capacity near and each bucket start with, carved from
// one array.
const bucketCap = 8

// eventQueue is the event storage: a monotone radix heap of keys, the slot
// arena and the stack of free slot indices. No key is ever earlier than
// last, which is at most now; so a key's bucket only falls as last rises,
// and a pop is O(1) amortized. A quiesced engine hands the storage on (see
// handOff).
type eventQueue struct {
	near  []key    // near[head:] are the keys at last, in seq order; reset when drained
	head  int      // near[:head] have popped
	last  Time     // the time of the keys most recently moved to near
	mask  uint64   // bit i set: far[i] is not empty
	far   *buckets // nil until the first grow
	slots []event  // indexed by key.slot; nil until the first grow
	free  []uint32 // free[:nfree] is the stack of slots with no occupant
	nfree int      // len(free) == len(slots), so a release never grows it
}

// Engine is the discrete-event simulation engine. It owns the virtual clock
// and the event queue. An Engine must be created with NewEngine.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64 // events run so far, over all Runs (Sleep's fast path counts too)
	switches uint64 // coroutine switches, for tests
	eventQueue
	hand *Proc // named by a proc yielding to the proc that entered it: the one due
	seed int64
	rng  *rand.Rand // built from seed by the first Rand call; nil until then
	// procs lists the live (spawned, not finished) processes in spawn
	// order, which is ascending id.
	procs   procList
	parked  int // how many of them are parked on a primitive
	running bool
	procSeq int
	stopped bool // Stop was called; Run drains no further events
	// winEnd is the exclusive time bound of the current Run (horizon+1).
	winEnd Time
	// procPanic carries a panic out of a process coroutine — the process's
	// own, or that of a callback it was dispatching — so Run can re-raise
	// it on the caller's goroutine (where tests can recover it).
	procPanic any
	grown     uint64   // arena slots made because none was free or stashed, for tests
	handOffs  []func() // OnHandOff hooks
	// pool is large (per-class counters for every size class) and cold
	// relative to the dispatch loop; keeping it last keeps the scalar
	// fields above packed into the leading cache lines.
	pool BufPool
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed (determinism: same seed, same schedule). The
// seed is read nowhere but Rand.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed: seed,
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

// push queues k, which is no earlier than last. A key at last has the
// newest seq, so appending it keeps near in order; so does appending to a
// bucket.
func (e *Engine) push(k key) {
	if k.t == e.last {
		if e.head == len(e.near) {
			e.near = e.near[:0] // drained: start over
			e.head = 0
		}
		e.near = append(e.near, k)
		return
	}
	i := bits.Len64(uint64(k.t^e.last)) - 1
	e.far[i] = append(e.far[i], k)
	e.mask |= 1 << i
}

// compact drops the cancelled keys of bucket i, keeping the others in
// order, and returns the earliest time left in it.
func (e *Engine) compact(i int) Time {
	b := e.far[i]
	n, m := 0, timeInf
	for _, k := range b {
		if !e.pending(k) {
			e.release(k.slot)
			continue
		}
		m = min(m, k.t)
		b[n] = k
		n++
	}
	e.far[i] = e.far[i][:n] // a length store, with no write barrier
	return m
}

// refill compacts the lowest non-empty bucket, emptying buckets until one
// holds a live key. Then it sets last to that bucket's earliest time m and
// pushes its keys again: those at m into the drained near, the others into
// lower buckets, each of which receives a subsequence of one in seq order.
// It reports false, having moved no key, when the queue holds no live key
// or m lies at or beyond winEnd: last must not pass a clock that a Run with
// a horizon leaves behind it.
func (e *Engine) refill(winEnd Time) bool {
	for e.mask != 0 {
		i := bits.TrailingZeros64(e.mask)
		m := e.compact(i)
		b := e.far[i]
		if len(b) > 0 && m >= winEnd {
			return false
		}
		e.far[i] = b[:0]
		e.mask &^= 1 << i
		if len(b) > 0 {
			e.last = m
			for _, k := range b {
				e.push(k)
			}
			return true
		}
	}
	return false
}

// empty reports whether no key is queued, live or cancelled.
func (e *Engine) empty() bool { return e.head == len(e.near) && e.mask == 0 }

// pending reports whether k's slot still holds the event k was pushed for,
// that is, whether the event has not been cancelled.
func (e *Engine) pending(k key) bool { return e.slots[k.slot].seq == k.seq }

// alloc takes a free arena slot, growing the arena when none is left.
func (e *Engine) alloc() uint32 {
	if e.nfree == 0 {
		e.grow()
	}
	e.nfree--
	return e.free[e.nfree]
}

// grow refills the empty free stack. An engine without an arena first
// takes one a quiesced engine handed on (see handOff); otherwise the arena
// doubles. It is kept out of line so that alloc stays small enough to
// inline.
//
//go:noinline
func (e *Engine) grow() {
	if e.slots == nil {
		if e.eventQueue, _ = queueStash.Take(); e.slots != nil {
			return // every slot is free: its engine had quiesced
		}
		e.far = new(buckets)
		keys := make([]key, (len(e.far)+1)*bucketCap)
		for i := range e.far {
			e.far[i] = keys[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
		e.near = keys[len(e.far)*bucketCap:][:0]
	}
	n := len(e.slots)
	m := max(2*n, 16)
	e.slots = append(e.slots, make([]event, m-n)...)
	e.free = append(e.free, make([]uint32, m-n)...)
	for s := n; s < m; s++ {
		e.slots[s].seq = noSeq
		e.free[s-n] = uint32(s)
	}
	e.nfree = m - n
	e.grown += uint64(m - n)
}

// release frees a fired or cancelled slot. Overwriting seq invalidates
// every outstanding Timer handle to the slot.
func (e *Engine) release(s uint32) {
	e.slots[s] = event{seq: noSeq}
	e.free[e.nfree] = s
	e.nfree++
}

// schedule enqueues an event at absolute time t (clamped to now).
func (e *Engine) schedule(t Time, kind byte, fn func(), p *Proc) key {
	if t < e.now {
		t = e.now
	}
	k := key{t: t, seq: e.seq, slot: e.alloc()}
	e.slots[k.slot] = event{seq: k.seq, kind: kind, fn: fn, proc: p}
	e.seq++
	// A full bucket drops its cancelled keys before it grows: a retransmit
	// timer stopped and re-armed on every ack leaves one per ack in a far
	// bucket, which is not refilled until the clock nears it. (Only a
	// schedule brings a bucket cancelled keys; refill moves live ones.)
	if i := bits.Len64(uint64(t^e.last)) - 1; i >= 0 && len(e.far[i]) == cap(e.far[i]) {
		e.compact(i)
	}
	e.push(k)
	return k
}

// Timer is a handle to a scheduled callback, allowing cancellation. Timers
// are plain values; the zero Timer is valid and Stop on it reports false.
// The handle pins nothing: once the callback fires, its slot is recycled,
// and Stop matches only while the slot holds the event with the handle's
// sequence number. Sequence numbers are unique over an engine's life,
// whichever arena it holds, so Stop on a stale handle is a guaranteed
// no-op even if the slot now holds an unrelated event.
type Timer struct {
	e    *Engine
	seq  uint64
	slot uint32
}

// Stop cancels the timer. It reports whether the callback had not yet fired
// (and therefore will never fire).
func (t Timer) Stop() bool {
	if t.e == nil || int(t.slot) >= len(t.e.slots) || t.e.slots[t.slot].seq != t.seq {
		return false
	}
	t.e.slots[t.slot].seq = noSeq
	return true
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// fn runs in engine context and must not block.
func (e *Engine) At(t Time, fn func()) Timer {
	k := e.schedule(t, evCall, fn, nil)
	return Timer{e: e, seq: k.seq, slot: k.slot}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// OnHandOff registers fn to run whenever a Run ends quiesced, after the
// engine has handed its own storage on (see handOff), so that a layer above
// the engine can hand on storage of its own. fn runs on Run's goroutine
// with nothing simulated running and must not schedule events.
func (e *Engine) OnHandOff(fn func()) { e.handOffs = append(e.handOffs, fn) }

// Stop makes Run return after the current event completes. Pending events are
// discarded and parked processes are killed.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty, the horizon is exceeded, or
// Stop is called. horizon <= 0 means no horizon. It returns the number of
// events executed. Before returning — normally, or by re-raising a panic
// from simulated code — it force-kills any still-parked processes so their
// coroutines end (their pending work is abandoned). A Run that returns
// normally with no event pending and no process left has quiesced: it
// hands its storage on and runs the OnHandOff hooks (see handOff).
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
	returned := false
	defer func() { e.shutdown(returned) }()
	e.dispatch(nil)
	returned = true
	if horizon > 0 && e.live() && !e.empty() {
		// The loop ended on a live event beyond the horizon. It stays
		// queued for a later Run with a larger one; the clock stops here,
		// unless it has already passed it.
		e.now = max(e.now, horizon)
	}
	return int(e.executed - start)
}

// shutdown ends a Run: parked processes are killed, and a panic carried out
// of a process coroutine is re-raised on Run's goroutine. Run defers it, so
// a callback that panics on Run's own goroutine passes through it as well
// (returned false) and leaves no coroutine and no running flag behind.
func (e *Engine) shutdown(returned bool) {
	e.running = false
	e.killAll()
	if r := e.procPanic; r != nil {
		e.procPanic = nil
		panic(r)
	}
	if returned && e.empty() && e.procs.n == 0 {
		e.handOff()
	}
}

// live reports whether the loop may execute another event: the engine is
// inside Run and nothing has asked it to end.
func (e *Engine) live() bool {
	return e.running && !e.stopped && e.procPanic == nil
}

// dueBy reports whether a pending event is due at or before t, for Sleep.
// Cancelled events met on the way are recycled, so the answer is exact.
// When it reports none, it has moved no key, because Sleep's fast path then
// sets the clock below the earliest event and last must stay at or below
// it. When it reports one, it has refilled near up to that event, at most
// t, ahead of the sleeper's wake-up at t and the pop that follows.
func (e *Engine) dueBy(t Time) bool {
	for e.head < len(e.near) {
		k := e.near[e.head]
		if e.pending(k) {
			return true // at last, which is at most now
		}
		e.head++
		e.release(k.slot)
	}
	if e.mask == 0 {
		return false
	}
	// Every far key shares last's bits above its bucket's and has that
	// bucket's bit set, so this bound settles most calls without a scan.
	if j := bits.TrailingZeros64(e.mask); (e.last>>j|1)<<j > t {
		return false
	}
	return e.refill(t + 1)
}

// next pops the event the loop must execute now. ok is false when the loop
// is over: the engine is not live, the queue is empty, or the earliest
// pending event lies at or beyond winEnd (and stays queued).
func (e *Engine) next() (k key, ok bool) {
	if !e.live() {
		return k, false
	}
	for {
		if e.head == len(e.near) && !e.refill(e.winEnd) {
			return k, false
		}
		k = e.near[e.head]
		if !e.pending(k) {
			e.head++
			e.release(k.slot)
			continue
		}
		if k.t >= e.winEnd {
			return k, false // not consumed: a later Run may reach it
		}
		e.head++
		return k, true
	}
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
		k, ok := e.next()
		if !ok {
			return nil
		}
		e.now = k.t
		// Recycle the slot before dispatch: the callback commonly schedules
		// follow-up events, which then reuse it immediately. The seq
		// overwrite in release is what makes Stop-after-fire report false.
		ev := &e.slots[k.slot]
		kind, fn, p := ev.kind, ev.fn, ev.proc
		e.release(k.slot)
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
// coroutine unwinds (see Proc.yield) and ends. It walks the live list, so
// the kill order is ascending proc id; unwinding code may park again, so
// the walk repeats until no process is parked.
func (e *Engine) killAll() {
	for e.parked > 0 {
		killed := false
		for p := e.procs.head; p != nil; {
			next := p.nextLive // p unlinks itself if it ends
			if p.parked {
				e.unparked(p)
				p.killed = true
				e.enter(p)
				killed = true
			}
			p = next
		}
		if !killed {
			panic("sim: parked count out of step with the process table")
		}
	}
}

// procList is the intrusive list of live processes. Spawn appends and a
// process unlinks itself when it ends, so the list stays in spawn order.
type procList struct {
	head, tail *Proc
	n          int
}

func (l *procList) push(p *Proc) {
	p.prevLive = l.tail
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.nextLive = p
	}
	l.tail = p
	l.n++
}

func (l *procList) remove(p *Proc) {
	if p.prevLive == nil {
		l.head = p.nextLive
	} else {
		p.prevLive.nextLive = p.nextLive
	}
	if p.nextLive == nil {
		l.tail = p.prevLive
	} else {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
	l.n--
}

// Idle reports whether no events are pending.
func (e *Engine) Idle() bool { return e.empty() }

// LiveProcs returns the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return e.procs.n }

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
	// prevLive and nextLive link it into the engine's live list.
	prevLive, nextLive *Proc
}

// Spawn creates a process named name running fn, starting at the current
// virtual time (after already-scheduled same-time events).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, id: e.procSeq, fn: fn}
	e.procSeq++
	e.procs.push(p)
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
		e.procs.remove(p)
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
// the engine's arena is warm.
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
	if e.live() && t < e.winEnd && !e.dueBy(t) {
		// Every pending event is strictly later than the wake-up, so the
		// resume event this Sleep would schedule is the very next pop (an
		// event at exactly t is older and would go first, hence dueBy's
		// inclusive bound). Do what that pop would do — advance the clock,
		// count the event, and use up its sequence number so the numbering
		// of later events is unchanged — and keep running.
		e.now = t
		e.seq++
		e.executed++
		return
	}
	p.unpark(t)
	p.yield()
}

// Yield lets all other ready work at the current time run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }
