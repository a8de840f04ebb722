package sim

// waiter is one parked process inside a primitive. A waiter may be woken by
// at most one of several paths (signal vs. timeout); the woken flag ensures
// the loser of that race is a no-op.
type waiter struct {
	p     *Proc
	woken bool
	timer Timer // armed iff a timeout was requested; zero Timer Stops as a no-op
	// timedOut reports (after wakeup) whether the timeout path won.
	timedOut bool
}

// popWaiter removes the head of *q, shifting the rest down so the capacity
// is kept (reslicing off the front would wear it away, one park at a time).
func popWaiter(q *[]*waiter) *waiter {
	w := (*q)[0]
	*q = (*q)[:copy(*q, (*q)[1:])]
	return w
}

// wake resumes the waiter's process at the current time, exactly once.
func (w *waiter) wake(timedOut bool) {
	if w.woken {
		return
	}
	w.woken = true
	w.timedOut = timedOut
	w.timer.Stop()
	w.p.unpark(w.p.eng.now)
}

// Cond is a condition variable for simulated processes. The zero value is
// ready to use. Unlike sync.Cond there is no associated lock: all simulated
// code already runs single-threaded under the engine token.
type Cond struct {
	waiters []*waiter
}

// Waiters returns the number of parked processes.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Wait parks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	p.w = waiter{p: p}
	c.waiters = append(c.waiters, &p.w)
	p.yield()
}

// WaitTimeout parks p until a wakeup or until d elapses. It reports true if
// the process was woken by Signal/Broadcast, false on timeout.
func (c *Cond) WaitTimeout(p *Proc, d Time) bool {
	w := &waiter{p: p}
	w.timer = p.eng.After(d, func() {
		// Timeout path: remove from the wait list and wake.
		for i, x := range c.waiters {
			if x == w {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		w.wake(true)
	})
	c.waiters = append(c.waiters, w)
	p.yield()
	return !w.timedOut
}

// Signal wakes the longest-parked process, if any. It reports whether a
// process was woken.
func (c *Cond) Signal() bool {
	for len(c.waiters) > 0 {
		w := popWaiter(&c.waiters)
		if !w.woken {
			w.wake(false)
			return true
		}
	}
	return false
}

// Broadcast wakes every parked process. The list keeps its array: wake only
// schedules, so nothing joins the list while it is walked.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = ws[:0]
	for _, w := range ws {
		w.wake(false)
	}
}

// Resource is a FIFO counting resource (e.g. a DMA engine or a CPU). A
// process Acquires one unit, possibly queueing, and must Release it.
type Resource struct {
	Capacity int
	inUse    int
	queue    []*waiter
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(capacity int) *Resource {
	if capacity < 1 {
		panic("sim: Resource capacity must be >= 1")
	}
	return &Resource{Capacity: capacity}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire obtains one unit, blocking in FIFO order if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.Capacity && len(r.queue) == 0 {
		r.inUse++
		return
	}
	p.w = waiter{p: p}
	r.queue = append(r.queue, &p.w)
	p.yield()
	// The releaser incremented inUse on our behalf.
}

// Release returns one unit and hands it to the next queued process, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Resource.Release without Acquire")
	}
	r.inUse--
	for len(r.queue) > 0 {
		w := popWaiter(&r.queue)
		if w.woken {
			continue
		}
		r.inUse++
		w.wake(false)
		return
	}
}

// Use acquires the resource, holds it for d virtual time, then releases it.
// It models occupancy of a serial stage (e.g. a DMA engine injecting one
// packet).
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Queue is an unbounded-or-bounded FIFO of items with blocking Get and,
// when bounded, blocking Put. Cap <= 0 means unbounded.
type Queue struct {
	Cap      int
	items    []any
	notEmpty Cond
	notFull  Cond
}

// NewQueue returns a queue with the given capacity (<= 0 for unbounded).
func NewQueue(capacity int) *Queue { return &Queue{Cap: capacity} }

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Put appends an item, blocking while the queue is full (bounded only).
func (q *Queue) Put(p *Proc, item any) {
	for q.Cap > 0 && len(q.items) >= q.Cap {
		q.notFull.Wait(p)
	}
	q.items = append(q.items, item)
	q.notEmpty.Signal()
}

// TryPut appends an item without blocking; reports success.
func (q *Queue) TryPut(item any) bool {
	if q.Cap > 0 && len(q.items) >= q.Cap {
		return false
	}
	q.items = append(q.items, item)
	q.notEmpty.Signal()
	return true
}

// Get removes and returns the oldest item, blocking while empty.
func (q *Queue) Get(p *Proc) any {
	for len(q.items) == 0 {
		q.notEmpty.Wait(p)
	}
	item := q.items[0]
	q.items = q.items[1:]
	q.notFull.Signal()
	return item
}

// Barrier blocks n processes until all have arrived, then releases them.
type Barrier struct {
	N       int
	arrived int
	cond    Cond
	gen     int
}

// NewBarrier returns a barrier for n processes.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: Barrier size must be >= 1")
	}
	return &Barrier{N: n}
}

// Await blocks until N processes have called Await for the current
// generation.
func (b *Barrier) Await(p *Proc) {
	gen := b.gen
	b.arrived++
	if b.arrived == b.N {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for b.gen == gen {
		b.cond.Wait(p)
	}
}
