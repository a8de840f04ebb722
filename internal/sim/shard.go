// Sharded execution: one simulation partitioned across P engines that run
// epochs concurrently and stay bit-identical to the serial run.
//
// The scheme is conservative parallel discrete-event simulation with a
// wire-latency lookahead L (see DESIGN.md "Parallel engine"). Every
// cross-shard influence travels through Engine.Post, which by construction
// arrives no earlier than L after it is sent. Between epochs a single
// coordinator goroutine flushes the cross-shard mailboxes in a
// deterministic merge order, resolves group barriers, and computes for each
// shard d a window end
//
//	E_d = min( min_{s != d} t_s + L,  barrier caps,  horizon+1 )
//
// where t_s is shard s's earliest pending event time: nothing another shard
// does at or after t_s can affect shard d before t_s + L. Within its
// window a shard additionally lowers its own bound to t_p + L whenever it
// posts a cross-shard message arriving at t_p — any causal echo of that
// post needs at least one more wire hop — so a shard whose peers are idle
// and that sends nothing runs completely unbounded, exactly like serial.
//
// Determinism does not depend on goroutine scheduling anywhere: windows
// touch only per-shard state (heap, free list, pool, RNG), cross-shard
// deliveries are buffered per (src,dst) and merged in (t, ctime, src, seq)
// order by the coordinator, and barrier releases are sorted by
// (t, shard, arrival-index) before any resume is scheduled.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// timeInf is "no pending event": later than any schedulable time.
const timeInf = Time(math.MaxInt64)

// satAdd returns a+b saturating at timeInf (a, b >= 0).
func satAdd(a, b Time) Time {
	if a >= timeInf-b {
		return timeInf
	}
	return a + b
}

// crossMsg is one buffered cross-shard delivery.
type crossMsg struct {
	t     Time // delivery time at dst
	ctime Time // src's clock at post time (serial creation time)
	src   int
	seq   uint64 // per-src post counter
	fn    func()
}

// crossLess is the deterministic epoch-merge order for one destination.
func crossLess(a, b crossMsg) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.ctime != b.ctime {
		return a.ctime < b.ctime
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

type shardResult struct {
	n   int
	pan any
}

// ShardGroup couples P engines into one logical simulation. Engines are
// created by NewShardGroup and permanently bound to their shard index; all
// cross-shard scheduling must go through Engine.Post.
type ShardGroup struct {
	engs      []*Engine
	lookahead Time
	mail      [][]crossMsg // [src*P+dst], appended only by src's window
	batch     []crossMsg   // flush scratch
	barMu     sync.Mutex   // serializes GroupBarrier.Await across runner goroutines
	barriers  []*GroupBarrier
	epoch     int64
	epochHook func(shard int, epoch int64)
	start     []chan Time
	done      chan int
	res       []shardResult
	running   bool
}

// NewShardGroup creates P coupled engines, one per seed, with conservative
// lookahead L > 0. seeds[i] seeds shard i's private RNG stream; the caller
// derives them from the root seed and the shard's topology position so
// results do not depend on the shard count.
func NewShardGroup(seeds []int64, lookahead Time) *ShardGroup {
	if len(seeds) == 0 {
		panic("sim: NewShardGroup needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewShardGroup needs a positive lookahead")
	}
	p := len(seeds)
	g := &ShardGroup{
		engs:      make([]*Engine, p),
		lookahead: lookahead,
		mail:      make([][]crossMsg, p*p),
	}
	for i, seed := range seeds {
		e := NewEngine(seed)
		e.group = g
		e.shard = i
		g.engs[i] = e
	}
	return g
}

// Engines returns the per-shard engines, indexed by shard.
func (g *ShardGroup) Engines() []*Engine { return g.engs }

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.engs) }

// Lookahead returns the conservative lookahead L.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Epoch returns the current epoch number (0 before Run, then 1, 2, ...).
func (g *ShardGroup) Epoch() int64 { return g.epoch }

// SetEpochHook registers fn to be called by the coordinator, once per
// active shard per epoch, after the epoch's mailbox flush and before any
// shard window starts. Tracing uses it to stamp per-shard logs with the
// epoch; fn must not touch simulation state.
func (g *ShardGroup) SetEpochHook(fn func(shard int, epoch int64)) { g.epochHook = fn }

// Now returns the group's clock: the maximum shard clock, which at
// quiescence or horizon equals the serial engine's final Now.
func (g *ShardGroup) Now() Time {
	var t Time
	for _, e := range g.engs {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// post buffers a cross-shard delivery (from Engine.Post, which has already
// checked the lookahead). Runs in src's window, so the mailbox row and the
// dynamic window bound are touched single-threaded.
func (g *ShardGroup) post(src, dst *Engine, t Time, fn func()) {
	i := src.shard*len(g.engs) + dst.shard
	g.mail[i] = append(g.mail[i], crossMsg{t: t, ctime: src.now, src: src.shard, seq: src.crossSeq, fn: fn})
	src.crossSeq++
	// Any causal echo of this post needs at least one more wire hop, so
	// src may run freely below t+L but no further.
	if nb := satAdd(t, g.lookahead); nb < src.winEnd {
		src.winEnd = nb
	}
}

// flushMail merges every buffered cross-shard delivery into its
// destination heap in (t, ctime, src, seq) order. Coordinator only.
func (g *ShardGroup) flushMail() {
	p := len(g.engs)
	for dst := 0; dst < p; dst++ {
		b := g.batch[:0]
		for src := 0; src < p; src++ {
			row := src*p + dst
			b = append(b, g.mail[row]...)
			for i := range g.mail[row] {
				g.mail[row][i].fn = nil
			}
			g.mail[row] = g.mail[row][:0]
		}
		// Insertion sort: epoch batches are a handful of in-flight packets,
		// and this allocates nothing on the per-epoch path.
		for i := 1; i < len(b); i++ {
			for j := i; j > 0 && crossLess(b[j], b[j-1]); j-- {
				b[j], b[j-1] = b[j-1], b[j]
			}
		}
		e := g.engs[dst]
		for _, m := range b {
			e.scheduleCT(m.t, m.ctime, evCall, m.fn, nil)
		}
		g.batch = b[:0]
	}
}

// resolveBarriers releases every GroupBarrier whose parties have all
// arrived. All waiters resume via events at T = max arrival time, in the
// order the serial Barrier produces: the (deterministically identified)
// last arrival first — serially it continues inline — then the remaining
// waiters in arrival order. Coordinator only.
func (g *ShardGroup) resolveBarriers() {
	for _, b := range g.barriers {
		if len(b.arrivals) < b.n {
			continue
		}
		if len(b.arrivals) > b.n {
			panic(fmt.Sprintf("sim: GroupBarrier got %d arrivals for %d parties", len(b.arrivals), b.n))
		}
		a := b.arrivals
		sort.Slice(a, func(i, j int) bool {
			if a[i].t != a[j].t {
				return a[i].t < a[j].t
			}
			if a[i].shard != a[j].shard {
				return a[i].shard < a[j].shard
			}
			return a[i].idx < a[j].idx
		})
		last := a[len(a)-1]
		t := last.t
		last.p.eng.scheduleCT(t, t, evResume, nil, last.p)
		for _, w := range a[:len(a)-1] {
			w.p.eng.scheduleCT(t, t, evResume, nil, w.p)
		}
		b.arrivals = b.arrivals[:0]
		for i := range b.counts {
			b.counts[i] = 0
		}
	}
}

// barrierCaps tightens the window bounds for barriers that are partially
// arrived: the release time T will be at least B = max(known arrivals,
// tmin), so shards holding parked waiters must not run to or past their
// resume events (cap B+1), and no shard may outrun a post a released
// waiter could send (cap B+L). B >= tmin keeps progress: the shard owning
// tmin can always execute at least its first event. Coordinator only.
func (g *ShardGroup) barrierCaps(tmin Time, postCap *Time, waitCap []Time) {
	for _, b := range g.barriers {
		k := len(b.arrivals)
		if k == 0 || k >= b.n {
			continue
		}
		bound := tmin
		for _, a := range b.arrivals {
			if a.t > bound {
				bound = a.t
			}
		}
		if c := satAdd(bound, g.lookahead); c < *postCap {
			*postCap = c
		}
		for _, a := range b.arrivals {
			if c := satAdd(bound, 1); c < waitCap[a.shard] {
				waitCap[a.shard] = c
			}
		}
	}
}

// runShard executes one window on e, converting both dispatch panics and
// process panics into a value the coordinator re-raises in shard order.
func (g *ShardGroup) runShard(e *Engine, end Time) (n int, pan any) {
	defer func() {
		if r := recover(); r != nil {
			pan = r
		}
	}()
	n = e.runWindow(end)
	if e.procPanic != nil {
		pan = e.procPanic
		e.procPanic = nil
	}
	return n, pan
}

// runner is shard i's persistent window executor for one Run.
func (g *ShardGroup) runner(i int) {
	e := g.engs[i]
	for end := range g.start[i] {
		n, pan := g.runShard(e, end)
		g.res[i] = shardResult{n: n, pan: pan}
		//simlint:allow baregoroutine coordinator heartbeat between epochs, outside any simulation context
		g.done <- i
	}
}

// Run executes the group to quiescence, the horizon, or Stop, and returns
// the total number of events executed. Like the serial Engine.Run it then
// force-kills still-parked processes (in shard order, ascending proc id
// within a shard). Panics from simulated code re-raise on the caller's
// goroutine, lowest shard first, after that shutdown.
func (g *ShardGroup) Run(horizon Time) int {
	if g.running {
		panic("sim: ShardGroup.Run re-entered")
	}
	g.running = true
	p := len(g.engs)
	g.start = make([]chan Time, p)
	g.done = make(chan int, p)
	g.res = make([]shardResult, p)
	for i := range g.engs {
		g.start[i] = make(chan Time)
		//simlint:allow baregoroutine shard runner: windows run one-at-a-time per engine, handed off by the coordinator's start/done channels
		go g.runner(i)
	}
	defer func() {
		for _, ch := range g.start {
			close(ch)
		}
		g.running = false
	}()

	total := 0
	var failed any // first panic out of a window; ends the run
	next := make([]Time, p)
	ends := make([]Time, p)
	waitCap := make([]Time, p)
	active := make([]int, 0, p)
	for {
		g.flushMail()
		g.resolveBarriers()
		tmin := timeInf
		for i, e := range g.engs {
			t, ok := e.nextTime()
			if !ok {
				t = timeInf
			}
			next[i] = t
			if t < tmin {
				tmin = t
			}
		}
		if tmin == timeInf {
			break // quiescent (or deadlocked, like serial: killAll below)
		}
		if horizon > 0 && tmin > horizon {
			for _, e := range g.engs {
				// Pending events stay queued, as in serial Run's push-back.
				if len(e.events) > 0 && e.now < horizon {
					e.now = horizon
				}
			}
			break
		}
		// Two smallest next-event times, for min-over-other-shards.
		min1, arg1, min2 := timeInf, -1, timeInf
		for i, t := range next {
			if t < min1 {
				min2 = min1
				min1, arg1 = t, i
			} else if t < min2 {
				min2 = t
			}
		}
		postCap := timeInf
		for i := range waitCap {
			waitCap[i] = timeInf
		}
		g.barrierCaps(tmin, &postCap, waitCap)
		active = active[:0]
		for i := range g.engs {
			if next[i] == timeInf {
				ends[i] = 0
				continue
			}
			other := min1
			if i == arg1 {
				other = min2
			}
			end := satAdd(other, g.lookahead)
			if postCap < end {
				end = postCap
			}
			if waitCap[i] < end {
				end = waitCap[i]
			}
			if horizon > 0 && horizon+1 < end {
				end = horizon + 1
			}
			ends[i] = end
			if next[i] < end {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			panic("sim: shard group stalled") // impossible: tmin's owner is always active
		}
		g.epoch++
		if g.epochHook != nil {
			for _, i := range active {
				g.epochHook(i, g.epoch)
			}
		}
		if len(active) == 1 {
			// One busy shard: run its window right here and skip the
			// goroutine round trip — this is the common regime for
			// small-topology cells and keeps them near serial speed.
			i := active[0]
			var n int
			n, failed = g.runShard(g.engs[i], ends[i])
			total += n
		} else {
			for _, i := range active {
				//simlint:allow baregoroutine epoch fan-out from the coordinator to the shard runners, outside any simulation context
				g.start[i] <- ends[i]
			}
			for range active {
				<-g.done
			}
			for _, i := range active {
				total += g.res[i].n
				if failed == nil {
					failed = g.res[i].pan
				}
			}
		}
		stop := failed != nil
		for _, e := range g.engs {
			if e.stopped {
				stop = true
			}
		}
		if stop {
			break
		}
	}
	for _, e := range g.engs {
		e.killAll()
	}
	if failed != nil {
		panic(failed)
	}
	return total
}

// barrierArrival records one party reaching a GroupBarrier.
type barrierArrival struct {
	t     Time
	shard int
	idx   int // per-shard arrival index within the generation
	p     *Proc
}

// GroupBarrier is the sharded counterpart of Barrier: n parties, spread
// across the group's shards, rendezvous at the maximum arrival time. It
// satisfies JobBarrier. Arrivals are recorded under a mutex (windows run
// concurrently) but releases are computed only between epochs from the
// scheduling-independent keys (t, shard, per-shard index), so wake order
// and times never depend on goroutine interleaving.
type GroupBarrier struct {
	g        *ShardGroup
	n        int
	arrivals []barrierArrival
	counts   []int
}

// NewBarrier creates a GroupBarrier for n parties on g's shards.
func (g *ShardGroup) NewBarrier(n int) *GroupBarrier {
	if n <= 0 {
		panic("sim: GroupBarrier needs at least one party")
	}
	b := &GroupBarrier{g: g, n: n, counts: make([]int, len(g.engs))}
	g.barriers = append(g.barriers, b)
	return b
}

// Await blocks p until all n parties have arrived. Unlike the serial
// Barrier, every party — including the last — parks and is resumed by the
// coordinator at the release time; the resume order reproduces the serial
// one (last arrival first, then waiters in arrival order).
func (b *GroupBarrier) Await(p *Proc) {
	e := p.eng
	if e.group != b.g {
		panic("sim: GroupBarrier.Await from an engine outside the group")
	}
	g := b.g
	g.barMu.Lock()
	b.arrivals = append(b.arrivals, barrierArrival{t: e.now, shard: e.shard, idx: b.counts[e.shard], p: p})
	b.counts[e.shard]++
	g.barMu.Unlock()
	// A parked waiter learns nothing more this window; stopping at the
	// arrival lets the coordinator recompute a tighter bound.
	e.winStop = true
	p.yield()
}
