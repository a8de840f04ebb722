package sim

import (
	"math/bits"
	"runtime"
	"sync"
)

// BufPool is the engine-owned pool of payload buffers. The hot layers
// (switchnet's injection-boundary snapshot, LAPI reassembly, MPCI framing)
// copy packet-sized byte slices constantly; without pooling every copy is a
// garbage-collected allocation that dominates the sweep profiles.
//
// The pool is deliberately not sync.Pool:
//
//   - Determinism. All simulated code runs single-threaded under the engine
//     token, so plain LIFO free lists need no locks, and — unlike sync.Pool,
//     whose reuse pattern depends on GC timing and per-P caches — which of
//     the engine's own earlier Puts serves a Get is a pure function of the
//     simulation's own event order. Any other Get is served a buffer that
//     Get zeroes or Snapshot overwrites, wherever it came from. Buffer
//     identity can therefore never leak scheduling noise into results.
//   - Stats per engine, storage handed on at quiescence. Sweep cells build
//     independent engines on worker goroutines, and each counts only its
//     own traffic. The free lists themselves outlive the engine: when Run
//     ends quiesced, the engine hands them, with its event storage, to a
//     small process-wide stash, and the next pool that needs lists takes
//     them from there before it allocates, so every cell after the first
//     starts with warm buffers. The lists belong to one pool at a time;
//     only the stash is locked.
//
// Buffers come in power-of-two size classes. Get zeroes the returned slice
// (same contract as make), Snapshot copies into an unzeroed one. Put
// recycles only slices whose capacity is exactly a class size, so handing a
// foreign buffer to Put is harmless: it is simply left to the GC.
//
// The statistics are pure accounting of the engine's own Get/Put sequence:
// a Get counts as a hit iff the class has seen more Puts than hits, which
// is exactly when a pool that started empty would find a buffer on its
// list. So no counter depends on which buffers the stash supplied.
//
// Ownership discipline (enforced for the simulation packages by simlint's
// flow-sensitive bufpoolown analyzer): Put transfers ownership — the
// caller must own the bytes outright, must return the whole buffer (a
// capacity-changing sub-slice either leaks or recycles into a smaller
// class while the parent still aliases the bytes), must return it exactly
// once, and must not touch the slice afterwards. Returning a slice that
// something else still retains is the PR 1 aliasing bug in a new costume;
// bufpoolown flags Put of caller-owned bytes, double Puts, use after Put,
// sub-slice Puts, and buffers that leak on every path.
type BufPool struct {
	free *freeLists // nil until a Get or Put needs lists (see lists)
	// PoolStats are plain counters, readable via Stats.
	stats PoolStats
	// per-class traffic, readable via ClassStats.
	classGets [poolClasses]uint64
	classHits [poolClasses]uint64
	classPuts [poolClasses]uint64
	fresh     uint64 // buffers made because a list was empty, for tests
}

// PoolStats counts pool traffic. Hits/Gets is the recycle rate.
type PoolStats struct {
	Gets     uint64 // Get/Snapshot calls served (excluding zero-length)
	Hits     uint64 // ... that the pool's own earlier Puts could serve
	Puts     uint64 // buffers accepted back
	Foreign  uint64 // Put calls dropped (capacity not a class size)
	InFlight int64  // Gets minus accepted Puts
}

// ClassStat is the traffic of one power-of-two size class.
type ClassStat struct {
	Size uint64 // class buffer size in bytes
	Gets uint64
	Hits uint64 // Gets the class's own earlier Puts could serve
	Puts uint64
	Free int // Puts - Hits: the class's own buffers back and not yet reused
}

const (
	poolMinBits = 5  // smallest class: 32 B
	poolMaxBits = 21 // largest class: 2 MiB (covers a 1 MiB message + framing)
	poolClasses = poolMaxBits - poolMinBits + 1
)

// freeLists are a pool's per-class LIFO free lists, the unit the stash
// moves between engines.
type freeLists [poolClasses][][]byte

// Stash holds what engines whose Run ended quiesced handed on, for the next
// engine that needs it: at most one item per GOMAXPROCS, since sweeps run
// one engine per worker at a time. Each item belongs to one engine at a
// time; only the stash is locked, and its lock orders one engine's last use
// of an item before the next engine's first.
type Stash[T any] struct {
	mu    sync.Mutex
	items []T
}

// Take removes and returns the item given most recently; ok is false when
// the stash is empty.
func (s *Stash[T]) Take() (x T, ok bool) {
	s.mu.Lock()
	if n := len(s.items); n > 0 {
		x, ok = s.items[n-1], true
		clear(s.items[n-1:])
		s.items = s.items[:n-1]
	}
	s.mu.Unlock()
	return x, ok
}

// Give keeps x for a later Take, or leaves it to the GC when the stash
// already holds one item per GOMAXPROCS.
func (s *Stash[T]) Give(x T) {
	s.mu.Lock()
	if len(s.items) < runtime.GOMAXPROCS(0) {
		s.items = append(s.items, x)
	}
	s.mu.Unlock()
}

var listStash Stash[*freeLists]  // BufPool free lists
var queueStash Stash[eventQueue] // event storage

// lists returns the pool's free lists, taking them from the stash or, when
// it is empty, allocating empty ones.
func (bp *BufPool) lists() *freeLists {
	if bp.free == nil {
		if bp.free, _ = listStash.Take(); bp.free == nil {
			bp.free = new(freeLists)
		}
	}
	return bp.free
}

// handOff stashes the engine's event storage and its pool's free lists,
// which it takes again when it next needs them, then runs the OnHandOff
// hooks. The caller guarantees that nothing simulated will run on the engine
// meanwhile, and that no event is pending, so every arena slot is free.
func (e *Engine) handOff() {
	if e.pool.free != nil {
		listStash.Give(e.pool.free)
		e.pool.free = nil
	}
	if e.slots != nil {
		// The next engine's clock starts anew, so last must too.
		q := e.eventQueue
		q.near, q.head, q.last = q.near[:0], 0, 0
		queueStash.Give(q)
		e.eventQueue = eventQueue{}
	}
	for _, fn := range e.handOffs {
		fn()
	}
}

// classFor returns the size-class index for a buffer of n bytes, or -1 if n
// exceeds the largest class.
func classFor(n int) int {
	if n > 1<<poolMaxBits {
		return -1
	}
	c := bits.Len(uint(n-1)) - poolMinBits
	if c < 0 {
		return 0
	}
	return c
}

// Get returns a zeroed slice of length n, recycling a pooled buffer when
// one is free. Slices longer than the largest class fall back to make.
func (bp *BufPool) Get(n int) []byte {
	b, hit := bp.get(n)
	if hit {
		clear(b)
	}
	return b
}

// Snapshot returns a pooled copy of b (Get without the redundant zeroing).
// It is the pool-backed replacement for the append([]byte(nil), b...) idiom;
// like a fresh copy, the result is owned by the caller.
func (bp *BufPool) Snapshot(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	s, _ := bp.get(len(b))
	copy(s, b)
	return s
}

// get returns a length-n slice and whether it came from a free list (and so
// may hold stale bytes).
func (bp *BufPool) get(n int) ([]byte, bool) {
	if n == 0 {
		return nil, false
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n), false
	}
	bp.stats.Gets++
	bp.stats.InFlight++
	bp.classGets[c]++
	if bp.classPuts[c] > bp.classHits[c] {
		bp.stats.Hits++
		bp.classHits[c]++
	}
	fl := &bp.lists()[c]
	if m := len(*fl); m > 0 {
		b := (*fl)[m-1][:n]
		(*fl)[m-1] = nil
		*fl = (*fl)[:m-1]
		return b, true
	}
	bp.fresh++
	return make([]byte, n, 1<<(c+poolMinBits)), false
}

// Put returns a buffer to the pool. Only slices whose capacity is exactly a
// class size are recycled; anything else (a foreign buffer, an oversized
// fallback) is silently left to the garbage collector. The caller must own
// b outright and must not use it again.
func (bp *BufPool) Put(b []byte) {
	c := cap(b)
	if c < 1<<poolMinBits || c > 1<<poolMaxBits || c&(c-1) != 0 {
		if c > 0 {
			bp.stats.Foreign++
		}
		return
	}
	cl := bits.TrailingZeros(uint(c)) - poolMinBits
	fl := &bp.lists()[cl]
	*fl = append(*fl, b[:0])
	bp.stats.Puts++
	bp.stats.InFlight--
	bp.classPuts[cl]++
}

// Stats returns a snapshot of the pool counters.
func (bp *BufPool) Stats() PoolStats { return bp.stats }

// ClassStats returns the per-class traffic for every class that saw any,
// smallest class first.
func (bp *BufPool) ClassStats() []ClassStat {
	var out []ClassStat
	for c := 0; c < poolClasses; c++ {
		if bp.classGets[c] == 0 && bp.classPuts[c] == 0 {
			continue
		}
		out = append(out, ClassStat{
			Size: 1 << (c + poolMinBits),
			Gets: bp.classGets[c],
			Hits: bp.classHits[c],
			Puts: bp.classPuts[c],
			Free: int(bp.classPuts[c] - bp.classHits[c]),
		})
	}
	return out
}
