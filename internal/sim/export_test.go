package sim

// Hooks into the hand-off of free lists and event storage, for the
// external tests (package sim_test), which build whole clusters and so
// cannot live inside package sim.

// EmptyStash drops every stashed free list and event queue, so the next
// pool that needs lists and the next engine that needs slots start cold.
func EmptyStash() {
	listStash.empty()
	queueStash.empty()
}

// Stashed returns how many free lists and event queues the stash holds.
func Stashed() (lists, queues int) { return listStash.len(), queueStash.len() }

func (s *Stash[T]) empty() {
	s.mu.Lock()
	clear(s.items)
	s.items = s.items[:0]
	s.mu.Unlock()
}

func (s *Stash[T]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// RaceEnabled reports whether the race detector is compiled in.
func RaceEnabled() bool { return raceEnabled }

// Grown returns how many arena slots the engine has made because it had
// none free and the stash held no arena.
func (e *Engine) Grown() uint64 { return e.grown }

// Fresh returns how many buffers the pool has made because a list was empty.
func (bp *BufPool) Fresh() uint64 { return bp.fresh }
