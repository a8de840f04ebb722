package sim

// Hooks into the pool's free-list hand-off, for the external tests
// (package sim_test), which build whole clusters and so cannot live inside
// package sim.

// EmptyStash drops every stashed free list, so the next pool that needs
// lists starts cold.
func EmptyStash() {
	stash.Lock()
	clear(stash.lists)
	stash.lists = stash.lists[:0]
	stash.Unlock()
}

// Stashed returns how many free lists the stash holds.
func Stashed() int {
	stash.Lock()
	defer stash.Unlock()
	return len(stash.lists)
}

// Fresh returns how many buffers the pool has made because a list was empty.
func (bp *BufPool) Fresh() uint64 { return bp.fresh }
