// Fixture: every walk of a map is flagged, whatever the loop body does —
// scheduling, sending, accumulating, collect-then-sort, or an order-free
// reduction — and so is every maps function that walks one. A slice range
// is not.
package mpci

import (
	"maps"
	"sort"

	"splapi/internal/sim"
)

type deadlines map[int]sim.Time

type sched struct {
	eng   *sim.Engine
	peers map[int]sim.Time
	due   deadlines
	out   chan int
}

func (s *sched) Flush() {
	for peer, t := range s.peers { // want `range over map s\.peers`
		p := peer
		s.eng.At(t, func() { s.notify(p) })
	}
}

func (s *sched) Drain() {
	for peer := range s.peers { // want `range over map s\.peers`
		s.out <- peer
	}
}

func (s *sched) Collect() []int {
	var order []int
	for peer := range s.peers { // want `range over map s\.peers`
		order = append(order, peer)
	}
	return order
}

// Sorted restores a fixed order, but it still walks the map.
func (s *sched) Sorted() {
	var keys []int
	for peer := range s.peers { // want `range over map s\.peers`
		keys = append(keys, peer)
	}
	sort.Ints(keys)
	for _, peer := range keys {
		s.eng.At(s.peers[peer], func() {})
	}
}

// ReadOnly is order-free, and flagged all the same.
func (s *sched) ReadOnly() int {
	n := 0
	for _, t := range s.peers { // want `range over map s\.peers`
		if t > 0 {
			n++
		}
	}
	return n
}

// Named ranges over a named map type.
func (s *sched) Named() {
	for _, t := range s.due { // want `range over map s\.due`
		s.eng.At(t, func() {})
	}
}

func (s *sched) Iterators() {
	for peer := range maps.Keys(s.peers) { // want `maps\.Keys walks a map`
		s.out <- peer
	}
	for t := range maps.Values(s.peers) { // want `maps\.Values walks a map`
		s.eng.At(t, func() {})
	}
	for peer, t := range maps.All(s.peers) { // want `maps\.All walks a map`
		s.eng.At(t, func() { s.notify(peer) })
	}
	maps.DeleteFunc(s.peers, func(peer int, _ sim.Time) bool { s.notify(peer); return true }) // want `maps\.DeleteFunc walks a map`
	_ = maps.EqualFunc(s.peers, s.due, func(a, b sim.Time) bool { return a == b })            // want `maps\.EqualFunc walks a map`
}

// SliceRange: ranging over a slice is always fine.
func (s *sched) SliceRange(deadlines []sim.Time) {
	for _, t := range deadlines {
		s.eng.At(t, func() {})
	}
}

func (s *sched) Allowed() {
	//simlint:allow maporder fixture demonstrating the directive
	for peer := range s.peers {
		s.out <- peer
	}
}

func (s *sched) notify(int) {}
