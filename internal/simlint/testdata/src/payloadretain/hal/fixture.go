// Fixture: every way a caller-owned []byte parameter can be retained
// across the injection boundary — field store, map store, element append,
// channel send, deferred-event capture — and the copy idioms that cleanse
// it.
package hal

import "splapi/internal/sim"

type ring struct {
	slots map[int][]byte
	queue [][]byte
	last  []byte
	out   chan []byte
}

var debugTap []byte

func (r *ring) Stash(eng *sim.Engine, slot int, pkt []byte) {
	r.last = pkt                   // want `stored into field`
	r.slots[slot] = pkt            // want `stored into a map or slice element`
	r.queue = append(r.queue, pkt) // want `appended as an element`
	r.out <- pkt                   // want `sent on a channel`
	debugTap = pkt                 // want `stored in package-level variable`
	eng.After(10, func() {
		r.handle(pkt) // want `captured by a deferred After callback`
	})
}

// StashAliases: sub-slices and local aliases carry the taint.
func (r *ring) StashAliases(slot int, pkt []byte) {
	sub := pkt[2:]
	r.last = sub // want `stored into field`
	local := pkt
	r.slots[slot] = local // want `stored into a map or slice element`
	conv := []byte(pkt)
	r.last = conv // want `stored into field`
}

// StashCopied: explicit snapshots own their bytes. Nothing here may be
// flagged.
func (r *ring) StashCopied(eng *sim.Engine, slot int, pkt []byte) {
	buf := append([]byte(nil), pkt...)
	r.last = buf
	r.slots[slot] = buf
	r.queue = append(r.queue, buf)
	r.out <- buf
	seg := make([]byte, len(pkt))
	copy(seg, pkt)
	eng.After(10, func() {
		r.handle(seg)
	})
	framed := append(append([]byte(nil), 0x2), pkt...)
	r.last = framed
}

// StashAllowed demonstrates the directive for an intentional retention
// (e.g. bytes known to be a fresh per-packet snapshot already).
func (r *ring) StashAllowed(pkt []byte) {
	r.last = pkt //simlint:allow bufpoolown fixture demonstrating the directive
}

func (r *ring) handle([]byte) {}
