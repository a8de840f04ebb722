// Fixture: the fault-injection layer touches in-flight payload bytes at
// the moment a plan rule fires. Mutating them in place (CorruptBytes) is
// its job; retaining them past the call, or returning caller-owned bytes
// to the pool, would alias packets the fabric still owns.
package faults

import "splapi/internal/sim"

type injector struct {
	eng *sim.Engine
	// lastCorrupted would be a retention bug if anything ever stored
	// payload bytes here; the analyzer proves nothing does.
	lastCorrupted []byte
}

// CorruptBytes flips one byte in place. In-place mutation neither retains
// nor pools the bytes, so nothing here may be flagged.
func (in *injector) CorruptBytes(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	idx := in.eng.Rand().Intn(len(b))
	b[idx] ^= 0xA5
	return idx
}

// CorruptAndKeep is the bug shape: an injector that remembers the damaged
// payload for later reporting has retained bytes whose backing array the
// pool will rewrite.
func (in *injector) CorruptAndKeep(b []byte) {
	in.CorruptBytes(b)
	in.lastCorrupted = b // want `stored into field`
}

// DropToPool pools caller-owned bytes: a later Get may rewrite a packet
// the fabric still owns.
func (in *injector) DropToPool(b []byte) {
	in.eng.Pool().Put(b) // want `returned to the buffer pool`
}
