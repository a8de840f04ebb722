// Fixture: scope and the Put rule's alias forms. pipes runs in simulated
// time but sits above the injection boundary (its packets reach the fabric
// through HAL, which snapshots them), so the pool rules apply here and the
// retention rules do not. Pooling caller-owned bytes is flagged in every
// form that shares the caller's backing array: a slice conversion and an
// append that stays within the caller's capacity.
package pipes

import "splapi/internal/sim"

type bytes []byte

type reasm struct {
	last []byte
}

// Keep retains a caller-owned slice in a field. Off the boundary that is
// the pipe's own business; nothing here may be flagged.
func (r *reasm) Keep(pkt []byte) {
	r.last = pkt
}

// PutConverted pools the caller's bytes through a conversion and through
// an in-place append: both still alias the caller's array.
func (r *reasm) PutConverted(eng *sim.Engine, pkt []byte, x byte) {
	eng.Pool().Put([]byte(pkt))        // want `caller-owned payload \[\]byte\(pkt\) returned to the buffer pool`
	eng.Pool().Put(bytes(pkt))         // want `caller-owned`
	eng.Pool().Put(append(pkt[:0], x)) // want `caller-owned payload append\(pkt\[:0\], x\) returned to the buffer pool`
	grown := append(pkt, x)
	eng.Pool().Put(grown)                  // want `caller-owned payload grown returned`
	eng.Pool().Put(append([]byte(nil), x)) // a fresh buffer: not caller-owned
}

// Leak shows the pool rules still run here.
func (r *reasm) Leak(eng *sim.Engine) {
	b := eng.Pool().Get(64) // want `leaked`
	b[0] = 1
}
