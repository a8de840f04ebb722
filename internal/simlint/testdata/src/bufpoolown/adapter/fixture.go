// Fixture: BufPool ownership. Put transfers ownership to the pool — a
// later Get may hand the same backing array to unrelated code — so each
// buffer obtained from Get/Snapshot must be returned exactly once (or
// escape to a new owner), only whole buffers may be returned, and bytes
// the caller still owns may never be pooled.
package adapter

import "splapi/internal/sim"

type nic struct {
	scratch []byte
	out     chan []byte
}

type frame struct {
	Payload []byte
}

// Deliver shows the correct ownership round-trips: snapshot (or copy into
// a Get buffer), hand it down, return it once. Nothing here may be
// flagged — including the handle call between Get and Put, which borrows
// the buffer without taking ownership.
func (n *nic) Deliver(eng *sim.Engine, pkt []byte) {
	snap := eng.Pool().Snapshot(pkt)
	n.handle(snap)
	eng.Pool().Put(snap)

	buf := eng.Pool().Get(len(pkt))
	copy(buf, pkt)
	n.handle(buf)
	eng.Pool().Put(buf)
}

// DoublePutBranch is the cross-branch shape: the urgent path already
// returned the buffer, so the unconditional Put below can be the second.
func (n *nic) DoublePutBranch(eng *sim.Engine, pkt []byte, urgent bool) {
	b := eng.Pool().Get(len(pkt))
	copy(b, pkt)
	if urgent {
		n.handle(b)
		eng.Pool().Put(b)
	}
	eng.Pool().Put(b) // want `possible double Put`
}

func (n *nic) DoublePutStraight(eng *sim.Engine) {
	b := eng.Pool().Get(64)
	eng.Pool().Put(b)
	eng.Pool().Put(b) // want `double Put`
}

// DoublePutLoop returns the same buffer on every trip: the second
// iteration's Put is a double Put.
func (n *nic) DoublePutLoop(eng *sim.Engine, k int) {
	b := eng.Pool().Get(64)
	for i := 0; i < k; i++ {
		eng.Pool().Put(b) // want `double Put`
	}
}

func (n *nic) UseAfterPut(eng *sim.Engine) byte {
	b := eng.Pool().Get(64)
	b[0] = 1
	eng.Pool().Put(b)
	return b[0] // want `after Put`
}

// SubslicePut hands the pool a capacity-changing reslice: the capacity no
// longer matches the size class. Put(b[:16]) keeps the capacity and is a
// legal full release.
func (n *nic) SubslicePut(eng *sim.Engine) {
	b := eng.Pool().Get(64)
	eng.Pool().Put(b[8:]) // want `sub-slice`
}

func (n *nic) SubsliceAliasPut(eng *sim.Engine) {
	b := eng.Pool().Get(64)
	tail := b[8:]
	eng.Pool().Put(tail) // want `sub-slice`
}

func (n *nic) FullReslicePut(eng *sim.Engine) {
	b := eng.Pool().Get(64)
	eng.Pool().Put(b[:16]) // capacity-preserving: legal release
}

// Leak: obtained, used locally, never returned, never escapes.
func (n *nic) Leak(eng *sim.Engine) int {
	b := eng.Pool().Get(64) // want `leaked`
	b[0] = 3
	return int(b[0])
}

// Stash transfers ownership into the struct: not a leak, and (because the
// buffer is pool-owned, not caller-owned) not a retention violation.
func (n *nic) Stash(eng *sim.Engine) {
	b := eng.Pool().Get(64)
	n.scratch = b
}

// DeferredPut satisfies the obligation at function exit.
func (n *nic) DeferredPut(eng *sim.Engine, pkt []byte) {
	b := eng.Pool().Snapshot(pkt)
	defer eng.Pool().Put(b)
	n.handle(b)
}

// DeliverWrong pools bytes the caller still owns: the parameter itself, a
// sub-slice alias, and a carrier field.
func (n *nic) DeliverWrong(eng *sim.Engine, pkt []byte, fr *frame) {
	eng.Pool().Put(pkt) // want `caller-owned`
	sub := pkt[2:]
	eng.Pool().Put(sub)        // want `caller-owned`
	eng.Pool().Put(fr.Payload) // want `caller-owned`
}

// DeliverSnapshotField: once a carrier field holds a pooled snapshot, the
// function owns it and may Put it (the snapshot idiom clears the taint).
func (n *nic) DeliverSnapshotField(eng *sim.Engine, fr *frame) {
	fr.Payload = eng.Pool().Snapshot(fr.Payload)
	n.handle(fr.Payload)
	eng.Pool().Put(fr.Payload)
}

// DeliverAllowed demonstrates the directive for an intentional transfer
// (bytes documented as passing ownership with the call).
func (n *nic) DeliverAllowed(eng *sim.Engine, pkt []byte) {
	//simlint:allow bufpoolown fixture demonstrating the directive
	eng.Pool().Put(pkt)
}

func (n *nic) handle([]byte) {}

// Adapter mirrors the real adapter's bypass registration surface; a
// function handed to SetBypass becomes a delivery handler and owns the
// pooled payload of every packet it is given.
type Adapter struct{}

func (a *Adapter) SetBypass(proto byte, fn func(*sim.Engine, *frame)) {}

func wireBypass(a *Adapter, n *nic) {
	a.SetBypass(3, n.bypassDeliver)
}

// bypassDeliver is registered above: the fabric snapshotted the payload at
// injection, so returning it to the pool here is the discipline working.
// Nothing may be flagged.
func (n *nic) bypassDeliver(eng *sim.Engine, fr *frame) {
	n.handle(fr.Payload)
	eng.Pool().Put(fr.Payload)
}

// strayDeliver has the same shape but is never registered: its parameter
// is still caller-owned and pooling it is the usual violation.
func (n *nic) strayDeliver(eng *sim.Engine, fr *frame) {
	eng.Pool().Put(fr.Payload) // want `caller-owned`
}
