// Fixture: the pre-PR-1 switch-fabric injection path, in its original
// shape. Send forwarded the caller's payload bytes into in-flight packets
// without a snapshot, and the DupProb duplicate shared the original's
// backing array — so a retransmitting sender re-stamping piggybacked acks
// could retroactively rewrite a packet already transiting the switch.
// bufpoolown must flag the aliasing duplicate.
package switchnet

import "splapi/internal/sim"

type Packet struct {
	Src, Dst int
	Payload  []byte
	Wire     int
	seq      uint64
}

type Fabric struct {
	eng     *sim.Engine
	deliver []func(*Packet)
	seq     uint64
	dup     bool
}

// Send is the pre-fix injection path: no snapshot of pkt.Payload before
// the packet starts its (virtual-time-deferred) transit, and a duplicate
// built by aliasing the original's bytes.
func (f *Fabric) Send(pkt *Packet, ready sim.Time) {
	pkt.seq = f.seq
	f.seq++
	f.transit(pkt, ready)
	if f.dup {
		dup := &Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: pkt.Payload, Wire: pkt.Wire, seq: pkt.seq} // want `aliased into a composite literal`
		f.transit(dup, ready+1)
	}
}

// SendFixed is the post-PR-1 path: the snapshot at the injection boundary
// clears the caller's ownership, and the duplicate carries its own copy.
// Nothing here may be flagged.
func (f *Fabric) SendFixed(pkt *Packet, ready sim.Time) {
	pkt.Payload = append([]byte(nil), pkt.Payload...)
	f.transit(pkt, ready)
	if f.dup {
		dup := &Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: append([]byte(nil), pkt.Payload...), Wire: pkt.Wire, seq: pkt.seq}
		f.transit(dup, ready+1)
	}
}

func (f *Fabric) transit(pkt *Packet, ready sim.Time) {
	arrival := ready + 10
	f.eng.At(arrival, func() {
		if cb := f.deliver[pkt.Dst]; cb != nil {
			cb(pkt)
		}
	})
}
