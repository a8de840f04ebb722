package lapi

import (
	"encoding/binary"

	"splapi/internal/hal"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// flow is LAPI's reliable transport to one peer. Unlike the Pipes layer it
// does NOT resequence: packets are delivered to the message-reassembly layer
// immediately in whatever order the switch produces, because every data
// packet carries its destination offset. Reliability uses per-pair packet
// sequence numbers with cumulative acknowledgements, a duplicate filter for
// out-of-order arrivals, and go-back-N retransmission on timeout.
//
// Wire format (after the protocol byte):
//
//	[1]=kind  [2:10]=flow sequence number  [10:18]=piggybacked cumulative
//	ack for the reverse flow  [18:]=kind-specific body
//	kAck body: empty (the piggyback field carries the ack)
const (
	kAck  byte = 0
	kHdr  byte = 1
	kData byte = 2

	flowHdrSize = 18
)

type flowPkt struct {
	seq     uint64
	payload []byte // full packet including protocol byte and flow header
}

type flow struct {
	l    *LAPI
	peer int

	// Sender state.
	nextSeq  uint64
	cumAcked uint64
	unacked  []flowPkt // packets [cumAcked, nextSeq), a window of base
	base     []flowPkt // the start of unacked's array
	// walkers counts retransmits walking unacked across blocking sends;
	// while one does, the window's entries must stay where they are.
	walkers  int
	rtxArmed bool
	rtxTimer sim.Timer
	// rto is the adaptive retransmission timeout: 0 means the base
	// par.RetransmitTimeout; every expiry doubles it up to
	// par.RetransmitMax (exponential backoff, so a long outage does not
	// flood the fabric with go-back-N resends) and any cumulative-ack
	// progress resets it to the base.
	rto sim.Time

	// Receiver state.
	expected  uint64 // all seqs below this processed
	processed map[uint64]bool
	ackOwed   bool
	ackTimer  sim.Timer
	sinceAck  int
	// The timer callbacks, bound once rather than per packet.
	onRtx, onAckDelay func()
}

func newFlow(l *LAPI, peer int) *flow {
	f := &flow{l: l, peer: peer, processed: make(map[uint64]bool)}
	f.onRtx, f.onAckDelay = f.rtxExpired, f.ackDelayExpired
	return f
}

// windowPkts is the maximum number of unacknowledged packets in flight.
func (f *flow) windowPkts() int {
	w := f.l.par.PipeWindowBytes / f.l.par.PacketPayload
	if w < 4 {
		w = 4
	}
	return w
}

// send transmits one packet reliably. body is the kind-specific bytes; the
// flow prepends its framing. Blocks while the window is full.
func (f *flow) send(p *sim.Proc, kind byte, body []byte) {
	for len(f.unacked) >= f.windowPkts() {
		f.l.stats.WindowStalls++
		f.l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KFlowStall, f.l.node, f.peer, 0, len(f.unacked), int64(f.nextSeq))
		f.l.h.ProgressWait(p, func() bool { return len(f.unacked) < f.windowPkts() })
	}
	// The framed packet comes from the engine pool; the flow owns it while it
	// sits in the retransmission window and returns it on cumulative ack.
	buf := f.l.eng.Pool().Get(flowHdrSize + len(body))
	buf[0] = hal.ProtoLAPI
	buf[1] = kind
	seq := f.nextSeq
	f.nextSeq++
	binary.BigEndian.PutUint64(buf[2:10], seq)
	f.stampAck(buf)
	copy(buf[flowHdrSize:], body)
	f.push(flowPkt{seq: seq, payload: buf})
	f.l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KFlowSend, f.l.node, f.peer, 0, len(body), int64(seq))
	f.l.h.Send(p, f.peer, buf)
	f.armRtx()
}

// push appends pk to the window. Acks trim unacked from the front, so once
// it reaches the end of its array the entries move back to the array's
// front rather than into a new array, except while a retransmit walks them.
func (f *flow) push(pk flowPkt) {
	if n := len(f.unacked); n == cap(f.unacked) && n < cap(f.base) && f.walkers == 0 {
		f.unacked = f.base[:copy(f.base[:n], f.unacked)]
	}
	c := cap(f.unacked)
	f.unacked = append(f.unacked, pk)
	if cap(f.unacked) != c {
		f.base = f.unacked[:0] // append moved the window to a new array
	}
}

// stampAck piggybacks the receive side's cumulative ack on an outgoing
// packet and cancels any owed standalone ack.
func (f *flow) stampAck(buf []byte) {
	binary.BigEndian.PutUint64(buf[10:18], f.expected)
	if f.ackOwed {
		f.ackOwed = false
		f.ackTimer.Stop()
		f.l.stats.AcksPiggyback++
	}
	f.sinceAck = 0
}

// curRTO returns the retransmission timeout currently in force.
func (f *flow) curRTO() sim.Time {
	if f.rto > 0 {
		return f.rto
	}
	return f.l.par.RetransmitTimeout
}

func (f *flow) armRtx() {
	if f.rtxArmed || len(f.unacked) == 0 {
		return
	}
	f.rtxArmed = true
	f.rtxTimer = f.l.eng.After(f.curRTO(), f.onRtx)
}

func (f *flow) rtxExpired() {
	f.rtxArmed = false
	if len(f.unacked) == 0 {
		return
	}
	f.l.stats.Timeouts++
	f.l.tr.Emit(f.l.eng.Now(), tracelog.LLAPI, tracelog.KFlowTimeout, f.l.node, f.peer, 0, len(f.unacked), int64(f.curRTO()))
	next := f.curRTO() * 2
	if max := f.l.par.RetransmitMax; max > 0 && next > max {
		next = max
	}
	f.rto = next
	f.l.requestResend(f.peer)
}

// retransmit resends every unacked packet (go-back-N) with a fresh
// piggybacked ack; runs on the service process.
func (f *flow) retransmit(p *sim.Proc) {
	if len(f.unacked) == 0 {
		return
	}
	f.l.stats.Retransmits++
	f.l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KFlowRtx, f.l.node, f.peer, 0, len(f.unacked), int64(f.cumAcked))
	f.walkers++
	for _, pk := range f.unacked {
		f.stampAck(pk.payload)
		f.l.h.Send(p, f.peer, pk.payload)
	}
	f.walkers--
	f.armRtx()
}

// onAck processes a cumulative ack.
func (f *flow) onAck(cum uint64) {
	if cum <= f.cumAcked {
		return
	}
	f.cumAcked = cum
	// Ack progress: the path is alive again, so the backoff resets to
	// the base timeout.
	f.rto = 0
	i := 0
	for i < len(f.unacked) && f.unacked[i].seq < cum {
		i++
	}
	// Acked packets will never be retransmitted; their pooled framing
	// buffers go back to the engine pool.
	for _, pk := range f.unacked[:i] {
		f.l.eng.Pool().Put(pk.payload)
	}
	if f.walkers == 0 {
		// A walking retransmit still reads its copy of the window's
		// entries, so they are cleared only when none is active.
		clear(f.unacked[:i])
	}
	f.unacked = f.unacked[i:]
	// Progress: restart the retransmission timer rather than letting a
	// stale one fire mid-stream and resend the whole window.
	f.rtxTimer.Stop()
	f.rtxArmed = false
	f.armRtx()
	f.l.h.KickProgress()
}

// accept runs the receive-side duplicate filter for sequence seq. It reports
// whether the packet is new (should be processed). It also advances the
// cumulative point and schedules acknowledgements.
func (f *flow) accept(p *sim.Proc, seq uint64) bool {
	if seq < f.expected || f.processed[seq] {
		f.l.stats.DupsDropped++
		f.l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KFlowDup, f.l.node, f.peer, 0, 0, int64(seq))
		f.sendAck(p) // re-ack so the sender stops resending
		return false
	}
	if seq == f.expected && len(f.processed) == 0 {
		// In order with no gap recorded: the map would take seq and give
		// it straight back.
		f.expected++
	} else {
		f.processed[seq] = true
		for f.processed[f.expected] {
			delete(f.processed, f.expected)
			f.expected++
		}
	}
	f.sinceAck++
	if len(f.processed) > 0 || f.sinceAck >= 8 {
		// A gap exists (loss or reorder) or enough packets accumulated:
		// ack immediately.
		f.sendAck(p)
	} else {
		f.scheduleAck()
	}
	return true
}

func (f *flow) sendAck(p *sim.Proc) {
	f.ackTimer.Stop()
	f.ackOwed = false
	f.sinceAck = 0
	buf := f.l.eng.Pool().Get(flowHdrSize)
	buf[0] = hal.ProtoLAPI
	buf[1] = kAck
	binary.BigEndian.PutUint64(buf[10:18], f.expected)
	f.l.stats.AcksSent++
	f.l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KFlowAck, f.l.node, f.peer, 0, 0, int64(f.expected))
	f.l.h.Send(p, f.peer, buf)
	// Standalone acks are never retransmitted: the fabric snapshotted the
	// bytes inside h.Send, so the framing buffer is already dead.
	f.l.eng.Pool().Put(buf)
}

func (f *flow) scheduleAck() {
	if f.ackOwed {
		return
	}
	f.ackOwed = true
	f.ackTimer = f.l.eng.After(f.l.par.AckDelay, f.onAckDelay)
}

func (f *flow) ackDelayExpired() {
	if f.ackOwed {
		f.l.requestAck(f.peer)
	}
}
