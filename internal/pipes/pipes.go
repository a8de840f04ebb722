// Package pipes implements the native MPI stack's Pipes layer (Section 2 of
// the paper): a reliable, ordered byte stream between every ordered pair of
// tasks, built on the unreliable, unordered HAL packet layer.
//
// Mechanisms, as described in the paper:
//
//   - sliding-window flow control (a sender may have at most the window of
//     unacknowledged bytes in flight);
//   - acknowledgement/retransmission for reliability (go-back-N from the
//     cumulative ack point);
//   - resequencing at the receiving end, because the switch's four routes
//     deliver packets out of order;
//   - delayed acknowledgements, with an immediate ack on out-of-order or
//     duplicate data to speed loss recovery.
//
// Upper layers (the native MPCI) receive the stream as in-order byte chunks
// via the Deliver callback and do their own message framing.
package pipes

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/hal"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Wire format after the protocol byte:
//
//	DATA: [0]=ProtoPipes [1]=typeData [2:10]=offset [10:18]=piggyback ack [18:]=bytes
//	ACK:  [0]=ProtoPipes [1]=typeAck  [2:10]=cumulative received offset
//
// Every data packet piggybacks the cumulative acknowledgement for the
// reverse stream, so bidirectional traffic needs almost no standalone ack
// packets.
const (
	typeData byte = 1
	typeAck  byte = 2

	dataHdrSize = 18
	ackSize     = 10
)

// Stats are cumulative per-node pipes counters.
type Stats struct {
	BytesSent     uint64
	BytesDeliver  uint64
	DataPackets   uint64
	AcksSent      uint64
	AcksPiggyback uint64
	AcksRecvd     uint64
	Retransmits   uint64
	Timeouts      uint64
	DupsDropped   uint64
	OutOfOrder    uint64
	WindowStalls  uint64
	StashOverflow uint64
}

// Deliver receives in-order stream bytes from src. It runs in dispatcher
// context and may block/sleep.
type Deliver func(p *sim.Proc, src int, data []byte)

type sendPipe struct {
	dst     int
	next    uint64 // next stream offset to assign
	acked   uint64 // cumulative acked offset
	unacked []byte // bytes in [acked, next), a window of base
	base    []byte // the start of unacked's array
	// walkers counts retransmits walking unacked across a blocking send;
	// while one does, push must not move the bytes under it.
	walkers  int
	rtxTimer sim.Timer
	rtxArmed bool
	onRtx    func() // the retransmission timer's callback, bound once
}

type recvPipe struct {
	src        int
	expected   uint64            // next in-order offset
	stash      map[uint64][]byte // out-of-order segments by offset (pooled)
	stashed    int               // bytes stashed
	ackTimer   sim.Timer
	ackOwed    bool
	onAckDelay func() // the delayed-ack timer's callback, bound once
}

// Pipes is one task's pipes endpoint, holding a send pipe and a receive
// pipe per peer.
type Pipes struct {
	eng  *sim.Engine
	par  *machine.Params
	h    *hal.HAL
	node int
	n    int

	send    []*sendPipe
	recv    []*recvPipe
	deliver Deliver

	// Work queues for the service process (timers cannot block).
	resendFlags []bool
	svcAck      sim.FIFO[int]
	svcCond     sim.Cond

	stats Stats
	tr    *tracelog.Log
}

// New creates the pipes endpoint for h's node in an n-task job and registers
// its protocol handler. SetDeliver must be called before traffic arrives.
func New(eng *sim.Engine, par *machine.Params, h *hal.HAL, n int) *Pipes {
	pp := &Pipes{
		eng:         eng,
		par:         par,
		h:           h,
		node:        h.Node(),
		n:           n,
		send:        make([]*sendPipe, n),
		recv:        make([]*recvPipe, n),
		resendFlags: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		sp, rp := &sendPipe{dst: i}, &recvPipe{src: i, stash: make(map[uint64][]byte)}
		sp.onRtx, rp.onAckDelay = func() { pp.rtxExpired(sp) }, func() { pp.ackDelayExpired(rp) }
		pp.send[i], pp.recv[i] = sp, rp
	}
	h.RegisterProto(hal.ProtoPipes, pp.onPacket)
	eng.Spawn(fmt.Sprintf("pipes-svc-%d", pp.node), pp.serviceLoop)
	return pp
}

// SetDeliver installs the in-order delivery callback.
func (pp *Pipes) SetDeliver(fn Deliver) { pp.deliver = fn }

// Stats returns a copy of the cumulative counters.
func (pp *Pipes) Stats() Stats { return pp.stats }

// SetTrace attaches an event log (nil disables tracing).
func (pp *Pipes) SetTrace(tl *tracelog.Log) { pp.tr = tl }

// InFlight returns the number of unacknowledged bytes toward dst.
func (pp *Pipes) InFlight(dst int) int { return len(pp.send[dst].unacked) }

// chunkSize is the stream payload carried per packet.
func (pp *Pipes) chunkSize() int { return pp.par.PacketPayload - dataHdrSize }

// ChunkSize reports the stream bytes carried per switch packet, so callers
// feeding the pipe incrementally can align their writes to packet
// boundaries.
func (pp *Pipes) ChunkSize() int { return pp.chunkSize() }

// Write sends data to dst as an ordered, reliable stream. It blocks while
// the sliding window is full; on return all bytes are buffered for
// (re)transmission, not necessarily acknowledged. The data is copied into
// the retransmission buffer, so the caller may reuse it immediately.
//
// Write charges no memcpy cost itself: the native MPCI layer accounts for
// the user-buffer/pipe-buffer copy rule of Section 2.
func (pp *Pipes) Write(p *sim.Proc, dst int, data []byte) {
	if dst == pp.node {
		panic("pipes: self-send must be handled above the pipes layer")
	}
	sp := pp.send[dst]
	for len(data) > 0 {
		// Window check.
		for len(sp.unacked) >= pp.par.PipeWindowBytes {
			pp.stats.WindowStalls++
			pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeStall, pp.node, dst, 0, len(sp.unacked), int64(sp.next))
			pp.progressWindow(p, sp)
		}
		chunk := min(pp.chunkSize(), pp.par.PipeWindowBytes-len(sp.unacked), len(data))
		seg := data[:chunk]
		data = data[chunk:]
		off := sp.next
		sp.next += uint64(chunk)
		sp.push(seg)
		pp.sendData(p, dst, off, seg)
		pp.armRtx(sp)
	}
}

// push appends seg to the window. Acks trim unacked from the front, so once
// it reaches the end of its array the bytes move back to the array's front
// rather than into a new array, except while a retransmit walks them.
func (sp *sendPipe) push(seg []byte) {
	if n := len(sp.unacked) + len(seg); n > cap(sp.unacked) && n <= cap(sp.base) && sp.walkers == 0 {
		sp.unacked = sp.base[:copy(sp.base[:len(sp.unacked)], sp.unacked)]
	}
	c := cap(sp.unacked)
	sp.unacked = append(sp.unacked, seg...)
	if cap(sp.unacked) != c {
		sp.base = sp.unacked[:0] // append moved the window to a new array
	}
}

// progressWindow drives the dispatcher until window space opens (the ack
// that frees space can only arrive if we keep polling).
func (pp *Pipes) progressWindow(p *sim.Proc, sp *sendPipe) {
	pp.h.ProgressWait(p, func() bool {
		return len(sp.unacked) < pp.par.PipeWindowBytes
	})
}

// DrainAcks blocks until every byte written toward dst has been
// acknowledged.
func (pp *Pipes) DrainAcks(p *sim.Proc, dst int) {
	sp := pp.send[dst]
	pp.h.ProgressWait(p, func() bool { return len(sp.unacked) == 0 })
}

func (pp *Pipes) sendData(p *sim.Proc, dst int, off uint64, seg []byte) {
	// The packet buffer lives only until the fabric snapshots it inside
	// h.Send, so it cycles through the engine's pool.
	buf := pp.eng.Pool().Get(dataHdrSize + len(seg))
	buf[0] = hal.ProtoPipes
	buf[1] = typeData
	binary.BigEndian.PutUint64(buf[2:10], off)
	// Piggyback the reverse stream's cumulative ack and cancel any owed
	// standalone ack for it.
	rp := pp.recv[dst]
	binary.BigEndian.PutUint64(buf[10:18], rp.expected)
	if rp.ackOwed {
		rp.ackOwed = false
		rp.ackTimer.Stop()
		pp.stats.AcksPiggyback++
	}
	copy(buf[dataHdrSize:], seg)
	pp.stats.DataPackets++
	pp.stats.BytesSent += uint64(len(seg))
	pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeData, pp.node, dst, 0, len(seg), int64(off))
	pp.h.Send(p, dst, buf)
	pp.eng.Pool().Put(buf)
}

func (pp *Pipes) sendAck(p *sim.Proc, src int) {
	rp := pp.recv[src]
	rp.ackTimer.Stop()
	rp.ackOwed = false
	buf := pp.eng.Pool().Get(ackSize)
	buf[0] = hal.ProtoPipes
	buf[1] = typeAck
	binary.BigEndian.PutUint64(buf[2:10], rp.expected)
	pp.stats.AcksSent++
	pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeAck, pp.node, src, 0, 0, int64(rp.expected))
	pp.h.Send(p, src, buf)
	pp.eng.Pool().Put(buf)
}

// scheduleAck arms the delayed-ack timer for src.
func (pp *Pipes) scheduleAck(src int) {
	rp := pp.recv[src]
	if rp.ackOwed {
		return
	}
	rp.ackOwed = true
	rp.ackTimer = pp.eng.After(pp.par.AckDelay, rp.onAckDelay)
}

func (pp *Pipes) ackDelayExpired(rp *recvPipe) {
	if !rp.ackOwed {
		return
	}
	// Timers cannot block; let the service process send it.
	pp.svcAck.Push(rp.src)
	pp.svcCond.Broadcast()
}

// armRtx (re)arms the retransmission timer for sp.
func (pp *Pipes) armRtx(sp *sendPipe) {
	if sp.rtxArmed || len(sp.unacked) == 0 {
		return
	}
	sp.rtxArmed = true
	sp.rtxTimer = pp.eng.After(pp.par.RetransmitTimeout, sp.onRtx)
}

func (pp *Pipes) rtxExpired(sp *sendPipe) {
	sp.rtxArmed = false
	if len(sp.unacked) == 0 {
		return
	}
	pp.stats.Timeouts++
	pp.resendFlags[sp.dst] = true
	pp.svcCond.Broadcast()
}

// serviceLoop is the per-node service process: it performs the blocking work
// that timers request (retransmissions, delayed acks).
func (pp *Pipes) serviceLoop(p *sim.Proc) {
	for {
		for !pp.pendingService() {
			pp.svcCond.Wait(p)
		}
		// Drain the FIFO first: an ack may already have arrived that makes
		// a scheduled retransmission unnecessary. (On the real system the
		// timer context likewise ran the dispatcher.)
		pp.h.Poll(p)
		for i, f := range pp.resendFlags {
			if !f {
				continue
			}
			pp.resendFlags[i] = false
			pp.retransmit(p, i)
		}
		for pp.svcAck.Len() > 0 {
			if src := pp.svcAck.Pop(); pp.recv[src].ackOwed {
				pp.sendAck(p, src)
			}
		}
		pp.h.KickProgress()
	}
}

func (pp *Pipes) pendingService() bool {
	for _, f := range pp.resendFlags {
		if f {
			return true
		}
	}
	return pp.svcAck.Len() > 0
}

// retransmit resends all unacked bytes toward dst (go-back-N).
func (pp *Pipes) retransmit(p *sim.Proc, dst int) {
	sp := pp.send[dst]
	if len(sp.unacked) == 0 {
		return
	}
	pp.stats.Retransmits++
	pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeRtx, pp.node, dst, 0, len(sp.unacked), int64(sp.acked))
	off := sp.acked
	rest := sp.unacked
	sp.walkers++
	for len(rest) > 0 {
		chunk := min(pp.chunkSize(), len(rest))
		pp.sendData(p, dst, off, rest[:chunk])
		off += uint64(chunk)
		rest = rest[chunk:]
	}
	sp.walkers--
	pp.armRtx(sp)
}

// onPacket is the HAL protocol handler.
func (pp *Pipes) onPacket(p *sim.Proc, src int, pkt []byte) {
	switch pkt[1] {
	case typeData:
		pp.onData(p, src, pkt)
	case typeAck:
		pp.onAck(src, pkt)
	default:
		panic(fmt.Sprintf("pipes: bad packet type %d", pkt[1]))
	}
}

func (pp *Pipes) onData(p *sim.Proc, src int, pkt []byte) {
	rp := pp.recv[src]
	off := binary.BigEndian.Uint64(pkt[2:10])
	pp.applyAck(src, binary.BigEndian.Uint64(pkt[10:18]))
	data := pkt[dataHdrSize:]
	switch {
	case off == rp.expected:
		// Commit the advance BEFORE delivering: delivery runs upper-layer
		// code that can block (e.g. a rendezvous data transmission
		// stalling on the window), and a retransmitted copy of this same
		// packet arriving meanwhile must be classified as a duplicate.
		rp.expected += uint64(len(data))
		pp.deliverChunk(p, src, data)
		// Drain any contiguous stashed segments (same commit-first rule).
		for {
			seg, ok := rp.stash[rp.expected]
			if !ok {
				break
			}
			delete(rp.stash, rp.expected)
			rp.stashed -= len(seg)
			rp.expected += uint64(len(seg))
			pp.deliverChunk(p, src, seg)
			pp.eng.Pool().Put(seg) // deliverChunk consumers copy; the stash segment is dead
		}
		pp.scheduleAck(src)
	case off > rp.expected:
		// Out of order: stash within the window.
		pp.stats.OutOfOrder++
		pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeOOO, pp.node, src, 0, len(data), int64(off))
		if rp.stashed+len(data) > pp.par.PipeWindowBytes {
			pp.stats.StashOverflow++
			return // dropped; retransmission recovers it
		}
		if _, dup := rp.stash[off]; !dup {
			rp.stash[off] = pp.eng.Pool().Snapshot(data)
			rp.stashed += len(data)
		}
		pp.sendAck(p, src) // immediate ack reveals the gap early
	default:
		// Duplicate of already-delivered data.
		pp.stats.DupsDropped++
		pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeDup, pp.node, src, 0, len(data), int64(off))
		pp.sendAck(p, src)
	}
}

func (pp *Pipes) deliverChunk(p *sim.Proc, src int, data []byte) {
	pp.stats.BytesDeliver += uint64(len(data))
	if pp.deliver == nil {
		panic("pipes: no deliver callback installed")
	}
	pp.tr.Emit(p.Now(), tracelog.LPipes, tracelog.KPipeDeliver, pp.node, src, 0, len(data), 0)
	pp.deliver(p, src, data)
}

func (pp *Pipes) onAck(src int, pkt []byte) {
	pp.stats.AcksRecvd++
	pp.applyAck(src, binary.BigEndian.Uint64(pkt[2:10]))
}

// applyAck advances the send pipe toward src by a cumulative ack (from a
// standalone ack packet or a piggybacked field).
func (pp *Pipes) applyAck(src int, cum uint64) {
	sp := pp.send[src]
	if cum <= sp.acked {
		return // stale
	}
	adv := cum - sp.acked
	if adv > uint64(len(sp.unacked)) {
		panic("pipes: ack beyond sent data")
	}
	sp.unacked = sp.unacked[adv:]
	sp.acked = cum
	// The ack made progress: disarm the retransmission timer and, if data
	// is still in flight, restart it from now (otherwise a long stream
	// spuriously retransmits every timeout even though acks are flowing).
	sp.rtxTimer.Stop()
	sp.rtxArmed = false
	pp.armRtx(sp)
	pp.h.KickProgress()
}
