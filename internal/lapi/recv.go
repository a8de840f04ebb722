package lapi

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// onPacket is the HAL protocol handler: flow bookkeeping, then message
// reassembly. Runs in dispatcher context (polling caller or interrupt
// thread).
func (l *LAPI) onPacket(p *sim.Proc, src int, pkt []byte) {
	f := l.flows[src]
	kind := pkt[1]
	seq := binary.BigEndian.Uint64(pkt[2:10])
	body := pkt[flowHdrSize:]
	// Every packet piggybacks the peer's cumulative ack.
	f.onAck(binary.BigEndian.Uint64(pkt[10:18]))
	if kind == kAck {
		return
	}
	if !f.accept(p, seq) {
		return // duplicate
	}
	switch kind {
	case kHdr:
		l.onMsgHdr(p, src, body)
	case kData:
		l.onMsgData(p, src, body)
	default:
		panic(fmt.Sprintf("lapi: bad packet kind %d", kind))
	}
}

func (l *LAPI) onMsgHdr(p *sim.Proc, src int, body []byte) {
	op := body[0]
	id := binary.BigEndian.Uint64(body[1:9])
	hdrID := int(binary.BigEndian.Uint16(body[9:11]))
	uhdrLen := int(binary.BigEndian.Uint16(body[11:13]))
	dataLen := int(binary.BigEndian.Uint32(body[13:17]))
	tgtCntr := int(binary.BigEndian.Uint16(body[17:19]))
	cmplCnt := int(binary.BigEndian.Uint16(body[19:21]))
	uhdr := body[msgHdrFixed : msgHdrFixed+uhdrLen]
	first := body[msgHdrFixed+uhdrLen:]

	key := msgKey{src: src, id: id}
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KMsgHdr, l.node, src, tracelog.LAPIMsgID(src, id), dataLen, int64(op))
	m := l.pendingMsg(key)
	m.op = op
	m.uhdr = l.eng.Pool().Snapshot(uhdr)
	m.dataLen = dataLen
	m.gotHdr = true
	m.tgtCntr = tgtCntr
	m.cmplCnt = cmplCnt

	switch op {
	case opAmsend:
		m.buf, m.cmpl, m.arg = l.runHdrHandler(p, src, hdrID, m.uhdr, dataLen)
	case opPut:
		bufID := int(binary.BigEndian.Uint16(uhdr[0:2]))
		off := int(binary.BigEndian.Uint32(uhdr[2:6]))
		m.buf = l.buffers[bufID][off:]
	case opGetReply:
		getID := binary.BigEndian.Uint32(uhdr[0:4])
		g := l.pendingGets[getID]
		if g == nil {
			panic("lapi: get reply for unknown request")
		}
		m.buf = g.buf
		m.arg = g
	case opGetReq, opRmwReq, opRmwReply, opNotify:
		// Control messages carry no bulk data.
	default:
		panic(fmt.Sprintf("lapi: bad message op %d", op))
	}

	l.store(p, m, 0, first)
	// Flush any data packets that overtook the header packet. Once a stashed
	// segment has been scattered into the message buffer its pooled copy is
	// dead and returns to the engine pool.
	for _, seg := range m.stash {
		l.store(p, m, seg.off, seg.data)
		l.eng.Pool().Put(seg.data)
	}
	m.stash = m.stash[:0]
	l.maybeFinish(p, m)
}

// pendingMsg returns the record of the message key names, starting one for
// its first packet.
func (l *LAPI) pendingMsg(key msgKey) *recvMsg {
	m := l.pending[key]
	if m == nil {
		m = l.newRecv(key)
		l.pending[key] = m
	}
	return m
}

// newRecv returns a cleared record for key, one finishMsg returned if any.
// pending is keyed by msgKey values and never iterated, so which record
// serves a message cannot reach any result.
func (l *LAPI) newRecv(key msgKey) *recvMsg {
	if n := len(l.recvFree); n > 0 {
		m := l.recvFree[n-1]
		l.recvFree = l.recvFree[:n-1]
		m.key = key
		return m
	}
	l.recvMade++
	return &recvMsg{key: key}
}

func (l *LAPI) onMsgData(p *sim.Proc, src int, body []byte) {
	id := binary.BigEndian.Uint64(body[0:8])
	off := int(binary.BigEndian.Uint32(body[8:12]))
	data := body[msgDataFixed:]
	m := l.pendingMsg(msgKey{src: src, id: id})
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KMsgData, l.node, src, tracelog.LAPIMsgID(src, id), len(data), int64(off))
	if !m.gotHdr {
		// The switch's routes delivered a data packet before the header
		// packet: stash it until the header handler has supplied a buffer.
		l.stats.StashedPackets++
		m.stash = append(m.stash, stashSeg{off: off, data: l.eng.Pool().Snapshot(data)})
		return
	}
	l.store(p, m, off, data)
	l.maybeFinish(p, m)
}

// store assembles data at its offset in the message buffer, charging the
// single NIC-to-user copy.
func (l *LAPI) store(p *sim.Proc, m *recvMsg, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	l.h.ChargeCPU(p, l.par.CopyCost(len(data)))
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCopy, l.node, m.key.src, tracelog.LAPIMsgID(m.key.src, m.key.id), len(data), int64(l.par.CopyCost(len(data))))
	if m.buf != nil {
		copy(m.buf[off:], data)
	}
	m.recvd += len(data)
}

func (l *LAPI) maybeFinish(p *sim.Proc, m *recvMsg) {
	if !m.gotHdr || m.recvd < m.dataLen {
		return
	}
	delete(l.pending, m.key)
	l.finishMsg(p, m)
}

// runHdrHandler executes a header handler under the no-LAPI-calls guard.
func (l *LAPI) runHdrHandler(p *sim.Proc, src, hdrID int, uhdr []byte, dataLen int) ([]byte, CmplHandler, any) {
	if hdrID < 0 || hdrID >= len(l.hdrHandlers) {
		panic(fmt.Sprintf("lapi: unknown header handler %d", hdrID))
	}
	l.stats.HdrHandlers++
	l.h.ChargeCPU(p, l.par.HeaderHandlerCost)
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KHdrHandler, l.node, src, 0, dataLen, int64(l.par.HeaderHandlerCost))
	l.inHdr[p]++
	defer func() {
		l.inHdr[p]--
		if l.inHdr[p] == 0 {
			delete(l.inHdr, p)
		}
	}()
	return l.hdrHandlers[hdrID](p, src, uhdr, dataLen)
}

// finishMsg runs when the whole message is assembled: execute the op's
// action and completion handler (per variant), update the target counter,
// and notify the origin's completion counter if requested.
func (l *LAPI) finishMsg(p *sim.Proc, m *recvMsg) {
	l.stats.MsgsCompleted++
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KMsgDone, l.node, m.key.src, tracelog.LAPIMsgID(m.key.src, m.key.id), m.dataLen, int64(m.op))
	switch m.op {
	case opAmsend, opPut:
		l.completeWithHandler(p, m)
	case opGetReq:
		l.serveGet(p, m)
	case opGetReply:
		g := m.arg.(*getOp)
		getID := binary.BigEndian.Uint32(m.uhdr[0:4])
		delete(l.pendingGets, getID)
		if g.org != nil {
			g.org.add(1)
		}
	case opRmwReq:
		l.serveRmw(p, m)
	case opRmwReply:
		rmwID := binary.BigEndian.Uint32(m.uhdr[0:4])
		prev := int64(binary.BigEndian.Uint64(m.uhdr[4:12]))
		if ro := l.pendingRmws[rmwID]; ro != nil {
			ro.prev = prev
			ro.done = true
			l.h.KickProgress()
		}
	case opNotify:
		cntr := int(binary.BigEndian.Uint16(m.uhdr[0:2]))
		l.bumpCounter(p, cntr)
	}
	// Every op consumes the user header and the record synchronously above
	// (the Threaded completion closure captures only scalars), so both the
	// pooled snapshot taken in onMsgHdr/loopback and the record are dead once
	// the message has finished; the record keeps its stash capacity.
	//simlint:allow bufpoolown ownership transfer: the pooled uhdr snapshot returns to the engine pool with the completed message
	l.eng.Pool().Put(m.uhdr)
	*m = recvMsg{stash: m.stash[:0]}
	l.recvFree = append(l.recvFree, m)
}

// completeWithHandler finishes an Amsend/Put: run the completion handler in
// the configured regime, then post-completion bookkeeping.
func (l *LAPI) completeWithHandler(p *sim.Proc, m *recvMsg) {
	src, tgtCntr, cmplCnt := m.key.src, m.tgtCntr, m.cmplCnt
	if m.cmpl == nil {
		l.afterCompletion(p, src, tgtCntr, cmplCnt)
		return
	}
	switch l.variant {
	case Threaded:
		l.stats.CmplThreaded++
		cmpl, arg := m.cmpl, m.arg
		mid := tracelog.LAPIMsgID(src, m.key.id)
		l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCmplQueued, l.node, src, mid, m.dataLen, 0)
		l.cmplQueue.Put(p, func(cp *sim.Proc) {
			l.h.ChargeCPU(cp, l.par.ThreadContextSwitch)
			l.tr.Emit(cp.Now(), tracelog.LLAPI, tracelog.KCtxSwitch, l.node, src, mid, 0, int64(l.par.ThreadContextSwitch))
			cmpl(cp, arg)
			l.afterCompletion(cp, src, tgtCntr, cmplCnt)
			l.h.KickProgress()
		})
	case Inline:
		l.stats.CmplInline++
		l.h.ChargeCPU(p, l.par.InlineHandlerOverhead)
		l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCmplInline, l.node, src, tracelog.LAPIMsgID(src, m.key.id), 0, int64(l.par.InlineHandlerOverhead))
		m.cmpl(p, m.arg)
		l.afterCompletion(p, src, tgtCntr, cmplCnt)
	}
}

// afterCompletion bumps an Amsend/Put's target counter and notifies its
// origin's completion counter, each if the origin asked for it.
func (l *LAPI) afterCompletion(p *sim.Proc, src, tgtCntr, cmplCnt int) {
	if tgtCntr != noID {
		l.bumpCounter(p, tgtCntr)
	}
	if cmplCnt != noID {
		l.sendNotify(p, src, cmplCnt)
	}
}

func (l *LAPI) bumpCounter(p *sim.Proc, id int) {
	if id < 0 || id >= len(l.counters) {
		panic(fmt.Sprintf("lapi: bad counter id %d", id))
	}
	l.stats.CounterUpdates++
	l.h.ChargeCPU(p, l.par.CounterUpdateCost)
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCounter, l.node, -1, 0, 0, int64(l.par.CounterUpdateCost))
	l.counters[id].add(1)
}

func (l *LAPI) sendNotify(p *sim.Proc, tgt, cntrID int) {
	uhdr := l.eng.Pool().Get(2)
	binary.BigEndian.PutUint16(uhdr[0:2], uint16(cntrID))
	l.sendMsg(p, tgt, opNotify, 0, uhdr, nil, noID, noID, nil)
	l.eng.Pool().Put(uhdr)
}

// serveGet answers a Get request: send the requested slice of the
// registered buffer back as a GetReply message.
func (l *LAPI) serveGet(p *sim.Proc, m *recvMsg) {
	bufID := int(binary.BigEndian.Uint16(m.uhdr[0:2]))
	off := int(binary.BigEndian.Uint32(m.uhdr[2:6]))
	n := int(binary.BigEndian.Uint32(m.uhdr[6:10]))
	getID := binary.BigEndian.Uint32(m.uhdr[10:14])
	data := l.buffers[bufID][off : off+n]
	reply := l.eng.Pool().Get(4)
	binary.BigEndian.PutUint32(reply[0:4], getID)
	l.h.ChargeCPU(p, l.par.SendCallOverhead)
	l.sendMsg(p, m.key.src, opGetReply, 0, reply, data, noID, noID, nil)
	l.eng.Pool().Put(reply)
	if m.tgtCntr != noID {
		l.bumpCounter(p, m.tgtCntr)
	}
}

// serveRmw answers a read-modify-write request.
func (l *LAPI) serveRmw(p *sim.Proc, m *recvMsg) {
	varID := int(binary.BigEndian.Uint16(m.uhdr[0:2]))
	op := RmwOp(m.uhdr[2])
	in := int64(binary.BigEndian.Uint64(m.uhdr[3:11]))
	rmwID := binary.BigEndian.Uint32(m.uhdr[11:15])
	prev := applyRmw(l.rmwVars[varID], op, in)
	reply := l.eng.Pool().Get(12)
	binary.BigEndian.PutUint32(reply[0:4], rmwID)
	binary.BigEndian.PutUint64(reply[4:12], uint64(prev))
	l.h.ChargeCPU(p, l.par.SendCallOverhead)
	l.sendMsg(p, m.key.src, opRmwReply, 0, reply, nil, noID, noID, nil)
	l.eng.Pool().Put(reply)
}

// completionLoop is the completion-handler thread (Threaded variant): it
// executes queued completion closures, each paying the context switch the
// paper identifies as the dominant overhead of the Base design.
func (l *LAPI) completionLoop(p *sim.Proc) {
	for {
		fn := l.cmplQueue.Get(p).(func(*sim.Proc))
		fn(p)
	}
}

// requestResend and requestAck hand timer-driven work to the service
// process, which may block.
func (l *LAPI) requestResend(peer int) {
	l.resendPeers[peer] = true
	l.svcCond.Broadcast()
}

func (l *LAPI) requestAck(peer int) {
	l.ackPeers[peer] = true
	l.svcCond.Broadcast()
}

func (l *LAPI) pendingService() bool {
	for _, f := range l.resendPeers {
		if f {
			return true
		}
	}
	for _, f := range l.ackPeers {
		if f {
			return true
		}
	}
	return false
}

func (l *LAPI) serviceLoop(p *sim.Proc) {
	for {
		for !l.pendingService() {
			l.svcCond.Wait(p)
		}
		// Drain first: a pending ack may make the retransmission moot.
		l.h.Poll(p)
		for peer := range l.resendPeers {
			if !l.resendPeers[peer] {
				continue
			}
			l.resendPeers[peer] = false
			l.flows[peer].retransmit(p)
		}
		for peer := range l.ackPeers {
			if !l.ackPeers[peer] {
				continue
			}
			l.ackPeers[peer] = false
			f := l.flows[peer]
			if f.ackOwed {
				f.sendAck(p)
			}
		}
		l.h.KickProgress()
	}
}
