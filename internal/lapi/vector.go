package lapi

import (
	"encoding/binary"

	"splapi/internal/sim"
)

// VecEntry is one (offset, length) strip of a vectored transfer within a
// registered buffer.
type VecEntry struct {
	Off int
	Len int
}

// Putv is LAPI_Putv: scatter the strips of data into the target's
// registered buffer at the given offsets, as a single message. data is
// consumed strip by strip in order; its total length must equal the sum of
// entry lengths. Counters behave as in Put.
func (l *LAPI) Putv(p *sim.Proc, tgt, bufID int, entries []VecEntry, data []byte, tgtCntr int, org *Counter, cmplCntr int) {
	l.guardComm(p, "Putv")
	if len(entries) == 0 {
		panic("lapi: Putv with no entries")
	}
	total := 0
	for _, e := range entries {
		total += e.Len
	}
	if total != len(data) {
		panic("lapi: Putv data length does not match entries")
	}
	l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.SendCallOverhead)
	// The vector description rides in the user header:
	// [0:2]=bufID [2:4]=count, then per entry [off uint32][len uint32].
	uhdr := l.eng.Pool().Get(4 + 8*len(entries))
	binary.BigEndian.PutUint16(uhdr[0:2], uint16(bufID))
	binary.BigEndian.PutUint16(uhdr[2:4], uint16(len(entries)))
	for i, e := range entries {
		binary.BigEndian.PutUint32(uhdr[4+8*i:], uint32(e.Off))
		binary.BigEndian.PutUint32(uhdr[8+8*i:], uint32(e.Len))
	}
	l.sendMsg(p, tgt, opPutv, 0, uhdr, data, cntrID(tgtCntr), cntrID(cmplCntr), org)
	l.eng.Pool().Put(uhdr)
}

// Getv is LAPI_Getv: gather the strips of the target's registered buffer
// into local, in entry order. org is incremented when all data has arrived.
func (l *LAPI) Getv(p *sim.Proc, tgt, bufID int, entries []VecEntry, local []byte, tgtCntr int, org *Counter) {
	l.guardComm(p, "Getv")
	total := 0
	for _, e := range entries {
		total += e.Len
	}
	if total != len(local) {
		panic("lapi: Getv local length does not match entries")
	}
	if tgt == l.node {
		l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.CopyCost(total))
		at := 0
		for _, e := range entries {
			copy(local[at:at+e.Len], l.buffers[bufID][e.Off:e.Off+e.Len])
			at += e.Len
		}
		if org != nil {
			org.add(1)
		}
		return
	}
	l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.SendCallOverhead)
	getID := l.nextGetID
	l.nextGetID++
	// Same contract as Get: the reply handler deposits arriving data
	// directly in the caller's buffer.
	//simlint:allow bufpoolown asynchronous Getv writes into the caller's buffer on reply
	l.pendingGets[getID] = &getOp{buf: local, org: org}
	uhdr := l.eng.Pool().Get(8 + 8*len(entries))
	binary.BigEndian.PutUint16(uhdr[0:2], uint16(bufID))
	binary.BigEndian.PutUint16(uhdr[2:4], uint16(len(entries)))
	binary.BigEndian.PutUint32(uhdr[4:8], getID)
	for i, e := range entries {
		binary.BigEndian.PutUint32(uhdr[8+8*i:], uint32(e.Off))
		binary.BigEndian.PutUint32(uhdr[12+8*i:], uint32(e.Len))
	}
	l.sendMsg(p, tgt, opGetvReq, 0, uhdr, nil, cntrID(tgtCntr), noID, nil)
	l.eng.Pool().Put(uhdr)
}

// putvTarget resolves a Putv message: since strips are disjoint regions of
// the registered buffer, the message assembles into a scratch buffer and
// scatters on completion (the scatter copy is charged).
func (l *LAPI) putvTarget(m *recvMsg) {
	// Pooled scratch; finishPutv scatters out of it and returns it.
	m.buf = l.eng.Pool().Get(m.dataLen)
}

// finishPutv scatters the assembled strips into the registered buffer.
func (l *LAPI) finishPutv(p *sim.Proc, m *recvMsg) {
	bufID := int(binary.BigEndian.Uint16(m.uhdr[0:2]))
	count := int(binary.BigEndian.Uint16(m.uhdr[2:4]))
	l.h.ChargeCPU(p, l.par.CopyCost(m.dataLen))
	at := 0
	for i := 0; i < count; i++ {
		off := int(binary.BigEndian.Uint32(m.uhdr[4+8*i:]))
		n := int(binary.BigEndian.Uint32(m.uhdr[8+8*i:]))
		copy(l.buffers[bufID][off:off+n], m.buf[at:at+n])
		at += n
	}
	// The assembly scratch allocated by putvTarget is dead once scattered.
	//simlint:allow bufpoolown ownership transfer: the pooled Putv assembly scratch returns to the engine pool
	l.eng.Pool().Put(m.buf)
	m.buf = nil
}

// serveGetv answers a Getv request by gathering the strips and sending
// them back as one GetReply message.
func (l *LAPI) serveGetv(p *sim.Proc, m *recvMsg) {
	bufID := int(binary.BigEndian.Uint16(m.uhdr[0:2]))
	count := int(binary.BigEndian.Uint16(m.uhdr[2:4]))
	getID := binary.BigEndian.Uint32(m.uhdr[4:8])
	total := 0
	for i := 0; i < count; i++ {
		total += int(binary.BigEndian.Uint32(m.uhdr[12+8*i:]))
	}
	data := l.eng.Pool().Get(total)
	at := 0
	for i := 0; i < count; i++ {
		off := int(binary.BigEndian.Uint32(m.uhdr[8+8*i:]))
		n := int(binary.BigEndian.Uint32(m.uhdr[12+8*i:]))
		copy(data[at:at+n], l.buffers[bufID][off:off+n])
		at += n
	}
	l.h.ChargeCPU(p, l.par.CopyCost(len(data))+l.par.SendCallOverhead)
	reply := l.eng.Pool().Get(4)
	binary.BigEndian.PutUint32(reply[0:4], getID)
	l.sendMsg(p, m.key.src, opGetReply, 0, reply, data, noID, noID, nil)
	l.eng.Pool().Put(reply)
	l.eng.Pool().Put(data)
	if m.tgtCntr != noID {
		l.bumpCounter(p, m.tgtCntr)
	}
}
