package mpci

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// MPI-LAPI user-header kinds (Figures 3-9, plus the zero-copy rendezvous
// of the rdma provider).
const (
	uEager     byte = 1
	uRTS       byte = 2
	uRTSAck    byte = 3
	uRdvData   byte = 4
	uBsendDone byte = 5
	// uRTSZ is a request-to-send whose body the receiver pulls by RDMA
	// read from the sender's registered region (rkey in [28:32]).
	uRTSZ byte = 6
	// uRdvDoneZ notifies the sender that the receiver's pull completed:
	// the send request is done and its region can be released.
	uRdvDoneZ byte = 7
)

// uhdr layout, padded so that the total on-wire header matches
// Params.HeaderBytesLAPI (the larger MPI-LAPI header of Section 6.1):
//
//	[0]=kind [1]=mode [2]=blocking [3]=pad [4:8]=seq [8:12]=ctx
//	[12:16]=tag [16:20]=size [20:24]=reqID [24:28]=auxID [28:32]=rkey
//
// The rkey field lives in what was padding for every pre-RDMA kind, so
// adding it changes no wire sizes (HeaderBytesLAPI already covers it).
const uhdrMin = 32

// LAPIProvider is the new, thinner MPCI over LAPI (Figure 1c).
type LAPIProvider struct {
	core
	l *lapi.LAPI

	hid int // the single header handler id for all MPCI messages

	// Envelope sequencing: LAPI does not order messages, so eager/RTS
	// envelopes carry per-destination sequence numbers and are processed
	// for matching strictly in send order.
	envSeqOut []uint32
	envSeqIn  []uint32
	envOOO    []map[uint32]*earlyMsg

	// Counters design state: one counter per source, ids exchanged at
	// init; per-source FIFO of in-progress eager messages.
	pairCntr []*lapi.Counter
	inflight [][]*inflightEager

	// Deferred work that must not run in header-handler context
	// (e.g. acknowledging a late-matched request-to-send).
	deferred []func(p *sim.Proc)
	defCond  sim.Cond

	// zc is the node's RDMA engine, set iff caps.ZeroCopyRendezvous
	// (rdmaprov.go).
	zc *hal.RdmaEngine

	// Figure 8: staging slots awaiting the receiver's notification, by the
	// slot id carried in the message header.
	bsendSlots map[uint32]int
	nextSlot   uint32
}

// newLAPI builds the MPI-LAPI MPCI for one task. caps selects the Section 5
// design: the LAPI endpoint's completion regime must be Inline exactly when
// caps.InlineCompletions.
func newLAPI(eng *sim.Engine, par *machine.Params, l *lapi.LAPI, size int, caps Capabilities) *LAPIProvider {
	if (l.Variant() == lapi.Inline) != caps.InlineCompletions {
		panic(fmt.Sprintf("mpci: capabilities %v do not fit LAPI variant %v", caps.List(), l.Variant()))
	}
	pr := &LAPIProvider{
		core:       newCore(eng, par, l.HAL(), size, caps),
		l:          l,
		envSeqOut:  make([]uint32, size),
		envSeqIn:   make([]uint32, size),
		envOOO:     make([]map[uint32]*earlyMsg, size),
		inflight:   make([][]*inflightEager, size),
		bsendSlots: make(map[uint32]int),
		nextSlot:   1,
	}
	pr.ackRTS = pr.ackLateRTS
	pr.bsendDone = pr.sendBsendDone
	for i := range pr.envOOO {
		pr.envOOO[i] = make(map[uint32]*earlyMsg)
	}
	pr.hid = l.RegisterHeaderHandler(pr.headerHandler)
	if caps.CounterCompletions {
		pr.reap = pr.reapCounters
		pr.pairCntr = make([]*lapi.Counter, size)
		for i := range pr.pairCntr {
			c := l.NewCounter()
			pr.pairCntr[i] = c
			l.RegisterCounter(c)
		}
	}
	if caps.ZeroCopyRendezvous {
		pr.zc = pr.h.Rdma()
	}
	eng.Spawn(fmt.Sprintf("mpci-lapi-def-%d", pr.rank), pr.deferredLoop)
	return pr
}

// reapCounters applies the Counters design (Section 5.2): each increment of
// the per-source counter means the oldest in-progress eager message from
// that source has fully arrived.
func (pr *LAPIProvider) reapCounters(p *sim.Proc) {
	for src, c := range pr.pairCntr {
		for c.Value() > 0 {
			if len(pr.inflight[src]) == 0 {
				panic("mpci: counter bump with no in-progress eager message")
			}
			c.Set(c.Value() - 1)
			em := pr.inflight[src][0]
			pr.inflight[src] = pr.inflight[src][1:]
			pr.h.ChargeCPU(p, pr.par.InlineHandlerOverhead) // counter poll + bookkeeping
			pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCmplInline, pr.rank, src, em.traceID, em.env.Size, int64(pr.par.InlineHandlerOverhead))
			pr.eagerArrivedAll(p, em)
		}
	}
}

func (pr *LAPIProvider) buildUhdr(kind byte, mode Mode, blocking bool, seq uint32, ctx, tag, size int, reqID, auxID uint32) []byte {
	n := pr.par.HeaderBytesLAPI - 31 // flow framing (10) + LAPI msg header (21)
	if n < uhdrMin {
		n = uhdrMin
	}
	// Amsend consumes the user header synchronously (LAPI snapshots it into
	// its own message state), so callers return it to the pool afterwards.
	b := pr.eng.Pool().Get(n)
	b[0] = kind
	b[1] = byte(mode)
	if blocking {
		b[2] = 1
	}
	binary.BigEndian.PutUint32(b[4:8], seq)
	binary.BigEndian.PutUint32(b[8:12], uint32(ctx))
	binary.BigEndian.PutUint32(b[12:16], uint32(tag))
	binary.BigEndian.PutUint32(b[16:20], uint32(size))
	binary.BigEndian.PutUint32(b[20:24], reqID)
	binary.BigEndian.PutUint32(b[24:28], auxID)
	return b
}

func parseUhdr(src int, b []byte) (kind byte, env Envelope, blocking bool, seq, reqID, auxID uint32) {
	kind = b[0]
	env = Envelope{
		Src:  src,
		Mode: Mode(b[1]),
		Ctx:  int(int32(binary.BigEndian.Uint32(b[8:12]))),
		Tag:  int(int32(binary.BigEndian.Uint32(b[12:16]))),
		Size: int(binary.BigEndian.Uint32(b[16:20])),
	}
	blocking = b[2] == 1
	seq = binary.BigEndian.Uint32(b[4:8])
	reqID = binary.BigEndian.Uint32(b[20:24])
	auxID = binary.BigEndian.Uint32(b[24:28])
	return
}

// uhdrSetRkey stamps a zero-copy request-to-send's registered-region
// handle into the header's rkey field (zero for every other kind).
func uhdrSetRkey(b []byte, rkey uint32) { binary.BigEndian.PutUint32(b[28:32], rkey) }

func uhdrRkey(b []byte) uint32 { return binary.BigEndian.Uint32(b[28:32]) }

// countersEligible reports whether the Counters design's no-completion-
// handler trick applies to an eager message of the given size: it requires
// counter bumps to occur in envelope order, which holds exactly when the
// message fits one packet (the paper's 78-byte eager limit guarantees
// this). Larger eager messages fall back to the completion-handler path.
func (pr *LAPIProvider) countersEligible(size int) bool {
	if !pr.caps.CounterCompletions {
		return false
	}
	maxEagerPkt := pr.par.PacketPayload - 31 - (pr.par.HeaderBytesLAPI - 31)
	return size <= maxEagerPkt
}

// Isend implements Provider. blocking selects the Figure 6 (blocking) or
// Figure 7 (nonblocking, send-from-completion-handler) rendezvous shape.
func (pr *LAPIProvider) Isend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq {
	return pr.isend(p, dst, buf, tag, ctx, mode, false)
}

// IsendBlocking is Isend for a blocking MPI send: for rendezvous, the
// calling process itself waits for the acknowledgement and transmits the
// data (Figure 6).
func (pr *LAPIProvider) IsendBlocking(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq {
	return pr.isend(p, dst, buf, tag, ctx, mode, true)
}

func (pr *LAPIProvider) isend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode, blocking bool) *SendReq {
	req := pr.newSend(p, dst, buf, tag, ctx, mode, blocking)
	var slot uint32
	if mode == ModeBuffered {
		// The slot is freed on the receiver's notification (Figure 8).
		slot = pr.nextSlot
		pr.nextSlot++
		pr.bsendSlots[slot] = len(buf)
		req.bsendSlot = slot
		buf = pr.stageBsend(p, buf)
	}
	if dst == pr.rank {
		pr.selfSend(p, req, buf)
		if slot != 0 {
			// The staging copy is ours: selfSend copied or snapshotted it.
			pr.freeBsendSlot(slot)
			pr.eng.Pool().Put(buf)
		}
		return req
	}
	if pr.useEager(mode, len(buf)) {
		pr.stats.EagerSends++
		seq := pr.envSeqOut[dst]
		pr.envSeqOut[dst]++
		pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendEager, pr.rank, dst, tracelog.EnvID(pr.rank, dst, seq), len(buf), int64(tag))
		uhdr := pr.buildUhdr(uEager, mode, blocking, seq, ctx, tag, len(buf), 0, slot)
		tgtCntr := -1
		if pr.countersEligible(len(buf)) {
			tgtCntr = pr.rank // counter ids are ranks, exchanged at init
		}
		pr.l.Amsend(p, dst, pr.hid, uhdr, buf, tgtCntr, nil, -1)
		pr.eng.Pool().Put(uhdr)
		pr.stats.BytesSent += uint64(len(buf))
		req.done = true
		if slot != 0 {
			// Amsend copied the staged bytes into flow packets, so the
			// pooled staging copy is already dead; the slot's space is
			// freed on BsendDone.
			pr.eng.Pool().Put(buf)
		}
		return req
	}
	// Rendezvous (Figure 4): request-to-send carrying no data.
	pr.stats.RdvSends++
	if pr.caps.ZeroCopyRendezvous {
		pr.zcIsendRdv(p, req, buf, slot, blocking)
		return req
	}
	id := pr.addSendReq(req, buf)
	seq := pr.envSeqOut[dst]
	pr.envSeqOut[dst]++
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendRdv, pr.rank, dst, tracelog.EnvID(pr.rank, dst, seq), len(buf), int64(tag))
	uhdr := pr.buildUhdr(uRTS, mode, blocking, seq, ctx, tag, len(buf), id, slot)
	pr.l.Amsend(p, dst, pr.hid, uhdr, nil, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
	if blocking {
		// Figure 6: wait for the acknowledgement, then send the data from
		// this process.
		pr.WaitUntil(p, func() bool { return req.acked })
		pr.sendRdvData(p, req)
	}
	return req
}

// sendRdvData transmits the body after the request-to-send was acknowledged.
func (pr *LAPIProvider) sendRdvData(p *sim.Proc, req *SendReq) {
	buf := req.rdvBuf
	req.rdvBuf = nil
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRdvData, pr.rank, req.Dst, tracelog.RdvID(pr.rank, req.Dst, req.recvID), len(buf), int64(req.recvID))
	uhdr := pr.buildUhdr(uRdvData, req.Env.Mode, false, 0, req.Env.Ctx, req.Env.Tag, len(buf), req.recvID, req.bsendSlot)
	pr.l.Amsend(p, req.Dst, pr.hid, uhdr, buf, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
	if req.bsendSlot != 0 {
		// Buffered rendezvous: buf is the pooled staging copy, fully
		// consumed by Amsend.
		//simlint:allow bufpoolown ownership transfer: req.rdvBuf holds the pooled bsend staging copy this provider made, dead once Amsend snapshots it
		pr.eng.Pool().Put(buf)
	}
	pr.stats.BytesSent += uint64(len(buf))
	req.done = true
	pr.h.KickProgress()
}

// ackLateRTS answers a request-to-send matched by a late-posted receive
// (Figure 9). It runs in the receiving process, which may call LAPI.
func (pr *LAPIProvider) ackLateRTS(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	if em.rtsZC {
		// Zero-copy rendezvous: pull the body straight into req.Buf.
		pr.zcStartPull(p, req, em)
		return
	}
	pr.sendRTSAck(p, em.env.Src, em.rtsSendReq, pr.addRecvReq(req, em.env), em.rtsBlocking)
}

// sendBsendDone notifies src that a buffered-mode message has been received
// so it can free the staging slot (Figure 8).
func (pr *LAPIProvider) sendBsendDone(src int, slot uint32) {
	pr.deferSend(func(p *sim.Proc) {
		uhdr := pr.buildUhdr(uBsendDone, 0, false, 0, 0, 0, 0, 0, slot)
		pr.l.Amsend(p, src, pr.hid, uhdr, nil, -1, nil, -1)
		pr.eng.Pool().Put(uhdr)
	})
}

// sendRTSAck acknowledges a request-to-send. Must not run in header-handler
// context.
func (pr *LAPIProvider) sendRTSAck(p *sim.Proc, dst int, sendReq, recvID uint32, blocking bool) {
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRTSAck, pr.rank, dst, tracelog.RdvID(dst, pr.rank, recvID), 0, int64(sendReq))
	uhdr := pr.buildUhdr(uRTSAck, 0, blocking, 0, 0, 0, 0, sendReq, recvID)
	pr.l.Amsend(p, dst, pr.hid, uhdr, nil, -1, nil, -1)
	pr.eng.Pool().Put(uhdr)
}

func (pr *LAPIProvider) freeBsendSlot(slot uint32) {
	n, ok := pr.bsendSlots[slot]
	if !ok {
		panic("mpci: BsendDone for unknown slot")
	}
	delete(pr.bsendSlots, slot)
	pr.releaseBsend(n)
}

// deferSend queues fn to run on the deferred-work process (used where the
// current context may not call LAPI, e.g. header handlers).
func (pr *LAPIProvider) deferSend(fn func(p *sim.Proc)) {
	pr.deferred = append(pr.deferred, fn)
	pr.defCond.Broadcast()
}

func (pr *LAPIProvider) deferredLoop(p *sim.Proc) {
	for {
		for len(pr.deferred) == 0 {
			pr.defCond.Wait(p)
		}
		fn := pr.deferred[0]
		pr.deferred = pr.deferred[1:]
		fn(p)
		pr.h.KickProgress()
	}
}
