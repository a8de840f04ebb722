package mpci

import (
	"fmt"

	"splapi/internal/lapi"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// inflightEager tracks an eager message awaiting its counter bump
// (Counters design): exactly one of req (matched in order) or em
// (early/out-of-order) is set.
type inflightEager struct {
	req     *RecvReq
	em      *earlyMsg
	env     Envelope
	slot    uint32
	traceID uint64
}

// headerHandler is the single LAPI header handler for every MPCI message
// kind (Figures 3, 4, 7, 9). It runs in dispatcher context and must not
// call LAPI communication functions; anything that must (acknowledging a
// request-to-send, sending rendezvous data) is returned as a completion
// handler or queued on the deferred-work process.
func (pr *LAPIProvider) headerHandler(p *sim.Proc, src int, uhdr []byte, dataLen int) ([]byte, lapi.CmplHandler, any) {
	kind, env, blocking, seq, reqID, auxID := parseUhdr(src, uhdr)
	switch kind {
	case uEager:
		return pr.hdrEager(p, src, env, seq, auxID, dataLen)
	case uRTS:
		pr.hdrRTS(p, src, env, seq, reqID, auxID, blocking, false, 0)
		return nil, nil, nil
	case uRTSZ:
		pr.hdrRTS(p, src, env, seq, reqID, auxID, blocking, true, uhdrRkey(uhdr))
		return nil, nil, nil
	case uRdvDoneZ:
		pr.zcSendDone(reqID)
		return nil, nil, nil
	case uRTSAck:
		return pr.hdrRTSAck(p, reqID, auxID, blocking)
	case uRdvData:
		return pr.hdrRdvData(p, env, reqID, auxID)
	case uBsendDone:
		pr.freeBsendSlot(auxID)
		return nil, nil, nil
	default:
		panic(fmt.Sprintf("mpci: bad MPI-LAPI header kind %d", kind))
	}
}

// hdrEager implements Figure 3(b): match, return the user buffer on a hit
// (no extra copy!), or an early-arrival buffer on a miss.
func (pr *LAPIProvider) hdrEager(p *sim.Proc, src int, env Envelope, seq uint32, slot uint32, dataLen int) ([]byte, lapi.CmplHandler, any) {
	mid := tracelog.EnvID(src, pr.rank, seq)
	if seq != pr.envSeqIn[src] {
		// A later envelope overtook an earlier one on the switch: assemble
		// into an early-arrival buffer and defer the matching decision
		// until the envelopes before it have been processed (MPI ordering).
		pr.stats.EnvOOO++
		em := &earlyMsg{env: env, data: pr.eng.Pool().Get(dataLen), bsendSlot: slot, traceID: mid}
		pr.envOOO[src][seq] = em
		return em.data, pr.eagerCmplFor(src, em), em
	}
	pr.envSeqIn[src]++
	buf, ch, arg := pr.matchEagerInOrder(p, src, env, slot, dataLen, mid)
	pr.drainOOO(p, src)
	return buf, ch, arg
}

// matchEagerInOrder is the in-order fast path.
func (pr *LAPIProvider) matchEagerInOrder(p *sim.Proc, src int, env Envelope, slot uint32, dataLen int, mid uint64) ([]byte, lapi.CmplHandler, any) {
	req, em := pr.arrive(p, env, mid, nil)
	if req != nil {
		if pr.countersEligible(env.Size) {
			pr.inflight[src] = append(pr.inflight[src], &inflightEager{req: req, env: env, slot: slot, traceID: mid})
			return req.Buf, nil, nil
		}
		return req.Buf, func(cp *sim.Proc, _ any) {
			pr.finishRecv(cp, req, env, slot, mid)
		}, nil
	}
	em.data, em.bsendSlot = pr.eng.Pool().Get(dataLen), slot
	return em.data, pr.eagerCmplFor(src, em), em
}

// eagerCmplFor returns the arrival-completion action for an early-arrival
// (or out-of-order) eager message: a completion handler in the Base and
// Enhanced designs, or nil plus an inflight entry in the Counters design.
func (pr *LAPIProvider) eagerCmplFor(src int, em *earlyMsg) lapi.CmplHandler {
	if pr.countersEligible(em.env.Size) {
		pr.inflight[src] = append(pr.inflight[src], &inflightEager{em: em, env: em.env, slot: em.bsendSlot, traceID: em.traceID})
		return nil
	}
	return func(cp *sim.Proc, _ any) { pr.earlyArrived(cp, em) }
}

// eagerArrivedAll is the Counters-design completion action (run from
// reapCounters in MPI-call context).
func (pr *LAPIProvider) eagerArrivedAll(p *sim.Proc, e *inflightEager) {
	if e.req != nil {
		pr.finishRecv(p, e.req, e.env, e.slot, e.traceID)
		return
	}
	pr.earlyArrived(p, e.em)
}

// hdrRTS implements Figure 4(b): on a match the acknowledgement is sent by
// the completion-handler path (header handlers cannot call LAPI); on a miss
// the request parks in the early-arrival queue. A zero-copy request (zc)
// additionally carries the sender's registered-region handle; on a match the
// receiver pulls the body by RDMA read instead of acknowledging.
func (pr *LAPIProvider) hdrRTS(p *sim.Proc, src int, env Envelope, seq, sendReq, slot uint32, blocking, zc bool, rkey uint32) {
	em := &earlyMsg{env: env, isRTS: true, rtsSendReq: sendReq, rtsBlocking: blocking, rtsZC: zc, rtsRkey: rkey, bsendSlot: slot, traceID: tracelog.EnvID(src, pr.rank, seq)}
	if seq != pr.envSeqIn[src] {
		pr.stats.EnvOOO++
		pr.envOOO[src][seq] = em
		return
	}
	pr.envSeqIn[src]++
	pr.processRTSInOrder(p, em)
	pr.drainOOO(p, src)
}

func (pr *LAPIProvider) processRTSInOrder(p *sim.Proc, em *earlyMsg) {
	req, _ := pr.arrive(p, em.env, em.traceID, em)
	if req == nil {
		return
	}
	if em.rtsZC {
		// Zero-copy rendezvous: no acknowledgement round trip; the
		// receiver registers the posted buffer and pulls directly.
		pr.zcStartPull(p, req, em)
		return
	}
	id := pr.addRecvReq(req, em.env)
	src, sendReq, blocking := em.env.Src, em.rtsSendReq, em.rtsBlocking
	// Figure 4(c): the acknowledgement goes out from the completion
	// handler (context switch in Base/Counters, inline in Enhanced).
	pr.deferViaCompletion(p, func(cp *sim.Proc) {
		pr.sendRTSAck(cp, src, sendReq, id, blocking)
	})
}

// deferViaCompletion routes fn through the LAPI completion-handler
// machinery of the current design: the Enhanced design runs it inline
// (cheap), the others pay the thread context switch.
func (pr *LAPIProvider) deferViaCompletion(p *sim.Proc, fn func(p *sim.Proc)) {
	if pr.caps.InlineCompletions {
		pr.h.ChargeCPU(p, pr.par.InlineHandlerOverhead)
		pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCmplInline, pr.rank, -1, 0, 0, int64(pr.par.InlineHandlerOverhead))
		pr.deferSend(fn)
		return
	}
	pr.deferSend(func(cp *sim.Proc) {
		pr.h.ChargeCPU(cp, pr.par.ThreadContextSwitch)
		pr.tr.Emit(cp.Now(), tracelog.LMPCI, tracelog.KCtxSwitch, pr.rank, -1, 0, 0, int64(pr.par.ThreadContextSwitch))
		fn(cp)
	})
}

// drainOOO processes overtaken envelopes once their turn arrives.
func (pr *LAPIProvider) drainOOO(p *sim.Proc, src int) {
	for {
		em, ok := pr.envOOO[src][pr.envSeqIn[src]]
		if !ok {
			return
		}
		delete(pr.envOOO[src], pr.envSeqIn[src])
		pr.envSeqIn[src]++
		if em.isRTS {
			pr.processRTSInOrder(p, em)
			continue
		}
		// Out-of-order eager message, already assembling into its EA
		// buffer: match it now that ordering allows.
		if req, _ := pr.arrive(p, em.env, em.traceID, em); req != nil {
			pr.claimEager(p, req, em)
		}
	}
}

// hdrRTSAck implements Figure 7: a blocking sender is unblocked to send the
// data itself; a nonblocking send transmits from the completion handler.
func (pr *LAPIProvider) hdrRTSAck(p *sim.Proc, sendReq, recvID uint32, blocking bool) ([]byte, lapi.CmplHandler, any) {
	req := pr.sendReqs[sendReq]
	req.recvID = recvID
	if blocking {
		req.acked = true
		return nil, nil, nil
	}
	//simlint:allow handlerctx paper Figure 7: the nonblocking rendezvous sender transmits the body from its completion handler; LAPI restricts only header handlers from communicating, and the Threaded (Base) regime runs this off the dispatcher
	return nil, func(cp *sim.Proc, _ any) {
		req.acked = true
		pr.sendRdvData(cp, req)
	}, nil
}

// hdrRdvData routes a rendezvous body straight into the matched receive's
// user buffer; completion is signalled by a completion handler in every
// design (Section 5.2: the counters trick does not apply to rendezvous).
func (pr *LAPIProvider) hdrRdvData(p *sim.Proc, env Envelope, recvID, slot uint32) ([]byte, lapi.CmplHandler, any) {
	req := pr.recvReqs[recvID]
	env.Src = req.pendingEnv.Src
	env.Tag = req.pendingEnv.Tag
	env.Ctx = req.pendingEnv.Ctx
	mid := tracelog.RdvID(env.Src, pr.rank, recvID)
	return req.Buf, func(cp *sim.Proc, _ any) {
		pr.finishRecv(cp, req, env, slot, mid)
	}, nil
}
