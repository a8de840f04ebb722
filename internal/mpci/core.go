package mpci

import (
	"fmt"

	"splapi/internal/hal"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// core is the protocol-independent half of MPCI, embedded by both wire
// formats: task identity, the Table 2 mode translation, posted/early
// matching with its cost and trace events, early-arrival claim and drain,
// self-send, buffered-mode staging space, the rendezvous request tables and
// the counters. Everything a provider does that is not framing lives here
// once; behaviour that differs between registry entries is selected by caps
// and by nothing else.
type core struct {
	eng  *sim.Engine
	par  *machine.Params
	h    *hal.HAL
	rank int
	size int
	caps Capabilities

	matchCore

	// Rendezvous routing tables: the index is the id carried on the wire.
	sendReqs []*SendReq
	recvReqs []*RecvReq

	bsendBuf  []byte
	bsendUsed int

	stats ProviderStats
	tr    *tracelog.Log

	// The shared path hands back to the wire format in three places, bound
	// once at construction (Go embedding has no virtual dispatch, and none
	// of these is on the per-packet path):
	//
	// ackRTS answers a request-to-send matched by a late-posted receive
	// (native CTS frame, LAPI acknowledgement, or the RDMA pull).
	ackRTS func(p *sim.Proc, req *RecvReq, em *earlyMsg)
	// bsendDone tells src its buffered-mode staging slot can be freed
	// (Figure 8); nil where slots never travel (native).
	bsendDone func(src int, slot uint32)
	// reap collects completions that arrive without a handler; nil unless
	// caps.CounterCompletions.
	reap func(p *sim.Proc)
}

// ProviderStats are cumulative per-task MPCI counters.
type ProviderStats struct {
	EagerSends    uint64
	RdvSends      uint64
	Unexpected    uint64
	Matched       uint64
	SelfSends     uint64
	BytesSent     uint64
	BytesRecved   uint64
	CopiesCharged uint64 // bytes' worth of memcpy charged
	// EnvOOO counts envelopes that overtook an earlier one on the switch
	// and had their matching deferred (LAPI provider only: the Pipes
	// stream cannot reorder envelopes).
	EnvOOO uint64
	// ZeroCopySends/ZeroCopyRecvs count rendezvous messages whose bodies
	// moved by RDMA directly between registered user buffers, with no
	// staging copy on either side (rdma provider).
	ZeroCopySends uint64
	ZeroCopyRecvs uint64
}

func newCore(eng *sim.Engine, par *machine.Params, h *hal.HAL, size int, caps Capabilities) core {
	c := core{eng: eng, par: par, h: h, rank: h.Node(), size: size, caps: caps, tr: h.Trace()}
	c.eaCap = par.EarlyArrivalBytes
	// The native MPI interrupt handler uses the hysteresis scheme; LAPI's
	// has none (Section 6.1).
	var dwell sim.Time
	if caps.HysteresisInterrupts {
		dwell = par.NativeHysteresisDwell
	}
	h.SetInterruptDwell(dwell)
	return c
}

// Rank returns this task's rank.
func (c *core) Rank() int { return c.rank }

// Size returns the job size.
func (c *core) Size() int { return c.size }

// Stats returns a copy of the cumulative counters.
func (c *core) Stats() ProviderStats { return c.stats }

// Trace implements Provider.
func (c *core) Trace() *tracelog.Log { return c.tr }

// Capabilities implements Provider: the set this provider was registered
// under and built with.
func (c *core) Capabilities() Capabilities { return c.caps }

// WaitUntil drives the dispatcher until cond holds, reaping counter
// completions as they appear.
func (c *core) WaitUntil(p *sim.Proc, cond func() bool) {
	if c.reap == nil {
		c.h.ProgressWait(p, cond)
		return
	}
	c.h.ProgressWait(p, func() bool {
		c.reap(p)
		return cond()
	})
}

// useEager applies the Table 2 mode-to-protocol translation.
func (c *core) useEager(mode Mode, size int) bool {
	switch mode {
	case ModeReady:
		return true
	case ModeSync:
		return false
	default:
		return size <= c.par.EagerLimit
	}
}

// newSend starts a send request and charges the call overhead.
func (c *core) newSend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode, blocking bool) *SendReq {
	req := &SendReq{
		Env:      Envelope{Src: c.rank, Tag: tag, Ctx: ctx, Size: len(buf), Mode: mode},
		Dst:      dst,
		blocking: blocking,
	}
	c.h.ChargeCPU(p, c.par.SendCallOverhead)
	return req
}

// addSendReq files a rendezvous send holding body buf and returns the id
// its request-to-send carries.
func (c *core) addSendReq(req *SendReq, buf []byte) uint32 {
	c.sendReqs = append(c.sendReqs, req)
	req.rdvBuf = buf
	return uint32(len(c.sendReqs) - 1)
}

// addRecvReq files a receive matched to a request-to-send and returns the
// id the rendezvous body will be routed by.
func (c *core) addRecvReq(req *RecvReq, env Envelope) uint32 {
	c.recvReqs = append(c.recvReqs, req)
	req.pendingEnv = env
	return uint32(len(c.recvReqs) - 1)
}

// arrive runs the Section 4.1 arrival decision for an envelope whose turn
// has come: charge the match, then either return the posted receive it
// satisfies, or park it in the early-arrival queue and return the parked
// message. em is the message when one already exists (a request-to-send, an
// overtaken eager message); nil makes one only on a miss, so the matched
// fast path allocates nothing.
func (c *core) arrive(p *sim.Proc, env Envelope, mid uint64, em *earlyMsg) (*RecvReq, *earlyMsg) {
	c.h.ChargeCPU(p, c.par.MatchCost)
	if req := c.matchArrival(env); req != nil {
		c.stats.Matched++
		c.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KMatch, c.rank, env.Src, mid, env.Size, int64(c.par.MatchCost))
		return req, nil
	}
	if env.Mode == ModeReady {
		panic("mpci: ready-mode message arrived with no matching receive posted (fatal per MPI)")
	}
	c.stats.Unexpected++
	c.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KUnexpected, c.rank, env.Src, mid, env.Size, int64(env.Tag))
	if em == nil {
		em = &earlyMsg{env: env, traceID: mid}
	}
	c.addEarly(em)
	return nil, em
}

// Irecv implements Provider.
func (c *core) Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) *RecvReq {
	req := &RecvReq{
		Match: Envelope{Src: src, Tag: tag, Ctx: ctx, Size: len(buf)},
		Buf:   buf,
	}
	c.h.ChargeCPU(p, c.par.MatchCost)
	if em := c.postRecv(req); em != nil {
		c.claimEarly(p, req, em)
	}
	return req
}

// Iprobe implements Provider.
func (c *core) Iprobe(p *sim.Proc, src, tag, ctx int) (Envelope, bool) {
	c.h.Poll(p)
	if c.reap != nil {
		c.reap(p)
	}
	c.h.ChargeCPU(p, c.par.MatchCost)
	return c.probe(src, tag, ctx)
}

// claimEarly resolves a posted receive against a matched early arrival.
func (c *core) claimEarly(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	if em.isRTS {
		// Late-matched rendezvous: answer the request-to-send now
		// (Figure 9's "if request_to_send" branch).
		c.releaseEarly(em)
		c.ackRTS(p, req, em)
		return
	}
	c.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KEarlyClaim, c.rank, em.env.Src, em.traceID, em.env.Size, int64(em.env.Tag))
	c.claimEager(p, req, em)
}

// claimEager hands an early eager message to req: drained now if it has
// fully arrived, otherwise when its last byte lands.
func (c *core) claimEager(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	em.claimedBy = req
	if em.complete {
		c.finishEarly(p, req, em)
		return
	}
	// Data still arriving into the EA buffer; earlyArrived completes it.
	em.onComplete = func(p *sim.Proc) { c.finishEarly(p, req, em) }
}

// earlyArrived marks an early-arrival message fully assembled.
func (c *core) earlyArrived(p *sim.Proc, em *earlyMsg) {
	em.complete = true
	if em.onComplete != nil {
		em.onComplete(p)
	}
	c.h.KickProgress()
}

// finishEarly copies a completed early arrival into the user buffer and
// completes the receive.
func (c *core) finishEarly(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	cost := c.par.CopyCost(em.env.Size) // EA buffer -> user buffer
	c.h.ChargeCPU(p, cost)
	c.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCopy, c.rank, em.env.Src, em.traceID, em.env.Size, int64(cost))
	copy(req.Buf, em.data)
	// The pooled early-arrival buffer is dead once drained into the user
	// buffer.
	//simlint:allow bufpoolown ownership transfer: em.data is the pooled early-arrival copy this provider took, dead once drained
	c.eng.Pool().Put(em.data)
	em.data = nil
	c.releaseEarly(em)
	if em.onClaim != nil {
		em.onClaim(p)
	}
	c.finishRecv(p, req, em.env, em.bsendSlot, em.traceID)
}

// finishRecv completes a receive whose last byte has landed. Under the
// hysteresis scheme a completion reached in interrupt context becomes
// visible only at burst end; a buffered-mode message's sender is told it
// can free its staging slot (Figure 8).
func (c *core) finishRecv(p *sim.Proc, req *RecvReq, env Envelope, slot uint32, mid uint64) {
	c.stats.BytesRecved += uint64(env.Size)
	c.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRecvDone, c.rank, env.Src, mid, env.Size, int64(env.Tag))
	if c.caps.HysteresisInterrupts && c.h.InInterrupt() {
		c.h.OnInterruptEnd(func(*sim.Proc) {
			req.complete(env.Src, env.Tag, env.Size)
			c.h.KickProgress()
		})
		return
	}
	req.complete(env.Src, env.Tag, env.Size)
	if slot != 0 {
		c.bsendDone(env.Src, slot)
	}
	c.h.KickProgress()
}

// selfSend handles dst == rank without the network. The caller releases
// any buffered-mode staging once this returns: the bytes have been copied
// or snapshotted.
func (c *core) selfSend(p *sim.Proc, req *SendReq, buf []byte) {
	c.stats.SelfSends++
	env := req.Env
	c.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSelfSend, c.rank, c.rank, 0, len(buf), int64(env.Tag))
	if rreq := c.matchArrival(env); rreq != nil {
		c.h.ChargeCPU(p, c.par.MatchCost+c.par.CopyCost(len(buf)))
		copy(rreq.Buf, buf)
		rreq.complete(env.Src, env.Tag, len(buf))
		req.done = true
		c.h.KickProgress()
		return
	}
	if env.Mode == ModeReady {
		panic("mpci: ready-mode send with no matching receive posted (fatal per MPI)")
	}
	em := &earlyMsg{env: env, complete: true, data: c.eng.Pool().Snapshot(buf)}
	if env.Mode == ModeSync {
		em.onClaim = func(*sim.Proc) {
			req.done = true
			c.h.KickProgress()
		}
	} else {
		req.done = true
	}
	c.h.ChargeCPU(p, c.par.CopyCost(len(buf)))
	c.addEarly(em)
	c.h.KickProgress()
}

// AttachBuffer implements Provider (MPI_Buffer_attach).
func (c *core) AttachBuffer(buf []byte) {
	if c.bsendBuf != nil {
		panic("mpci: buffer already attached")
	}
	c.bsendBuf = buf
	c.bsendUsed = 0
}

// DetachBuffer implements Provider (MPI_Buffer_detach): waits until every
// buffered send's staging space has been released.
func (c *core) DetachBuffer(p *sim.Proc) []byte {
	c.WaitUntil(p, func() bool { return c.bsendUsed == 0 })
	b := c.bsendBuf
	c.bsendBuf = nil
	return b
}

// stageBsend copies a buffered-mode message into the attached buffer's
// space and returns the pooled staging copy.
func (c *core) stageBsend(p *sim.Proc, buf []byte) []byte {
	if c.bsendBuf == nil {
		panic("mpci: buffered send with no attached buffer")
	}
	if c.bsendUsed+len(buf) > len(c.bsendBuf) {
		panic(fmt.Sprintf("mpci: attached buffer exhausted (%d + %d > %d)", c.bsendUsed, len(buf), len(c.bsendBuf)))
	}
	c.bsendUsed += len(buf)
	c.h.ChargeCPU(p, c.par.CopyCost(len(buf)))
	return c.eng.Pool().Snapshot(buf)
}

// releaseBsend returns n bytes of staging space to the attached buffer.
func (c *core) releaseBsend(n int) {
	c.bsendUsed -= n
	c.h.KickProgress()
}
