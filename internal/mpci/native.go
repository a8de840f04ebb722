package mpci

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/hal"
	"splapi/internal/machine"
	"splapi/internal/pipes"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Native frame kinds, carried over the Pipes byte stream.
const (
	fEager     byte = 1
	fRTS       byte = 2
	fCTS       byte = 3
	fRdvData   byte = 4
	fBsendDone byte = 5
)

// Native frame header layout (padded to Params.HeaderBytesNative on the
// wire; the native header is smaller than LAPI's, Section 6.1):
//
//	[0]=kind [1]=mode [2]=blocking [3]=pad [4:8]=ctx [8:12]=tag
//	[12:16]=size [16:20]=reqID [20:24]=auxID
const nativeHdrMin = 24

// NativeProvider is the original MPCI over the Pipes layer (Figure 1a).
type NativeProvider struct {
	core
	pp *pipes.Pipes

	parsers []*frameParser

	// Per-destination outbound frame queues. A frame (header + body) must
	// occupy a contiguous range of the byte stream; since Pipes.Write can
	// block mid-frame on the sliding window, every frame is enqueued and
	// written by the destination's dedicated writer process, so frames
	// from different contexts (user sends, dispatcher-driven CTS and
	// rendezvous data) never interleave.
	outQ []*sim.Queue

	// frameOut counts frames enqueued per destination. Pipes delivers the
	// byte stream in order, so the receiver's per-source frame counter
	// reaches the same ordinal for the same frame: the pair (rank, dst,
	// ordinal) is a causal frame id needing no wire bytes.
	frameOut []uint64
}

// newNative builds the native MPCI for one task.
func newNative(eng *sim.Engine, par *machine.Params, h *hal.HAL, pp *pipes.Pipes, size int, caps Capabilities) *NativeProvider {
	pr := &NativeProvider{core: newCore(eng, par, h, size, caps), pp: pp}
	pr.ackRTS = pr.sendCTS
	pr.parsers = make([]*frameParser, size)
	pr.outQ = make([]*sim.Queue, size)
	pr.frameOut = make([]uint64, size)
	for i := range pr.parsers {
		pr.parsers[i] = &frameParser{pr: pr, src: i}
		if i != pr.rank {
			pr.outQ[i] = sim.NewQueue(0)
			dst := i
			eng.Spawn(fmt.Sprintf("mpci-writer-%d-%d", pr.rank, dst), func(p *sim.Proc) {
				pr.writerLoop(p, dst)
			})
		}
	}
	pp.SetDeliver(pr.onStream)
	return pr
}

// enqueueFrame hands a complete frame (header plus optional body) to dst's
// writer process. The enqueue itself never blocks; the body is referenced,
// not copied — the writer charges the user-buffer copy costs chunk by chunk
// as it feeds the pipe, so the copy pipelines with transmission as on the
// real machine. For MPI semantics the caller treats the buffer as owned by
// the protocol until the writer has consumed it (requests complete at
// enqueue because the "pipe buffer copy" is accounted for on the writer).
func (pr *NativeProvider) enqueueFrame(dst int, hdr, body []byte) uint64 {
	ord := pr.frameOut[dst]
	pr.frameOut[dst]++
	pr.outQ[dst].TryPut(outFrame{hdr: hdr, body: body, ord: ord})
	return ord
}

type outFrame struct {
	hdr  []byte
	body []byte
	ord  uint64 // per-destination frame ordinal (the causal FrameID)
}

// writerLoop drains dst's frame queue, writing each frame contiguously into
// the pipe and charging the Section 2 copy rule per chunk. Header and body
// are written as one stream image, so a small message occupies a single
// switch packet.
func (pr *NativeProvider) writerLoop(p *sim.Proc, dst int) {
	for {
		f := pr.outQ[dst].Get(p).(outFrame)
		full := f.hdr
		if len(f.body) > 0 {
			full = pr.eng.Pool().Get(len(f.hdr) + len(f.body))
			copy(full, f.hdr)
			copy(full[len(f.hdr):], f.body)
		}
		hdrLen := len(f.hdr)
		size := len(f.body)
		step := pr.pp.ChunkSize() * 4
		for off := 0; off < len(full); {
			n := step
			if n > len(full)-off {
				n = len(full) - off
			}
			// Charge the copy rule for the body bytes in this piece.
			bodyLo := off - hdrLen
			if bodyLo < 0 {
				bodyLo = 0
			}
			bodyHi := off + n - hdrLen
			if bodyHi > 0 {
				cost := pr.nativeCopyCost(bodyLo, bodyHi-bodyLo, size)
				pr.h.ChargeCPU(p, cost)
				if cost > 0 {
					pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCopy, pr.rank, dst, tracelog.FrameID(pr.rank, dst, f.ord), bodyHi-bodyLo, int64(cost))
				}
			}
			pr.pp.Write(p, dst, full[off:off+n])
			off += n
		}
		// Pipes.Write copies into its retransmission buffer, so the frame's
		// pooled staging is dead once the stream image is written. When the
		// frame has no body, full aliases f.hdr and is returned once.
		if len(f.body) > 0 {
			pr.eng.Pool().Put(full)
			pr.eng.Pool().Put(f.body)
		}
		pr.eng.Pool().Put(f.hdr)
		pr.h.KickProgress()
	}
}

// nativeCopyCost returns the memcpy cost of moving the [off, off+n) byte
// range of a size-byte message between user and HAL memory under the
// Section 2 rule: the first and last PipeHeadTailCopyBytes of every message
// pass through the pipe buffers (two copies); the middle moves directly
// (one copy).
func (pr *NativeProvider) nativeCopyCost(off, n, size int) sim.Time {
	ht := pr.par.PipeHeadTailCopyBytes
	twice := 0
	for _, r := range [][2]int{{0, min(ht, size)}, {max(size-ht, min(ht, size)), size}} {
		lo, hi := max(off, r[0]), min(off+n, r[1])
		if hi > lo {
			twice += hi - lo
		}
	}
	once := n - twice
	pr.stats.CopiesCharged += uint64(2*twice + once)
	return pr.par.CopyCost(2*twice + once)
}

func (pr *NativeProvider) frame(kind byte, mode Mode, blocking bool, ctx, tag, size int, reqID, auxID uint32) []byte {
	hlen := pr.par.HeaderBytesNative
	if hlen < nativeHdrMin {
		hlen = nativeHdrMin
	}
	// Frame headers cycle through the engine pool: every header built here is
	// enqueued exactly once, and the writer returns it after feeding the pipe.
	b := pr.eng.Pool().Get(hlen)
	b[0] = kind
	b[1] = byte(mode)
	if blocking {
		b[2] = 1
	}
	binary.BigEndian.PutUint32(b[4:8], uint32(ctx))
	binary.BigEndian.PutUint32(b[8:12], uint32(tag))
	binary.BigEndian.PutUint32(b[12:16], uint32(size))
	binary.BigEndian.PutUint32(b[16:20], reqID)
	binary.BigEndian.PutUint32(b[20:24], auxID)
	return b
}

// IsendBlocking implements Provider; the native MPCI transmits rendezvous
// data from the dispatcher on CTS arrival in both shapes.
func (pr *NativeProvider) IsendBlocking(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq {
	return pr.Isend(p, dst, buf, tag, ctx, mode)
}

// Isend implements Provider.
func (pr *NativeProvider) Isend(p *sim.Proc, dst int, buf []byte, tag, ctx int, mode Mode) *SendReq {
	req := pr.newSend(p, dst, buf, tag, ctx, mode, false)
	if mode == ModeBuffered {
		buf = pr.stageBsend(p, buf)
		req.staged = buf
		req.bsendLen = len(buf)
	}
	if dst == pr.rank {
		pr.selfSend(p, req, buf)
		pr.freeBsend(req)
		return req
	}
	if pr.useEager(mode, len(buf)) {
		pr.stats.EagerSends++
		hdr := pr.frame(fEager, mode, false, ctx, tag, len(buf), 0, 0)
		ord := pr.enqueueFrame(dst, hdr, pr.eng.Pool().Snapshot(buf))
		pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendEager, pr.rank, dst, tracelog.FrameID(pr.rank, dst, ord), len(buf), int64(tag))
		pr.stats.BytesSent += uint64(len(buf))
		// Data is in the pipe buffers: the user buffer is reusable, and a
		// buffered send's staging space can be freed (Pipes now owns the
		// bytes and guarantees delivery).
		pr.freeBsend(req)
		req.done = true
		return req
	}
	// Rendezvous: request-to-send, wait for CTS, then data.
	pr.stats.RdvSends++
	id := pr.addSendReq(req, buf)
	hdr := pr.frame(fRTS, mode, req.blocking, ctx, tag, len(buf), id, 0)
	ord := pr.enqueueFrame(dst, hdr, nil)
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KSendRdv, pr.rank, dst, tracelog.FrameID(pr.rank, dst, ord), len(buf), int64(tag))
	return req
}

// sendRdvData streams the message body after the CTS arrived.
func (pr *NativeProvider) sendRdvData(p *sim.Proc, req *SendReq, recvID uint32) {
	buf := req.rdvBuf
	hdr := pr.frame(fRdvData, req.Env.Mode, false, req.Env.Ctx, req.Env.Tag, len(buf), recvID, 0)
	ord := pr.enqueueFrame(req.Dst, hdr, pr.eng.Pool().Snapshot(buf))
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRdvData, pr.rank, req.Dst, tracelog.FrameID(pr.rank, req.Dst, ord), len(buf), int64(recvID))
	pr.stats.BytesSent += uint64(len(buf))
	req.rdvBuf = nil
	pr.freeBsend(req)
	req.done = true
	pr.h.KickProgress()
}

// freeBsend releases a buffered send's staging space once Pipes owns the
// data.
func (pr *NativeProvider) freeBsend(req *SendReq) {
	if req.bsendLen > 0 {
		// Every caller has already copied or transmitted the staged bytes,
		// so the pooled staging copy goes back to the engine pool.
		if req.staged != nil {
			//simlint:allow bufpoolown ownership transfer: req.staged is the pooled bsend staging copy this provider made, dead once copied or sent
			pr.eng.Pool().Put(req.staged)
			req.staged = nil
		}
		pr.releaseBsend(req.bsendLen)
		req.bsendLen = 0
	}
}

// sendCTS answers a matched request-to-send with a clear-to-send frame,
// whether the receive was already posted or is matching late.
func (pr *NativeProvider) sendCTS(p *sim.Proc, req *RecvReq, em *earlyMsg) {
	src := em.env.Src
	id := pr.addRecvReq(req, em.env)
	cts := pr.frame(fCTS, 0, false, 0, 0, 0, em.rtsSendReq, id)
	ord := pr.enqueueFrame(src, cts, nil)
	pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KRTSAck, pr.rank, src, tracelog.FrameID(pr.rank, src, ord), 0, int64(em.rtsSendReq))
}
