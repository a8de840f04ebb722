package mpci

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// frameParser turns the in-order byte stream from one source into MPCI
// frames and routes message bodies to their destinations (user buffer,
// early-arrival buffer, or rendezvous receive) as the bytes arrive. It runs
// in dispatcher context.
type frameParser struct {
	pr  *NativeProvider
	src int

	hdr     []byte // accumulating frame header
	bodyLen int    // body bytes expected for the current frame
	bodyOff int    // body bytes consumed so far

	// Body destination (exactly one is set while bodyLen > bodyOff).
	dstReq   *RecvReq // copy straight into a matched receive
	dstEarly *earlyMsg

	env Envelope // envelope of the frame in progress

	// ord counts frames parsed from this source; because the Pipes stream
	// is in order it mirrors the sender's per-destination counter, giving
	// both ends the same FrameID without any wire bytes.
	ord uint64
	// curID is the causal id of the frame whose body is in progress.
	curID uint64

	// Frame handling may block (e.g. transmitting rendezvous data on CTS
	// can stall on the pipe window), and blocking re-enters the
	// dispatcher. Re-entrant stream bytes queue in pending and are
	// consumed when the in-progress frame finishes, preserving order.
	// pending and spare swap roles per burst, so neither is reallocated.
	busy    bool
	pending []byte
	spare   []byte
}

func (fp *frameParser) hdrLen() int {
	n := fp.pr.par.HeaderBytesNative
	if n < nativeHdrMin {
		n = nativeHdrMin
	}
	return n
}

// onStream is the Pipes delivery callback for all sources; it dispatches to
// the per-source parser.
func (pr *NativeProvider) onStream(p *sim.Proc, src int, data []byte) {
	pr.parsers[src].feed(p, data)
}

// feed consumes a chunk of stream bytes; re-entrant calls queue their bytes.
func (fp *frameParser) feed(p *sim.Proc, data []byte) {
	if fp.busy {
		fp.pending = append(fp.pending, data...)
		return
	}
	fp.busy = true
	for {
		fp.consume(p, data)
		if len(fp.pending) == 0 {
			break
		}
		data, fp.pending, fp.spare = fp.pending, fp.spare[:0], fp.pending
	}
	fp.busy = false
}

func (fp *frameParser) consume(p *sim.Proc, data []byte) {
	for len(data) > 0 {
		if fp.bodyLen > fp.bodyOff {
			n := min(len(data), fp.bodyLen-fp.bodyOff)
			fp.body(p, data[:n])
			fp.bodyOff += n
			data = data[n:]
			if fp.bodyOff == fp.bodyLen {
				fp.endBody(p)
			}
			continue
		}
		need := fp.hdrLen() - len(fp.hdr)
		n := min(len(data), need)
		fp.hdr = append(fp.hdr, data[:n]...)
		data = data[n:]
		if len(fp.hdr) == fp.hdrLen() {
			// frame consumes the header synchronously: even when it blocks,
			// re-entrant stream bytes queue in pending and never touch
			// fp.hdr, so the accumulation buffer is reused without a
			// per-frame copy.
			fp.frame(p, fp.hdr)
			fp.hdr = fp.hdr[:0]
		}
	}
}

// frame handles a complete frame header.
func (fp *frameParser) frame(p *sim.Proc, b []byte) {
	pr := fp.pr
	fid := tracelog.FrameID(fp.src, pr.rank, fp.ord)
	fp.ord++
	kind := b[0]
	mode := Mode(b[1])
	ctx := int(int32(binary.BigEndian.Uint32(b[4:8])))
	tag := int(int32(binary.BigEndian.Uint32(b[8:12])))
	size := int(binary.BigEndian.Uint32(b[12:16]))
	reqID := binary.BigEndian.Uint32(b[16:20])
	auxID := binary.BigEndian.Uint32(b[20:24])

	switch kind {
	case fEager:
		fp.env = Envelope{Src: fp.src, Tag: tag, Ctx: ctx, Size: size, Mode: mode}
		fp.curID = fid
		fp.dstReq, fp.dstEarly = pr.arrive(p, fp.env, fid, nil)
		if fp.dstEarly != nil {
			fp.dstEarly.data = pr.eng.Pool().Get(size)
		}
		fp.bodyLen, fp.bodyOff = size, 0
		if size == 0 {
			fp.endBody(p)
		}

	case fRTS:
		em := &earlyMsg{
			env:   Envelope{Src: fp.src, Tag: tag, Ctx: ctx, Size: size, Mode: mode},
			isRTS: true, rtsSendReq: reqID, rtsBlocking: b[2] == 1, traceID: fid,
		}
		if req, _ := pr.arrive(p, em.env, fid, em); req != nil {
			pr.sendCTS(p, req, em)
		}

	case fCTS:
		req := pr.sendReqs[reqID]
		req.acked = true
		// The native MPCI transmits the body from the dispatcher as soon
		// as the clear-to-send arrives.
		pr.sendRdvData(p, req, auxID)

	case fRdvData:
		req := pr.recvReqs[reqID]
		fp.env = req.pendingEnv
		fp.curID = fid
		fp.dstReq = req
		fp.bodyLen, fp.bodyOff = size, 0
		if size == 0 {
			fp.endBody(p)
		}

	default:
		panic(fmt.Sprintf("mpci: bad native frame kind %d from %d", kind, fp.src))
	}
}

// body consumes body bytes for the frame in progress, charging the native
// copy rule for the byte range.
func (fp *frameParser) body(p *sim.Proc, data []byte) {
	pr := fp.pr
	cost := pr.nativeCopyCost(fp.bodyOff, len(data), fp.bodyLen)
	pr.h.ChargeCPU(p, cost)
	if cost > 0 {
		pr.tr.Emit(p.Now(), tracelog.LMPCI, tracelog.KCopy, pr.rank, fp.src, fp.curID, len(data), int64(cost))
	}
	switch {
	case fp.dstReq != nil:
		copy(fp.dstReq.Buf[fp.bodyOff:], data)
	case fp.dstEarly != nil:
		copy(fp.dstEarly.data[fp.bodyOff:], data)
	}
}

// endBody finishes the frame: complete the receive (published at interrupt
// end under the hysteresis scheme) or mark the early arrival assembled.
func (fp *frameParser) endBody(p *sim.Proc) {
	switch {
	case fp.dstReq != nil:
		fp.pr.finishRecv(p, fp.dstReq, fp.env, 0, fp.curID)
	case fp.dstEarly != nil:
		fp.pr.earlyArrived(p, fp.dstEarly)
	}
	fp.dstReq, fp.dstEarly = nil, nil
	fp.bodyLen, fp.bodyOff = 0, 0
}
