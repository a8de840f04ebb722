// Package lapi implements the LAPI one-sided communication library of the
// IBM RS/6000 SP (Section 3 of the paper, Table 1), as a reliable transport
// directly on the HAL packet layer.
//
// The centerpiece is the active-message function Amsend: the origin names a
// header handler to run at the target when the first packet of a message
// arrives; the header handler returns the buffer where LAPI must assemble
// the message and, optionally, a completion handler to run after the last
// byte lands. Three counters (origin, target, completion) signal progress,
// mirroring Figure 2.
//
// Completion-handler regimes (Section 5):
//
//   - Threaded (the Base MPI-LAPI): completion handlers execute on a
//     separate thread; each execution pays a thread context switch.
//   - Inline (the Enhanced LAPI): predefined completion handlers execute in
//     the dispatcher's own context for a small overhead. This is the LAPI
//     enhancement the paper proposes in Section 5.3.
//
// Header handlers run in dispatcher context and must not call LAPI
// communication functions (enforced); completion handlers may.
package lapi

import (
	"encoding/binary"
	"fmt"

	"splapi/internal/hal"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Variant selects the completion-handler regime.
type Variant int

const (
	// Threaded runs completion handlers on a separate thread (Base).
	Threaded Variant = iota
	// Inline runs predefined completion handlers in the dispatcher
	// context (Enhanced).
	Inline
)

func (v Variant) String() string {
	if v == Inline {
		return "inline"
	}
	return "threaded"
}

// Message operation codes.
const (
	opAmsend   byte = 1
	opPut      byte = 2
	opGetReq   byte = 3
	opGetReply byte = 4
	opRmwReq   byte = 5
	opRmwReply byte = 6
	opNotify   byte = 7
)

// noID marks an absent counter reference on the wire.
const noID = 0xffff

// HdrHandler is a LAPI header handler: it receives the user header and total
// data length of an arriving message and returns the buffer LAPI must
// assemble the data into (nil discards the data), an optional completion
// handler, and an argument for it.
type HdrHandler func(p *sim.Proc, src int, uhdr []byte, dataLen int) (buf []byte, ch CmplHandler, arg any)

// CmplHandler is a LAPI completion handler, executed after the whole message
// has been assembled in the target buffer.
type CmplHandler func(p *sim.Proc, arg any)

// RmwOp is a read-modify-write operation code.
type RmwOp byte

// Read-modify-write operations supported by Rmw.
const (
	RmwFetchAdd RmwOp = iota + 1
	RmwFetchOr
	RmwSwap
	RmwCompareSwap // swaps only if the current value equals the packed compare operand
)

// Stats are cumulative per-task LAPI counters.
type Stats struct {
	MsgsSent       uint64
	MsgsCompleted  uint64
	BytesSent      uint64
	DataPackets    uint64
	AcksSent       uint64
	AcksPiggyback  uint64
	Retransmits    uint64
	Timeouts       uint64
	DupsDropped    uint64
	WindowStalls   uint64
	HdrHandlers    uint64
	CmplThreaded   uint64
	CmplInline     uint64
	CounterUpdates uint64
	StashedPackets uint64
}

// LAPI is one task's LAPI endpoint.
type LAPI struct {
	eng     *sim.Engine
	par     *machine.Params
	h       *hal.HAL
	node    int
	n       int
	variant Variant

	flows []*flow

	hdrHandlers []HdrHandler
	counters    []*Counter
	buffers     [][]byte
	rmwVars     []*int64

	nextMsgID uint64
	pending   map[msgKey]*recvMsg
	recvFree  []*recvMsg // finished receive records (newRecv, finishMsg)
	recvMade  uint64     // records made because recvFree was empty, for tests

	nextGetID   uint32
	pendingGets map[uint32]*getOp
	nextRmwID   uint32
	pendingRmws map[uint32]*rmwOp

	// Completion-handler thread (Threaded variant).
	cmplQueue *sim.Queue

	// Service process work flags, indexed by peer (timers cannot block;
	// slices, not maps, for deterministic iteration order).
	resendPeers []bool
	ackPeers    []bool
	svcCond     sim.Cond

	// inHdr tracks which processes are currently executing a header
	// handler; LAPI communication calls from such a process are forbidden
	// (deadlock). Per-process counts, because handlers on different
	// processes interleave at sleep points and may exit out of order.
	inHdr map[*sim.Proc]int

	stats Stats
	tr    *tracelog.Log
}

type msgKey struct {
	src int
	id  uint64
}

type recvMsg struct {
	key     msgKey
	op      byte
	uhdr    []byte
	dataLen int
	buf     []byte
	recvd   int
	gotHdr  bool
	stash   []stashSeg
	cmpl    CmplHandler
	arg     any
	tgtCntr int
	cmplCnt int
}

type stashSeg struct {
	off  int
	data []byte
}

type getOp struct {
	buf []byte
	org *Counter
}

type rmwOp struct {
	done bool
	prev int64
}

// New creates a LAPI endpoint on h's node for an n-task job and registers
// its protocol handler with the HAL (LAPI_Init).
func New(eng *sim.Engine, par *machine.Params, h *hal.HAL, n int, variant Variant) *LAPI {
	l := &LAPI{
		eng:         eng,
		par:         par,
		h:           h,
		node:        h.Node(),
		n:           n,
		variant:     variant,
		pending:     make(map[msgKey]*recvMsg),
		pendingGets: make(map[uint32]*getOp),
		pendingRmws: make(map[uint32]*rmwOp),
		resendPeers: make([]bool, n),
		ackPeers:    make([]bool, n),
		cmplQueue:   sim.NewQueue(0),
		inHdr:       make(map[*sim.Proc]int),
	}
	l.flows = make([]*flow, n)
	for i := 0; i < n; i++ {
		l.flows[i] = newFlow(l, i)
	}
	h.RegisterProto(hal.ProtoLAPI, l.onPacket)
	eng.Spawn(fmt.Sprintf("lapi-svc-%d", l.node), l.serviceLoop)
	eng.Spawn(fmt.Sprintf("lapi-cmpl-%d", l.node), l.completionLoop)
	return l
}

// Node returns this task's node id.
func (l *LAPI) Node() int { return l.node }

// Variant returns the completion-handler regime.
func (l *LAPI) Variant() Variant { return l.variant }

// Stats returns a copy of the cumulative counters.
func (l *LAPI) Stats() Stats { return l.stats }

// SetTrace attaches an event log (nil disables tracing).
func (l *LAPI) SetTrace(tl *tracelog.Log) { l.tr = tl }

// HAL returns the underlying packet layer (for progress-driving waits).
func (l *LAPI) HAL() *hal.HAL { return l.h }

// SetInterruptMode enables or disables packet-arrival interrupts (LAPI_Senv
// INTERRUPT_SET). LAPI uses no hysteresis in its interrupt handler.
func (l *LAPI) SetInterruptMode(on bool) {
	l.h.SetInterruptDwell(0)
	l.h.EnableInterrupts(on)
}

// ---- Registries (addresses exchanged at init, LAPI_Address_init) ----

// RegisterHeaderHandler registers fn and returns its id. All tasks must
// register the same handlers in the same order.
func (l *LAPI) RegisterHeaderHandler(fn HdrHandler) int {
	l.hdrHandlers = append(l.hdrHandlers, fn)
	return len(l.hdrHandlers) - 1
}

// RegisterCounter makes c remotely addressable and returns its id. All
// tasks must register counters in the same order.
func (l *LAPI) RegisterCounter(c *Counter) int {
	l.counters = append(l.counters, c)
	return len(l.counters) - 1
}

// RegisterBuffer makes b a remotely addressable target buffer for Put/Get.
func (l *LAPI) RegisterBuffer(b []byte) int {
	// Retaining b is the one-sided API contract: the registered slice IS
	// the remote-access window into the caller's memory.
	//simlint:allow bufpoolown one-sided semantics: remote Put/Get must read and write the caller's own buffer
	l.buffers = append(l.buffers, b)
	return len(l.buffers) - 1
}

// RegisterRmwVar makes v a remotely addressable read-modify-write variable.
func (l *LAPI) RegisterRmwVar(v *int64) int {
	l.rmwVars = append(l.rmwVars, v)
	return len(l.rmwVars) - 1
}

func (l *LAPI) guardComm(p *sim.Proc, fn string) {
	if l.inHdr[p] > 0 {
		panic("lapi: " + fn + " called from a header handler (deadlock hazard, forbidden by LAPI)")
	}
}

// ---- Message send machinery ----

// msgHdr layout (body of a kHdr packet):
//
//	[0]=op [1:9]=msgID [9:11]=hdrID [11:13]=uhdrLen [13:17]=dataLen
//	[17:19]=tgtCntr [19:21]=cmplCntr [21:21+uhdrLen]=uhdr [rest]=first chunk
const msgHdrFixed = 21

// msgData layout (body of a kData packet): [0:8]=msgID [8:12]=offset [12:]=data
const msgDataFixed = 12

// sendMsg transmits a complete LAPI message of the given op. It charges the
// single user-buffer-to-NIC copy for data bytes and increments org (if any)
// once the entire message is buffered for transmission.
func (l *LAPI) sendMsg(p *sim.Proc, tgt int, op byte, hdrID int, uhdr, data []byte, tgtCntr, cmplCntr int, org *Counter) {
	if tgt < 0 || tgt >= l.n {
		panic(fmt.Sprintf("lapi: bad target %d", tgt))
	}
	if tgt == l.node {
		l.loopback(p, op, hdrID, uhdr, data, tgtCntr, cmplCntr, org)
		return
	}
	f := l.flows[tgt]
	id := l.nextMsgID
	l.nextMsgID++
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KAmsend, l.node, tgt, tracelog.LAPIMsgID(l.node, id), len(data), int64(op))

	if len(uhdr) > l.par.PacketPayload-flowHdrSize-msgHdrFixed {
		panic("lapi: user header too large for the header packet")
	}
	hdrLen := msgHdrFixed + len(uhdr)

	// First chunk rides in the header packet. The scratch buffer comes from
	// the engine pool; flow.send copies it into its own framing buffer, so
	// the scratch dies as soon as send returns.
	room := l.par.PacketPayload - flowHdrSize - hdrLen
	first := len(data)
	if first > room {
		first = room
	}
	hdr := l.eng.Pool().Get(hdrLen + first)
	hdr[0] = op
	binary.BigEndian.PutUint64(hdr[1:9], id)
	binary.BigEndian.PutUint16(hdr[9:11], uint16(hdrID))
	binary.BigEndian.PutUint16(hdr[11:13], uint16(len(uhdr)))
	binary.BigEndian.PutUint32(hdr[13:17], uint32(len(data)))
	binary.BigEndian.PutUint16(hdr[17:19], uint16(tgtCntr))
	binary.BigEndian.PutUint16(hdr[19:21], uint16(cmplCntr))
	copy(hdr[msgHdrFixed:], uhdr)
	copy(hdr[hdrLen:], data[:first])
	l.h.ChargeCPU(p, l.par.CopyCost(first))
	if first > 0 {
		l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCopy, l.node, tgt, tracelog.LAPIMsgID(l.node, id), first, int64(l.par.CopyCost(first)))
	}
	f.send(p, kHdr, hdr)
	l.eng.Pool().Put(hdr)
	l.stats.MsgsSent++
	l.stats.BytesSent += uint64(len(data))
	l.stats.DataPackets++

	// Remaining chunks as data packets, staged through one pooled scratch.
	off := first
	chunkMax := l.par.PacketPayload - flowHdrSize - msgDataFixed
	for off < len(data) {
		chunk := len(data) - off
		if chunk > chunkMax {
			chunk = chunkMax
		}
		body := l.eng.Pool().Get(msgDataFixed + chunk)
		binary.BigEndian.PutUint64(body[0:8], id)
		binary.BigEndian.PutUint32(body[8:12], uint32(off))
		copy(body[msgDataFixed:], data[off:off+chunk])
		l.h.ChargeCPU(p, l.par.CopyCost(chunk))
		l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCopy, l.node, tgt, tracelog.LAPIMsgID(l.node, id), chunk, int64(l.par.CopyCost(chunk)))
		f.send(p, kData, body)
		l.eng.Pool().Put(body)
		l.stats.DataPackets++
		off += chunk
	}
	if org != nil {
		org.add(1)
	}
}

// loopback handles a message a task sends to itself without touching the
// network (MPI self-sends at the MPCI level use this path).
func (l *LAPI) loopback(p *sim.Proc, op byte, hdrID int, uhdr, data []byte, tgtCntr, cmplCntr int, org *Counter) {
	if op != opAmsend && op != opPut {
		panic("lapi: loopback supports only Amsend and Put")
	}
	l.stats.MsgsSent++
	m := l.newRecv(msgKey{src: l.node, id: l.nextMsgID})
	m.op, m.uhdr, m.dataLen, m.gotHdr = op, l.eng.Pool().Snapshot(uhdr), len(data), true
	m.tgtCntr, m.cmplCnt = tgtCntr, cmplCntr
	l.nextMsgID++
	switch op {
	case opAmsend:
		m.buf, m.cmpl, m.arg = l.runHdrHandler(p, l.node, hdrID, m.uhdr, len(data))
	case opPut:
		bufID := int(binary.BigEndian.Uint16(uhdr[0:2]))
		off := int(binary.BigEndian.Uint32(uhdr[2:6]))
		m.buf = l.buffers[bufID][off:]
	}
	if m.buf != nil {
		l.h.ChargeCPU(p, l.par.CopyCost(len(data)))
		l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KCopy, l.node, l.node, tracelog.LAPIMsgID(m.key.src, m.key.id), len(data), int64(l.par.CopyCost(len(data))))
		copy(m.buf, data)
	}
	m.recvd = len(data)
	if org != nil {
		org.add(1)
	}
	l.finishMsg(p, m)
}

// ---- Public operations (Table 1) ----

// Amsend is LAPI_Amsend: an active message. hdrID names the header handler
// to run at the target; uhdr is passed to it. tgtCntr (a counter id at the
// target, or -1) is incremented after the message completes at the target;
// org is incremented when the origin buffer is reusable; cmplCntr (a counter
// id at the origin, or -1) is incremented when the target signals
// completion.
func (l *LAPI) Amsend(p *sim.Proc, tgt, hdrID int, uhdr, data []byte, tgtCntr int, org *Counter, cmplCntr int) {
	l.guardComm(p, "Amsend")
	l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.SendCallOverhead)
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KOverhead, l.node, tgt, 0, len(data), int64(l.par.ParamCheckCost+l.par.SendCallOverhead))
	l.sendMsg(p, tgt, opAmsend, hdrID, uhdr, data, cntrID(tgtCntr), cntrID(cmplCntr), org)
}

// Put is LAPI_Put: write data into the target's registered buffer bufID at
// offset off.
func (l *LAPI) Put(p *sim.Proc, tgt, bufID, off int, data []byte, tgtCntr int, org *Counter, cmplCntr int) {
	l.guardComm(p, "Put")
	l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.SendCallOverhead)
	l.tr.Emit(p.Now(), tracelog.LLAPI, tracelog.KOverhead, l.node, tgt, 0, len(data), int64(l.par.ParamCheckCost+l.par.SendCallOverhead))
	uhdr := l.eng.Pool().Get(6)
	binary.BigEndian.PutUint16(uhdr[0:2], uint16(bufID))
	binary.BigEndian.PutUint32(uhdr[2:6], uint32(off))
	l.sendMsg(p, tgt, opPut, 0, uhdr, data, cntrID(tgtCntr), cntrID(cmplCntr), org)
	l.eng.Pool().Put(uhdr)
}

// Get is LAPI_Get: read len(local) bytes from the target's registered
// buffer bufID at offset off into local. org is incremented when the data
// has fully arrived; tgtCntr (id at target, or -1) is incremented when the
// target has served the request. The call is asynchronous.
func (l *LAPI) Get(p *sim.Proc, tgt, bufID, off int, local []byte, tgtCntr int, org *Counter) {
	l.guardComm(p, "Get")
	if tgt == l.node {
		l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.CopyCost(len(local)))
		copy(local, l.buffers[bufID][off:off+len(local)])
		if org != nil {
			org.add(1)
		}
		return
	}
	l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.SendCallOverhead)
	getID := l.nextGetID
	l.nextGetID++
	// Retaining local is the API contract: the reply handler must deposit
	// the arriving data directly in the caller's buffer.
	//simlint:allow bufpoolown asynchronous Get writes into the caller's buffer on reply
	l.pendingGets[getID] = &getOp{buf: local, org: org}
	uhdr := l.eng.Pool().Get(14)
	binary.BigEndian.PutUint16(uhdr[0:2], uint16(bufID))
	binary.BigEndian.PutUint32(uhdr[2:6], uint32(off))
	binary.BigEndian.PutUint32(uhdr[6:10], uint32(len(local)))
	binary.BigEndian.PutUint32(uhdr[10:14], getID)
	l.sendMsg(p, tgt, opGetReq, 0, uhdr, nil, cntrID(tgtCntr), noID, nil)
	l.eng.Pool().Put(uhdr)
}

// Rmw is LAPI_Rmw: atomically apply op to the target's registered variable
// varID with operand in, returning the previous value. For RmwCompareSwap,
// in packs (compare<<32 | swap&0xffffffff) on 32-bit quantities. The call
// blocks until the reply arrives (polling the dispatcher).
func (l *LAPI) Rmw(p *sim.Proc, tgt, varID int, op RmwOp, in int64) int64 {
	l.guardComm(p, "Rmw")
	if tgt == l.node {
		l.h.ChargeCPU(p, l.par.ParamCheckCost)
		return applyRmw(l.rmwVars[varID], op, in)
	}
	l.h.ChargeCPU(p, l.par.ParamCheckCost+l.par.SendCallOverhead)
	rmwID := l.nextRmwID
	l.nextRmwID++
	ro := &rmwOp{}
	l.pendingRmws[rmwID] = ro
	uhdr := l.eng.Pool().Get(15)
	binary.BigEndian.PutUint16(uhdr[0:2], uint16(varID))
	uhdr[2] = byte(op)
	binary.BigEndian.PutUint64(uhdr[3:11], uint64(in))
	binary.BigEndian.PutUint32(uhdr[11:15], rmwID)
	l.sendMsg(p, tgt, opRmwReq, 0, uhdr, nil, noID, noID, nil)
	l.eng.Pool().Put(uhdr)
	l.h.ProgressWait(p, func() bool { return ro.done })
	delete(l.pendingRmws, rmwID)
	return ro.prev
}

func applyRmw(v *int64, op RmwOp, in int64) int64 {
	prev := *v
	switch op {
	case RmwFetchAdd:
		*v += in
	case RmwFetchOr:
		*v |= in
	case RmwSwap:
		*v = in
	case RmwCompareSwap:
		cmp := in >> 32
		swp := int64(int32(in))
		if int32(prev) == int32(cmp) {
			*v = swp
		}
	default:
		panic(fmt.Sprintf("lapi: bad rmw op %d", op))
	}
	return prev
}

// Fence is LAPI_Fence toward one target: it blocks until every message this
// task sent to tgt has been processed there (transport-acknowledged).
func (l *LAPI) Fence(p *sim.Proc, tgt int) {
	l.guardComm(p, "Fence")
	f := l.flows[tgt]
	l.h.ProgressWait(p, func() bool { return len(f.unacked) == 0 })
}

// FenceAll blocks until every outstanding message to every target is
// processed (the per-task half of LAPI_Gfence; the collective part is the
// job harness's barrier).
func (l *LAPI) FenceAll(p *sim.Proc) {
	l.guardComm(p, "FenceAll")
	l.h.ProgressWait(p, func() bool {
		for _, f := range l.flows {
			if len(f.unacked) > 0 {
				return false
			}
		}
		return true
	})
}

// Drained reports whether no unacknowledged traffic is outstanding.
func (l *LAPI) Drained() bool {
	for _, f := range l.flows {
		if len(f.unacked) > 0 {
			return false
		}
	}
	return true
}

func cntrID(id int) int {
	if id < 0 {
		return noID
	}
	return id
}
