// RDMA engine: registered-buffer zero-copy transfers (the MPICH2-over-
// InfiniBand model the ROADMAP names as the answer to the paper's copy
// bill).
//
// A region of user memory is registered with the adapter (RegisterRegion:
// pin + translate, charged in virtual time, with a lazy-deregistration
// cache so re-registering a hot buffer is free). RdmaRead then moves
// bytes directly between registered regions over the switch fabric: data
// packets carry the RDMA protocol byte, so the receiving adapter lands
// them in the target region straight off the receive DMA —
// they never enter the receive FIFO, raise no interrupt, and no host
// software runs on the data path (adapter.SetBypass). The data path pays
// only DMA occupancy and wire time; the CPU-side costs are the small
// request descriptors and the registration itself.
//
// Reliability reuses the fabric's fault machinery unchanged: data packets
// are sprayed across routes, may be dropped, duplicated or corrupted, and
// carry the injection-stamped link CRC. The bypass handler verifies the
// CRC (the packets never reach Poll, so the check moves here), drops
// damaged chunks, and a per-operation retry timer re-requests missing
// chunks — into the same registered region, preserving zero-copy — with
// the same doubling backoff as LAPI's flow layer. Chunk bitmaps make
// duplicate deliveries idempotent.
//
// Determinism: the engine keeps per-node maps keyed by rkey and operation
// id, but never iterates them — every access is a lookup driven by packet
// arrival order, which the engine already serializes. The registration
// cache is keyed by buffer identity (base pointer + length); behaviour
// depends only on pointer equality, never on pointer values.

package hal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"splapi/internal/sim"
	"splapi/internal/switchnet"
	"splapi/internal/tracelog"
)

// ProtoRDMA is the protocol byte of RDMA packets. They bypass the receive
// FIFO (adapter.SetBypass) and are handled by the rdmaEngine directly.
const ProtoRDMA byte = 3

// RDMA packet op codes ([1] of every ProtoRDMA payload).
const (
	rdmaOpReadReq  byte = 1 // pull request: key = server-side region to read
	rdmaOpReadData byte = 2 // read reply chunk toward the initiator
)

// rdmaHdr is the fixed header of every RDMA packet:
//
//	[0] proto  [1] op  [2:6] opID  [6:10] rkey  [10:14] chunk  [14:18] n
//
// followed by chunk data for rdmaOpReadData.
const rdmaHdr = 18

// rdmaCacheCap bounds the lazy-deregistration cache: at most this many
// idle (deregistered) regions stay pinned awaiting re-registration before
// the oldest is truly evicted.
const rdmaCacheCap = 64

// rdmaQPDepth is the per-peer limit on in-flight operations.
const rdmaQPDepth = 2

// RdmaStats are cumulative per-node RDMA counters.
type RdmaStats struct {
	Registrations   uint64 // full registrations charged (cache misses)
	CacheHits       uint64 // registrations satisfied by the cache
	Deregistrations uint64
	Evictions       uint64 // idle regions evicted from the cache
	Reads           uint64 // read operations initiated
	DataPackets     uint64 // data chunks landed in a registered region
	BytesRead       uint64
	CrcDrops        uint64 // data-path packets discarded by the CRC check
	Retries         uint64 // operation timers fired (chunks re-requested)
	StaleDrops      uint64 // packets for unknown/deregistered rkeys or ops
}

// regionKey identifies a buffer for the registration cache: base pointer
// plus length. Only pointer equality is ever consulted.
type regionKey struct {
	base *byte
	n    int
}

// region is one registered memory region.
type region struct {
	rkey uint32
	buf  []byte
	key  regionKey
	refs int // live handles; 0 = idle in the cache
}

// rdmaOp is one in-flight operation at its initiator.
type rdmaOp struct {
	id      uint32
	peer    int
	local   *region // destination of the pull
	remote  uint32  // peer's rkey
	n       int
	chunks  int
	got     []bool // chunks landed
	nGot    int
	done    func()
	timeout sim.Time // current backoff value
	timer   sim.Timer
	onRetry func() // the retry timer's callback, bound once
}

// rdmaEngine is one node's RDMA state. It is created lazily by HAL.Rdma()
// and hooks the adapter's protocol bypass.
type rdmaEngine struct {
	h       *HAL
	regions map[uint32]*region
	cache   map[regionKey]*region
	idle    []uint32 // deregistered regions in idle order (oldest first)
	nextKey uint32
	ops     map[uint32]*rdmaOp
	nextOp  uint32
	// At most rdmaQPDepth operations in flight per peer, like a short
	// hardware queue pair: depth 2 hides the request round trip under the
	// running stream, while deeper concurrency buys nothing — the wire
	// serializes the data anyway — except retry timers racing transfers
	// they cannot see. Excess ops wait in per-peer FIFOs in issue order.
	active map[int][]*rdmaOp
	queue  map[int][]*rdmaOp
	stats  RdmaStats
}

// Rdma returns the node's RDMA engine, creating it on first use. It
// panics when the machine generation does not support RDMA
// (Params.RdmaSupported), so a misconfigured stack fails loudly at
// construction instead of hanging.
func (h *HAL) Rdma() *RdmaEngine {
	if h.rdma == nil {
		if !h.par.RdmaSupported {
			panic(fmt.Sprintf("hal: node %d: RDMA engines not supported by this machine generation (Params.RdmaSupported)", h.node))
		}
		h.rdma = &rdmaEngine{
			h:       h,
			regions: make(map[uint32]*region),
			cache:   make(map[regionKey]*region),
			ops:     make(map[uint32]*rdmaOp),
			active:  make(map[int][]*rdmaOp),
			queue:   make(map[int][]*rdmaOp),
		}
		h.ad.SetBypass(ProtoRDMA, h.rdma.onPacket)
	}
	return (*RdmaEngine)(h.rdma)
}

// RdmaActive reports whether the node's RDMA engine has been created,
// without creating it (Rdma panics on machines that cannot register
// memory; stats collectors must not).
func (h *HAL) RdmaActive() bool { return h.rdma != nil }

// RdmaEngine is the public handle to a node's RDMA state. Methods must be
// called in the node's simulation context.
type RdmaEngine rdmaEngine

// Stats returns a copy of the cumulative RDMA counters.
func (r *RdmaEngine) Stats() RdmaStats { return (*rdmaEngine)(r).stats }

// RegisterRegion registers buf with the adapter and returns an rkey-like
// handle plus the virtual time at which the registration completes
// (pinning and translation are charged per page; operations on the region
// must not start earlier). Registering a buffer that is still pinned by
// the lazy-deregistration cache is a hit: same rkey, ready immediately.
func (r *RdmaEngine) RegisterRegion(buf []byte) (rkey uint32, ready sim.Time) {
	e := (*rdmaEngine)(r)
	h := e.h
	now := h.eng.Now()
	var key regionKey
	if len(buf) > 0 {
		key = regionKey{base: &buf[0], n: len(buf)}
		if reg := e.cache[key]; reg != nil {
			if reg.refs == 0 {
				e.unidle(reg.rkey)
			}
			reg.refs++
			e.stats.CacheHits++
			h.tr.Emit(now, tracelog.LHAL, tracelog.KRdmaRegHit, h.node, -1, 0, len(buf), 0)
			return reg.rkey, now
		}
	}
	e.nextKey++
	//simlint:allow bufpoolown registered region: the caller pins buf with the adapter until Deregister; RDMA lands bytes in it by design
	reg := &region{rkey: e.nextKey, buf: buf, key: key, refs: 1}
	e.regions[reg.rkey] = reg
	if len(buf) > 0 {
		e.cache[key] = reg
	}
	cost := h.par.RdmaRegisterCost(len(buf))
	e.stats.Registrations++
	h.tr.Emit(now, tracelog.LHAL, tracelog.KRdmaReg, h.node, -1, 0, len(buf), int64(cost))
	return reg.rkey, now + cost
}

// Deregister releases one handle on a region. The region stays pinned in
// the lazy-deregistration cache (re-registering the same buffer is then
// free) until capacity evicts it; packets addressed to an evicted rkey
// are dropped as stale.
func (r *RdmaEngine) Deregister(rkey uint32) {
	e := (*rdmaEngine)(r)
	reg := e.regions[rkey]
	if reg == nil || reg.refs == 0 {
		panic(fmt.Sprintf("hal: node %d: Deregister of unknown or idle rkey %d", e.h.node, rkey))
	}
	reg.refs--
	e.stats.Deregistrations++
	e.h.tr.Emit(e.h.eng.Now(), tracelog.LHAL, tracelog.KRdmaDereg, e.h.node, -1, 0, len(reg.buf), 0)
	if reg.refs > 0 {
		return
	}
	if len(reg.buf) == 0 {
		// Empty regions are not cached; dying immediately.
		delete(e.regions, rkey)
		return
	}
	e.idle = append(e.idle, rkey)
	for len(e.idle) > rdmaCacheCap {
		victim := e.idle[0]
		e.idle = e.idle[1:]
		if v := e.regions[victim]; v != nil && v.refs == 0 {
			delete(e.cache, v.key)
			delete(e.regions, victim)
			e.stats.Evictions++
		}
	}
}

// unidle removes rkey from the idle list (a cache hit revived it).
func (e *rdmaEngine) unidle(rkey uint32) {
	for i, k := range e.idle {
		if k == rkey {
			e.idle = append(e.idle[:i], e.idle[i+1:]...)
			return
		}
	}
}

// chunkData is the data bytes carried per RDMA packet.
func (e *rdmaEngine) chunkData() int {
	n := e.h.par.PacketPayload - rdmaHdr
	if n < 1 {
		n = 1
	}
	return n
}

func rdmaChunks(n, per int) int {
	if n <= 0 {
		return 1
	}
	return (n + per - 1) / per
}

// RdmaRead pulls n bytes from the peer's registered region remoteKey into
// the local registered region localKey (a LAPI-Get-style one-sided pull).
// start is the earliest virtual time the request may be issued — pass the
// ready time RegisterRegion returned. done runs in engine context once
// every byte has landed; the returned operation id names the transfer in
// traces. The request descriptor costs RdmaRequestCost; the data path
// itself charges no CPU.
func (r *RdmaEngine) RdmaRead(peer int, remoteKey, localKey uint32, n int, start sim.Time, done func()) uint32 {
	e := (*rdmaEngine)(r)
	local := e.regions[localKey]
	if local == nil || local.refs == 0 {
		panic(fmt.Sprintf("hal: node %d: RDMA op on unregistered local rkey %d", e.h.node, localKey))
	}
	if n > len(local.buf) {
		panic(fmt.Sprintf("hal: node %d: RDMA op of %d bytes exceeds %d-byte region", e.h.node, n, len(local.buf)))
	}
	e.nextOp++
	chunks := rdmaChunks(n, e.chunkData())
	op := &rdmaOp{
		id: e.nextOp, peer: peer,
		local: local, remote: remoteKey, n: n,
		chunks: chunks, got: make([]bool, chunks),
		done: done, timeout: e.h.par.RdmaRetryTimeout,
	}
	op.onRetry = func() { e.retry(op) }
	e.ops[op.id] = op
	e.stats.Reads++
	e.launch(op, start)
	return op.id
}

// launch readies the operation at start (plus the request-descriptor
// cost): it is issued immediately if its peer is idle, else it joins the
// peer's FIFO. The retry timer arms only when the op actually issues —
// a queued op is waiting on its own side, not on the network, so timing
// it out would only manufacture duplicate traffic.
func (e *rdmaEngine) launch(op *rdmaOp, start sim.Time) {
	h := e.h
	now := h.eng.Now()
	if start < now {
		start = now
	}
	at := start + h.par.RdmaRequestCost
	h.tr.Emit(now, tracelog.LHAL, tracelog.KRdmaRead, h.node, op.peer, tracelog.RdmaOpID(h.node, op.id), op.n, int64(h.par.RdmaRequestCost))
	h.eng.At(at, func() {
		if e.ops[op.id] != op {
			return
		}
		if len(e.active[op.peer]) >= rdmaQPDepth {
			e.queue[op.peer] = append(e.queue[op.peer], op)
			return
		}
		e.start(op)
	})
}

// start puts op on the wire toward its peer and arms its retry timer.
func (e *rdmaEngine) start(op *rdmaOp) {
	e.active[op.peer] = append(e.active[op.peer], op)
	e.sendReadReq(op, 0)
	op.timer = e.h.eng.After(op.timeout, op.onRetry)
}

// retry is the operation's retry timer: re-request what is missing and
// re-arm with doubling backoff, mirroring LAPI's adaptive retransmission.
func (e *rdmaEngine) retry(op *rdmaOp) {
	h := e.h
	if e.ops[op.id] != op {
		return
	}
	e.stats.Retries++
	h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaRetry, h.node, op.peer, tracelog.RdmaOpID(h.node, op.id), op.n, int64(op.timeout))
	// Re-request from the first missing chunk; chunks that did arrive are
	// absorbed by the bitmap.
	first := 0
	for first < op.chunks && op.got[first] {
		first++
	}
	e.sendReadReq(op, first)
	op.timeout *= 2
	if max := h.par.RetransmitMax; max > 0 && op.timeout > max {
		op.timeout = max
	}
	if base := h.par.RdmaRetryTimeout; op.timeout < base {
		// The global backoff cap can sit below the initial timeout, which
		// is the floor.
		op.timeout = base
	}
	op.timer = h.eng.After(op.timeout, op.onRetry)
}

// buildHdr fills one RDMA packet header into b.
func buildHdr(b []byte, opByte byte, opID, rkey uint32, chunk, n int) {
	b[0] = ProtoRDMA
	b[1] = opByte
	binary.BigEndian.PutUint32(b[2:6], opID)
	binary.BigEndian.PutUint32(b[6:10], rkey)
	binary.BigEndian.PutUint32(b[10:14], uint32(chunk))
	binary.BigEndian.PutUint32(b[14:18], uint32(n))
}

// sendCtl transmits a header-only RDMA packet (a pull request). Control
// packets skip the HAL send buffers: they are adapter command-queue
// descriptors, not pinned network buffers.
func (e *rdmaEngine) sendCtl(dst int, opByte byte, opID, rkey uint32, chunk, n int) {
	buf := e.h.eng.Pool().Get(rdmaHdr)
	buildHdr(buf, opByte, opID, rkey, chunk, n)
	e.h.ad.Send(e.h.fab.NewPacket(e.h.node, dst, buf))
	// fabric.Send snapshotted the bytes synchronously; the scratch returns
	// to the pool.
	e.h.eng.Pool().Put(buf)
}

func (e *rdmaEngine) sendReadReq(op *rdmaOp, fromChunk int) {
	e.sendCtl(op.peer, rdmaOpReadReq, op.id, op.remote, fromChunk, op.n)
}

// streamChunks packetizes region bytes [fromChunk..] of an n-byte
// transfer into data packets toward dst. The adapter's send-DMA occupancy
// serializes them in virtual time; no CPU copy cost is charged — the host
// never touches the bytes (Section 4's missing zero-copy path).
func (e *rdmaEngine) streamChunks(dst int, opByte byte, opID, rkey uint32, src []byte, n, fromChunk int) {
	per := e.chunkData()
	chunks := rdmaChunks(n, per)
	for c := fromChunk; c < chunks; c++ {
		off := c * per
		end := min(off+per, n)
		buf := e.h.eng.Pool().Get(rdmaHdr + (end - off))
		buildHdr(buf, opByte, opID, rkey, c, n)
		copy(buf[rdmaHdr:], src[off:end])
		e.h.ad.Send(e.h.fab.NewPacket(e.h.node, dst, buf))
		e.h.eng.Pool().Put(buf)
	}
}

// onPacket is the adapter bypass handler: every ProtoRDMA packet lands
// here straight off the receive DMA, in engine context, FIFO untouched.
// It owns the packet, record and pooled payload, and releases both.
func (e *rdmaEngine) onPacket(pkt *switchnet.Packet) {
	h := e.h
	payload := pkt.Payload
	if pkt.Checked && crc32.ChecksumIEEE(payload) != pkt.CRC {
		// The packets never reach Poll, so the link CRC check moves here:
		// in-transit corruption on the RDMA data path is detected, the
		// chunk is treated as lost, and the retry timer recovers it.
		e.stats.CrcDrops++
		h.stats.CorruptDrops++
		h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaCrcDrop, h.node, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.Seq()), len(payload), 0)
		h.fab.Release(pkt)
		return
	}
	if len(payload) < rdmaHdr {
		panic(fmt.Sprintf("hal: node %d: short RDMA packet (%d bytes)", h.node, len(payload)))
	}
	opByte := payload[1]
	opID := binary.BigEndian.Uint32(payload[2:6])
	rkey := binary.BigEndian.Uint32(payload[6:10])
	chunk := int(binary.BigEndian.Uint32(payload[10:14]))
	n := int(binary.BigEndian.Uint32(payload[14:18]))
	switch opByte {
	case rdmaOpReadReq:
		e.serveRead(pkt.Src, opID, rkey, chunk, n)
	case rdmaOpReadData:
		e.readData(pkt.Src, opID, chunk, n, payload[rdmaHdr:])
	default:
		panic(fmt.Sprintf("hal: node %d: bad RDMA op %d", h.node, opByte))
	}
	h.fab.Release(pkt)
}

// serveRead answers a pull request: stream the requested region back to
// the initiator. A request for an evicted rkey is stale (a duplicate of a
// request already served before the region died) and is dropped; the
// initiator's timer re-requests if it still cares.
func (e *rdmaEngine) serveRead(src int, opID, rkey uint32, fromChunk, n int) {
	h := e.h
	reg := e.regions[rkey]
	if reg == nil || n > len(reg.buf) {
		e.stats.StaleDrops++
		h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaStale, h.node, src, tracelog.RdmaOpID(src, opID), n, int64(rkey))
		return
	}
	h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaRead, h.node, src, tracelog.RdmaOpID(src, opID), n, int64(h.par.RdmaRequestCost))
	// The serving adapter pays the request-descriptor cost, then its DMA
	// engine streams the region; reg.buf is read at send time, when the
	// region may have died — re-check inside the callback.
	h.eng.After(h.par.RdmaRequestCost, func() {
		cur := e.regions[rkey]
		if cur != reg || n > len(reg.buf) {
			e.stats.StaleDrops++
			return
		}
		e.streamChunks(src, rdmaOpReadData, opID, rkey, reg.buf, n, fromChunk)
	})
}

// readData lands one pull chunk in the initiating operation's local
// region — the posted user buffer itself; no staging copy exists on this
// path.
func (e *rdmaEngine) readData(src int, opID uint32, chunk, n int, data []byte) {
	h := e.h
	op := e.ops[opID]
	if op == nil || op.peer != src || op.n != n || chunk >= op.chunks {
		e.stats.StaleDrops++
		h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaStale, h.node, src, tracelog.RdmaOpID(h.node, opID), n, int64(chunk))
		return
	}
	if op.got[chunk] {
		return // duplicate delivery; the bitmap makes it idempotent
	}
	op.got[chunk] = true
	op.nGot++
	copy(op.local.buf[chunk*e.chunkData():], data)
	e.stats.DataPackets++
	e.stats.BytesRead += uint64(len(data))
	h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaData, h.node, src, tracelog.RdmaOpID(h.node, opID), len(data), int64(chunk))
	if op.nGot == op.chunks {
		e.finish(op)
		return
	}
	// The timer measures queue-pair inactivity, not operation duration: the
	// peer serves ops in order, so a chunk landing is proof the whole
	// serialized stream is moving. Push the deadline of every active pull
	// from this peer out and drop its backoff — including the op whose own
	// first chunk is still queued behind the transfer in progress; timing
	// it out would flood the fabric with duplicate data.
	for _, a := range e.active[src] {
		a.timer.Stop()
		a.timeout = h.par.RdmaRetryTimeout
		a.timer = h.eng.After(a.timeout, a.onRetry)
	}
}

// finish retires an operation: stop its timer, publish the completion,
// and issue the next op queued for the same peer.
func (e *rdmaEngine) finish(op *rdmaOp) {
	h := e.h
	delete(e.ops, op.id)
	op.timer.Stop()
	h.tr.Emit(h.eng.Now(), tracelog.LHAL, tracelog.KRdmaDone, h.node, op.peer, tracelog.RdmaOpID(h.node, op.id), op.n, 0)
	for i, a := range e.active[op.peer] {
		if a != op {
			continue
		}
		e.active[op.peer] = append(e.active[op.peer][:i], e.active[op.peer][i+1:]...)
		if q := e.queue[op.peer]; len(q) > 0 {
			next := q[0]
			e.queue[op.peer] = q[1:]
			e.start(next)
		}
		break
	}
	if op.done != nil {
		op.done()
	}
}
