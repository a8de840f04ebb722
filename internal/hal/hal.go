// Package hal implements the Hardware Abstraction Layer (packet layer) of
// the SP protocol stacks (Figure 1 of the paper): a packet send/receive
// interface over the adapter, pinned network send buffers, a polling
// dispatcher, and an interrupt-mode dispatcher thread.
//
// Both stacks sit directly on HAL: the native stack's Pipes layer and LAPI.
// Each registers a protocol handler; the first payload byte of every packet
// identifies the protocol.
//
// Receive-side progress has two drivers, as on the real system:
//
//   - polling: a process inside a blocking communication call repeatedly
//     drains the adapter FIFO (ProgressWait);
//   - interrupts: a dedicated dispatcher process wakes on the adapter
//     interrupt, pays the interrupt latency, and drains the FIFO. The
//     native MPI's hysteresis scheme (Section 6.1) is modelled by the
//     dispatcher dwelling in the handler waiting for further packets, with
//     completions published only when the handler finally returns
//     (OnInterruptEnd).
package hal

import (
	"fmt"
	"hash/crc32"

	"splapi/internal/adapter"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
	"splapi/internal/tracelog"
)

// Protocol identifiers (first byte of every packet payload).
const (
	ProtoPipes byte = 1
	ProtoLAPI  byte = 2
)

// Handler processes one received packet. It runs in the context of whichever
// process drives the dispatcher (a polling caller or the interrupt thread);
// it may sleep and send packets.
type Handler func(p *sim.Proc, src int, pkt []byte)

// Stats are cumulative HAL counters.
type Stats struct {
	PacketsSent  uint64
	PacketsRecvd uint64
	BytesSent    uint64
	Polls        uint64
	IntrBursts   uint64
	// CorruptDrops counts packets discarded because their payload failed
	// the link CRC check (fault-injected corruption, detected here
	// rather than silently delivered). They never reach a protocol
	// handler and are not counted in PacketsRecvd.
	CorruptDrops uint64
}

// HAL is one node's packet layer.
type HAL struct {
	eng  *sim.Engine
	par  *machine.Params
	ad   *adapter.Adapter
	node int

	protos         map[byte]Handler
	sendBufs       *sim.Resource
	releaseSendBuf func() // sendBufs.Release, bound once rather than per packet
	// cpu serializes all protocol processing on this node: per-packet
	// dispatch, memory copies, matching, handler execution. Without it,
	// costs charged by different processes would overlap in virtual time
	// as if every node had unlimited cores.
	cpu *sim.Resource

	// progress is broadcast whenever anything a blocked process might be
	// waiting for could have changed: packet arrival, local completion
	// events (via KickProgress), interrupt-burst end.
	progress sim.Cond

	intrPending bool
	intrCond    sim.Cond
	inInterrupt bool
	intrDwell   sim.Time
	onIntrEnd   []func(p *sim.Proc)

	// rdma is the node's RDMA engine, created lazily by Rdma() (rdma.go).
	rdma *rdmaEngine

	stats Stats
	tr    *tracelog.Log
}

// New creates the HAL for a node and spawns its interrupt dispatcher
// process (idle until interrupts are enabled).
func New(eng *sim.Engine, par *machine.Params, ad *adapter.Adapter) *HAL {
	h := &HAL{
		eng:      eng,
		par:      par,
		ad:       ad,
		node:     ad.Node(),
		protos:   make(map[byte]Handler),
		sendBufs: sim.NewResource(par.SendBuffers),
		cpu:      sim.NewResource(1),
	}
	h.releaseSendBuf = h.sendBufs.Release
	ad.SetInterruptCallback(func() {
		h.intrPending = true
		h.intrCond.Broadcast()
	})
	ad.SetEnqueueCallback(func() { h.progress.Broadcast() })
	eng.Spawn(fmt.Sprintf("hal-intr-%d", h.node), h.interruptLoop)
	return h
}

// Node returns the node id.
func (h *HAL) Node() int { return h.node }

// Stats returns a copy of the cumulative counters.
func (h *HAL) Stats() Stats { return h.stats }

// SetTrace attaches an event log (nil disables tracing).
func (h *HAL) SetTrace(tl *tracelog.Log) { h.tr = tl }

// Trace returns the attached event log (nil when tracing is off). Protocol
// layers stacked on this HAL emit through it.
func (h *HAL) Trace() *tracelog.Log { return h.tr }

// RegisterProto installs the handler for a protocol id.
func (h *HAL) RegisterProto(id byte, fn Handler) {
	if _, dup := h.protos[id]; dup {
		panic(fmt.Sprintf("hal: protocol %d registered twice on node %d", id, h.node))
	}
	h.protos[id] = fn
}

// EnableInterrupts switches packet-arrival interrupts on or off.
func (h *HAL) EnableInterrupts(on bool) { h.ad.EnableInterrupts(on) }

// InterruptsEnabled reports whether arrival interrupts are armed.
func (h *HAL) InterruptsEnabled() bool { return h.ad.InterruptsEnabled() }

// SetInterruptDwell sets the hysteresis dwell of the interrupt handler: on
// each interrupt burst the dispatcher keeps waiting up to d for further
// packets before returning. Zero (LAPI) returns immediately after draining.
func (h *HAL) SetInterruptDwell(d sim.Time) { h.intrDwell = d }

// InInterrupt reports whether the current dispatch runs in interrupt
// context (used by stacks that defer completion publication).
func (h *HAL) InInterrupt() bool { return h.inInterrupt }

// OnInterruptEnd defers fn until the current interrupt burst finishes. It
// must only be called while InInterrupt() is true.
func (h *HAL) OnInterruptEnd(fn func(p *sim.Proc)) {
	if !h.inInterrupt {
		panic("hal: OnInterruptEnd outside interrupt context")
	}
	h.onIntrEnd = append(h.onIntrEnd, fn)
}

// Send transmits a packet to node dst. payload[0] must be the protocol id.
// The caller blocks while all pinned send buffers are busy (backpressure)
// and is charged the per-packet dispatch cost.
func (h *HAL) Send(p *sim.Proc, dst int, payload []byte) {
	if len(payload) == 0 {
		panic("hal: empty payload")
	}
	h.sendBufs.Acquire(p)
	h.ChargeCPU(p, h.par.PacketDispatch)
	h.tr.Emit(p.Now(), tracelog.LHAL, tracelog.KHALSend, h.node, dst, 0, len(payload), int64(h.par.PacketDispatch))
	// The caller keeps ownership of payload: adapter.Send synchronously
	// hands the packet to fabric.Send, which snapshots the bytes at the
	// injection boundary (PR 1) before this call returns.
	//simlint:allow payloadretain fabric.Send snapshots the payload synchronously before this call returns
	freeAt := h.ad.Send(&switchnet.Packet{Src: h.node, Dst: dst, Payload: payload})
	h.stats.PacketsSent++
	h.stats.BytesSent += uint64(len(payload))
	// The pinned buffer frees when the send DMA has drained it.
	h.eng.At(freeAt, h.releaseSendBuf)
}

// KickProgress wakes processes blocked in ProgressWait; protocol layers call
// it after any local state change (completions, timer-driven resends).
func (h *HAL) KickProgress() { h.progress.Broadcast() }

// ChargeCPU occupies this node's CPU for d: the caller queues behind other
// protocol processing in progress. Callers must not hold the CPU across a
// blocking wait; this helper acquires, sleeps, and releases atomically.
func (h *HAL) ChargeCPU(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	h.cpu.Use(p, d)
}

// Poll drains the adapter FIFO, dispatching every pending packet to its
// protocol handler, and returns the number of packets processed.
func (h *HAL) Poll(p *sim.Proc) int {
	n := 0
	for {
		pkt, ok := h.ad.Dequeue()
		if !ok {
			break
		}
		if pkt.Checked && crc32.ChecksumIEEE(pkt.Payload) != pkt.CRC {
			// The fabric stamped a CRC at injection and a fault rule
			// flipped a byte in transit: detect it here, at the packet
			// layer boundary, and treat the packet as lost. The
			// reliability layers above recover by retransmission.
			h.stats.CorruptDrops++
			h.tr.Emit(p.Now(), tracelog.LHAL, tracelog.KCrcDrop, h.node, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.Seq()), len(pkt.Payload), 0)
			h.eng.Pool().Put(pkt.Payload)
			continue
		}
		n++
		h.dispatch(p, pkt.Src, pkt.Payload)
	}
	if n > 0 {
		h.stats.Polls++
	}
	return n
}

func (h *HAL) dispatch(p *sim.Proc, src int, payload []byte) {
	h.stats.PacketsRecvd++
	h.ChargeCPU(p, h.par.PacketDispatch)
	h.tr.Emit(p.Now(), tracelog.LHAL, tracelog.KHALDispatch, h.node, src, 0, len(payload), int64(h.par.PacketDispatch))
	fn := h.protos[payload[0]]
	if fn == nil {
		panic(fmt.Sprintf("hal: node %d: no handler for protocol %d", h.node, payload[0]))
	}
	fn(p, src, payload)
	// The handler contract (enforced by simlint payloadretain on every
	// protocol layer) is copy-don't-retain, so once it returns the packet's
	// pooled snapshot is dead and goes back to the engine pool.
	//simlint:allow bufpoolown ownership transfer: handlers must not retain packet bytes, so dispatch returns the pooled snapshot
	h.eng.Pool().Put(payload)
	// A dispatched packet may unblock a waiter that is not this process.
	h.progress.Broadcast()
}

// ProgressWait drives the dispatcher until done() reports true: the calling
// process polls the FIFO, and parks on the progress condition when there is
// nothing to do. This is the polling-mode progress engine used by blocking
// operations.
func (h *HAL) ProgressWait(p *sim.Proc, done func() bool) {
	for !done() {
		if h.Poll(p) > 0 {
			continue
		}
		if done() {
			return
		}
		h.progress.Wait(p)
	}
}

// interruptLoop is the interrupt dispatcher process: wake on interrupt, pay
// the interrupt latency, drain, optionally dwell (hysteresis), then publish
// deferred completions.
func (h *HAL) interruptLoop(p *sim.Proc) {
	for {
		for !h.intrPending {
			h.intrCond.Wait(p)
		}
		h.intrPending = false
		p.Sleep(h.par.InterruptLatency)
		h.stats.IntrBursts++
		h.tr.Emit(p.Now(), tracelog.LHAL, tracelog.KIntrBurst, h.node, -1, 0, 0, int64(h.par.InterruptLatency))
		h.inInterrupt = true
		for {
			h.Poll(p)
			if h.intrDwell <= 0 {
				break
			}
			// Hysteresis: linger hoping to batch further packets and
			// avoid another interrupt.
			if !h.ad.WaitArrival(p, h.intrDwell) {
				break
			}
		}
		h.inInterrupt = false
		h.intrPending = false
		pend := h.onIntrEnd
		h.onIntrEnd = nil
		for _, fn := range pend {
			fn(p)
		}
		h.progress.Broadcast()
	}
}
