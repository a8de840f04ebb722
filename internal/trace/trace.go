// Package trace collects and reports per-layer statistics from a simulated
// cluster run: fabric counters, adapter and HAL activity, and protocol
// behaviour (retransmissions, acknowledgements, matching outcomes). It is
// the observability companion to the benchmark harness — the paper's
// explanations ("the extra copies", "the context switches") become visible
// numbers.
package trace

import (
	"fmt"
	"io"

	"splapi/internal/adapter"
	"splapi/internal/cluster"
	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/mpci"
	"splapi/internal/pipes"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
)

// NodeReport is one node's layered counters. Pipes/LAPI/Rdma/Provider are
// nil when the stack does not include that layer.
type NodeReport struct {
	Node     int
	Adapter  adapter.Stats
	HAL      hal.Stats
	Pipes    *pipes.Stats
	LAPI     *lapi.Stats
	Rdma     *hal.RdmaStats
	Provider *mpci.ProviderStats
}

// Report is a full-cluster snapshot.
type Report struct {
	Stack  string
	Nodes  int
	Fabric switchnet.Stats
	Per    []NodeReport
	// Pool is the engine buffer pool's aggregate traffic; PoolClasses breaks
	// it down by size class (only classes with traffic appear).
	Pool        sim.PoolStats
	PoolClasses []sim.ClassStat
}

// Collect snapshots every layer of the cluster.
func Collect(c *cluster.Cluster) *Report {
	pool := c.Eng.Pool()
	r := &Report{
		Stack: c.Stack.String(), Nodes: len(c.HALs), Fabric: c.Fabric.Stats(),
		Pool: pool.Stats(), PoolClasses: pool.ClassStats(),
	}
	for i := range c.HALs {
		nr := NodeReport{Node: i, Adapter: c.Adapters[i].Stats(), HAL: c.HALs[i].Stats()}
		if i < len(c.Pipes) {
			st := c.Pipes[i].Stats()
			nr.Pipes = &st
		}
		if i < len(c.LAPIs) {
			st := c.LAPIs[i].Stats()
			nr.LAPI = &st
		}
		if c.HALs[i].RdmaActive() {
			st := c.HALs[i].Rdma().Stats()
			nr.Rdma = &st
		}
		if i < len(c.Provs) {
			st := c.Provs[i].Stats()
			nr.Provider = &st
		}
		r.Per = append(r.Per, nr)
	}
	return r
}

// Counters is the compact run-counter record of one run: the protocol and
// fabric totals a sweep point and a chaos verdict carry, so a timing
// explains itself (a latency regression with a retransmit spike reads very
// differently from one without) and a rerun can be compared bit for bit.
type Counters struct {
	PacketsSent uint64 `json:"packetsSent"`
	Retransmits uint64 `json:"retransmits"`
	Injected    uint64 `json:"injected"`
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Duplicated  uint64 `json:"duplicated"`
	Reordered   uint64 `json:"reordered"`
	BytesWire   uint64 `json:"bytesWire"`
	// Reliability counters (all zero on a clean fabric; omitted from the
	// JSON then, so fault-free artifacts are byte-identical to ones
	// written before these fields existed).
	Timeouts     uint64 `json:"timeouts,omitempty"`
	Corrupted    uint64 `json:"corrupted,omitempty"`
	CorruptDrops uint64 `json:"corruptDrops,omitempty"`
	RouteMasked  uint64 `json:"routeMasked,omitempty"`
	NoRouteDrops uint64 `json:"noRouteDrops,omitempty"`
	StallDelays  uint64 `json:"stallDelays,omitempty"`
	FIFODrops    uint64 `json:"fifoDrops,omitempty"`
}

// Counters projects the report onto its run-counter record; a nil report
// (a cell that keeps no cluster) has all-zero counters.
func (r *Report) Counters() Counters {
	if r == nil {
		return Counters{}
	}
	return Counters{
		PacketsSent:  r.TotalPacketsSent(),
		Retransmits:  r.TotalRetransmits(),
		Injected:     r.Fabric.Injected,
		Delivered:    r.Fabric.Delivered,
		Dropped:      r.Fabric.Dropped,
		Duplicated:   r.Fabric.Duplicated,
		Reordered:    r.Fabric.Reordered,
		BytesWire:    r.Fabric.BytesWire,
		Timeouts:     r.TotalTimeouts(),
		Corrupted:    r.Fabric.Corrupted,
		CorruptDrops: r.TotalCorruptDrops(),
		RouteMasked:  r.Fabric.RouteMasked,
		NoRouteDrops: r.Fabric.NoRouteDrops,
		StallDelays:  r.TotalStallDelays(),
		FIFODrops:    r.TotalFIFODrops(),
	}
}

// TotalPacketsSent sums HAL packets across nodes.
func (r *Report) TotalPacketsSent() uint64 {
	var n uint64
	for _, p := range r.Per {
		n += p.HAL.PacketsSent
	}
	return n
}

// TotalRetransmits sums protocol retransmissions across nodes.
func (r *Report) TotalRetransmits() uint64 {
	var n uint64
	for _, p := range r.Per {
		if p.Pipes != nil {
			n += p.Pipes.Retransmits
		}
		if p.LAPI != nil {
			n += p.LAPI.Retransmits
		}
	}
	return n
}

// TotalTimeouts sums retransmission-timer expiries across nodes.
func (r *Report) TotalTimeouts() uint64 {
	var n uint64
	for _, p := range r.Per {
		if p.Pipes != nil {
			n += p.Pipes.Timeouts
		}
		if p.LAPI != nil {
			n += p.LAPI.Timeouts
		}
	}
	return n
}

// TotalCorruptDrops sums packets the HAL CRC check rejected across nodes.
func (r *Report) TotalCorruptDrops() uint64 {
	var n uint64
	for _, p := range r.Per {
		n += p.HAL.CorruptDrops
	}
	return n
}

// TotalStallDelays sums packets delayed by scripted adapter stalls.
func (r *Report) TotalStallDelays() uint64 {
	var n uint64
	for _, p := range r.Per {
		n += p.Adapter.StallDelays
	}
	return n
}

// TotalFIFODrops sums adapter receive-FIFO overflow drops across nodes.
func (r *Report) TotalFIFODrops() uint64 {
	var n uint64
	for _, p := range r.Per {
		n += p.Adapter.FIFODrops
	}
	return n
}

// WireOverheadRatio is bytes-on-wire divided by application payload
// delivered (1.0 would be a perfect, overhead-free transport).
func (r *Report) WireOverheadRatio() float64 {
	var payload uint64
	for _, p := range r.Per {
		if p.Pipes != nil {
			payload += p.Pipes.BytesDeliver
		}
		if p.Provider != nil && p.Pipes == nil {
			payload += p.Provider.BytesRecved
		}
	}
	if payload == 0 {
		return 0
	}
	return float64(r.Fabric.BytesWire) / float64(payload)
}

// Consistent verifies cross-layer conservation invariants, returning a
// non-nil error describing the first violation.
func (r *Report) Consistent() error {
	f := r.Fabric
	if f.Delivered+f.Dropped != f.Injected+f.Duplicated {
		return fmt.Errorf("fabric: delivered %d + dropped %d != injected %d + duplicated %d",
			f.Delivered, f.Dropped, f.Injected, f.Duplicated)
	}
	var adapterRecv, bypassed, halRecv, fifoDrops uint64
	for _, p := range r.Per {
		adapterRecv += p.Adapter.Received
		bypassed += p.Adapter.Bypassed
		halRecv += p.HAL.PacketsRecvd
		fifoDrops += p.Adapter.FIFODrops
	}
	// Every packet the fabric delivered either entered the receive FIFO,
	// was delivered straight to a protocol-bypass handler (the RDMA data
	// path), or was dropped at a full FIFO.
	if adapterRecv+bypassed+fifoDrops != f.Delivered {
		return fmt.Errorf("adapters received %d + bypassed %d + dropped %d != fabric delivered %d",
			adapterRecv, bypassed, fifoDrops, f.Delivered)
	}
	var crcDrops uint64
	for _, p := range r.Per {
		crcDrops += p.HAL.CorruptDrops
	}
	// CorruptDrops counts CRC failures on both the FIFO dispatch path and
	// the RDMA bypass path, so the bound covers both populations.
	if halRecv+crcDrops > adapterRecv+bypassed {
		return fmt.Errorf("HAL dispatched %d + CRC-dropped %d > adapters received %d + bypassed %d",
			halRecv, crcDrops, adapterRecv, bypassed)
	}
	if crcDrops > f.Corrupted+f.Duplicated {
		return fmt.Errorf("HAL CRC-dropped %d > fabric corrupted %d + duplicated %d",
			crcDrops, f.Corrupted, f.Duplicated)
	}
	return nil
}

// Print writes the report as an aligned table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "cluster report: stack=%s nodes=%d\n", r.Stack, r.Nodes)
	fmt.Fprintf(w, "  fabric: injected=%d delivered=%d dropped=%d dup=%d reordered=%d wire=%dB\n",
		r.Fabric.Injected, r.Fabric.Delivered, r.Fabric.Dropped, r.Fabric.Duplicated,
		r.Fabric.Reordered, r.Fabric.BytesWire)
	if r.Fabric.Corrupted+r.Fabric.RouteMasked+r.Fabric.NoRouteDrops+
		r.TotalCorruptDrops()+r.TotalStallDelays()+r.TotalTimeouts() > 0 {
		fmt.Fprintf(w, "  faults: corrupted=%d crcDrops=%d routeMasked=%d noRoute=%d stalls=%d timeouts=%d\n",
			r.Fabric.Corrupted, r.TotalCorruptDrops(), r.Fabric.RouteMasked,
			r.Fabric.NoRouteDrops, r.TotalStallDelays(), r.TotalTimeouts())
	}
	fmt.Fprintf(w, "  wire overhead ratio: %.3f\n", r.WireOverheadRatio())
	if r.Pool.Gets > 0 {
		fmt.Fprintf(w, "  bufpool: gets=%d hits=%d (%.1f%%) puts=%d foreign=%d inflight=%d\n",
			r.Pool.Gets, r.Pool.Hits, 100*float64(r.Pool.Hits)/float64(r.Pool.Gets),
			r.Pool.Puts, r.Pool.Foreign, r.Pool.InFlight)
		for _, cs := range r.PoolClasses {
			hitPct := 0.0
			if cs.Gets > 0 {
				hitPct = 100 * float64(cs.Hits) / float64(cs.Gets)
			}
			fmt.Fprintf(w, "    class %7dB: gets=%d hits=%d (%.1f%%) puts=%d free=%d\n",
				cs.Size, cs.Gets, cs.Hits, hitPct, cs.Puts, cs.Free)
		}
	}
	for _, p := range r.Per {
		fmt.Fprintf(w, "  node %d: hal sent=%d recvd=%d intr=%d fifoDrops=%d crcDrops=%d stalls=%d",
			p.Node, p.HAL.PacketsSent, p.HAL.PacketsRecvd, p.Adapter.Interrupts,
			p.Adapter.FIFODrops, p.HAL.CorruptDrops, p.Adapter.StallDelays)
		if p.Adapter.Bypassed > 0 {
			fmt.Fprintf(w, " bypass=%d", p.Adapter.Bypassed)
		}
		fmt.Fprintln(w)
		if p.Pipes != nil {
			fmt.Fprintf(w, "          pipes rtx=%d timeouts=%d dups=%d acks=%d ooo=%d stalls=%d\n",
				p.Pipes.Retransmits, p.Pipes.Timeouts, p.Pipes.DupsDropped, p.Pipes.AcksSent, p.Pipes.OutOfOrder, p.Pipes.WindowStalls)
		}
		if p.LAPI != nil {
			fmt.Fprintf(w, "          lapi msgs=%d rtx=%d timeouts=%d hdrHdl=%d cmplThr=%d cmplInl=%d cntrUpd=%d\n",
				p.LAPI.MsgsSent, p.LAPI.Retransmits, p.LAPI.Timeouts, p.LAPI.HdrHandlers, p.LAPI.CmplThreaded, p.LAPI.CmplInline, p.LAPI.CounterUpdates)
		}
		if p.Rdma != nil {
			fmt.Fprintf(w, "          rdma reg=%d regHits=%d dereg=%d reads=%d chunks=%d crcDrops=%d retries=%d stale=%d\n",
				p.Rdma.Registrations, p.Rdma.CacheHits, p.Rdma.Deregistrations, p.Rdma.Reads, p.Rdma.DataPackets, p.Rdma.CrcDrops, p.Rdma.Retries, p.Rdma.StaleDrops)
		}
		if p.Provider != nil {
			fmt.Fprintf(w, "          mpci eager=%d rdv=%d matched=%d unexpected=%d\n",
				p.Provider.EagerSends, p.Provider.RdvSends, p.Provider.Matched, p.Provider.Unexpected)
		}
	}
}
