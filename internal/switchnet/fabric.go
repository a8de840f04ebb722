// Package switchnet models the SP's high-performance multistage
// packet-switched switch.
//
// The model keeps the properties the paper's protocols depend on:
//
//   - four routes between every ordered node pair, selected round-robin, so
//     consecutive packets of one message travel different routes;
//   - per-route occupancy (congestion) plus a per-route latency skew, so
//     packets genuinely arrive out of order and receivers must resequence or
//     reassemble by offset;
//   - finite bandwidth: each packet occupies its route for its serialization
//     time;
//   - scripted fault injection (internal/faults): time-windowed drop,
//     duplicate and corrupt bursts, plus per-route link outages with
//     failover onto the surviving routes.
//
// The fabric itself is unreliable and unordered; reliability is the job of
// the Pipes layer (native stack) and of LAPI's transport (new stack),
// exactly as on the real machine.
//
// A fabric can span a sim.ShardGroup (NewSharded): every piece of its
// state is owned by exactly one shard — route occupancy, round-robin
// cursors and injection sequences by the sender's shard, the reorder
// tracker by the receiver's shard — and deliveries cross shards through
// Engine.Post, whose epoch mailbox keeps virtual timestamps independent of
// goroutine scheduling. Since the switch base latency is a lower bound on
// every packet's flight time, it is the group's conservative lookahead
// (see Lookahead).
package switchnet

import (
	"fmt"
	"hash/crc32"

	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// Packet is one switch packet. Payload carries the upper-layer protocol
// header and user data as real bytes; Wire is the total size serialized on
// the wire (payload plus link framing).
type Packet struct {
	Src, Dst int
	Payload  []byte
	Wire     int
	// Route is filled in by the fabric for observability.
	Route int
	// CRC is the payload checksum the fabric stamps at injection when the
	// fault plan may corrupt packets; Checked marks it valid. The HAL
	// verifies it before dispatch so in-transit corruption is detected,
	// never silently delivered. Both live only in the simulator's packet
	// record — the real link CRC is part of LinkFrameBytes, so modelling
	// it adds no wire bytes and moves no virtual-time result.
	CRC     uint32
	Checked bool
	// seq is the per-ordered-pair injection sequence number, used for
	// reorder stats. Per pair (not global) so it is identical whether the
	// fabric runs serial or sharded.
	seq uint64
}

// Seq exposes the injection sequence number for observability (0 before
// the packet enters the fabric).
func (pk *Packet) Seq() uint64 { return pk.seq }

func (pk *Packet) String() string {
	return fmt.Sprintf("pkt{%d->%d route=%d wire=%dB}", pk.Src, pk.Dst, pk.Route, pk.Wire)
}

// Stats are cumulative fabric counters.
type Stats struct {
	Injected   uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	// Reordered counts deliveries whose injection sequence number is lower
	// than an earlier delivery for the same ordered pair.
	Reordered uint64
	BytesWire uint64
	// Corrupted counts packets whose payload the fault plan flipped a
	// byte of (they still transit; the HAL CRC check drops them).
	Corrupted uint64
	// RouteMasked counts failovers: a packet's round-robin route was down
	// and the fabric advanced to the next one.
	RouteMasked uint64
	// NoRouteDrops counts packets dropped because every route of their
	// pair was down (included in Dropped).
	NoRouteDrops uint64
}

func (s *Stats) add(o *Stats) {
	s.Injected += o.Injected
	s.Delivered += o.Delivered
	s.Dropped += o.Dropped
	s.Duplicated += o.Duplicated
	s.Reordered += o.Reordered
	s.BytesWire += o.BytesWire
	s.Corrupted += o.Corrupted
	s.RouteMasked += o.RouteMasked
	s.NoRouteDrops += o.NoRouteDrops
}

// pair is the fabric's state for one ordered (src, dst) pair. Each shard
// holds the whole n*n table, indexed src*n+dst and built at construction
// so the packet path never allocates or hashes, but touches only the half
// of an entry it owns: the sender half on Src's shard, the receiver half
// on Dst's.
type pair struct {
	// Sender half: when each route is next free (a window of the shard's
	// flat occupancy array), the round-robin cursor, and the injection
	// sequence counter.
	freeAt    []sim.Time
	nextRoute int
	seq       uint64
	// Receiver half: the reorder tracker, the highest injection sequence
	// delivered so far.
	last uint64
}

// fabShard is the slice of fabric state owned by one shard. Everything in
// it is touched only from that shard's engine context, so shard windows
// never contend and never race.
type fabShard struct {
	eng   *sim.Engine
	inj   *faults.Injector
	tr    *tracelog.Log
	pairs []pair
	stats Stats
}

// Fabric connects N ports. Delivery callbacks run in engine context at the
// packet's arrival time — on the destination node's shard when sharded —
// and must not block.
type Fabric struct {
	par     *machine.Params
	n       int
	shardOf []int // node -> shard index
	sh      []*fabShard
	deliver []func(*Packet)
}

// New creates a serial fabric with n ports using the given cost model. The
// fault plan on par compiles into the fabric's injector here; an empty
// plan costs one nil test per packet.
func New(eng *sim.Engine, par *machine.Params, n int) *Fabric {
	if n < 1 {
		panic("switchnet: need at least one port")
	}
	f := &Fabric{
		par:     par,
		n:       n,
		shardOf: make([]int, n),
		deliver: make([]func(*Packet), n),
	}
	f.sh = []*fabShard{newFabShard(eng, par, n)}
	return f
}

// NewSharded creates a fabric spanning the group's engines. shardOf maps
// every node to its owning shard; each shard gets its own fault injector,
// drawing from that shard's private RNG stream (scripted, randomness-free
// plans behave identically at any shard count; probabilistic plans are
// deterministic per (seed, partition)).
func NewSharded(group *sim.ShardGroup, par *machine.Params, n int, shardOf []int) *Fabric {
	if n < 1 {
		panic("switchnet: need at least one port")
	}
	if len(shardOf) != n {
		panic("switchnet: shardOf must map every node")
	}
	engs := group.Engines()
	f := &Fabric{
		par:     par,
		n:       n,
		shardOf: shardOf,
		deliver: make([]func(*Packet), n),
		sh:      make([]*fabShard, len(engs)),
	}
	for i, e := range engs {
		f.sh[i] = newFabShard(e, par, n)
	}
	for _, s := range shardOf {
		if s < 0 || s >= len(engs) {
			panic("switchnet: shardOf entry out of range")
		}
	}
	return f
}

func newFabShard(eng *sim.Engine, par *machine.Params, n int) *fabShard {
	sh := &fabShard{eng: eng, inj: faults.NewInjector(eng, par.Faults), pairs: make([]pair, n*n)}
	r := par.RoutesPerPair
	freeAt := make([]sim.Time, n*n*r)
	for i := range sh.pairs {
		sh.pairs[i].freeAt = freeAt[i*r : (i+1)*r : (i+1)*r]
	}
	return sh
}

// Lookahead returns the conservative cross-shard lookahead of the cost
// model: the switch base latency, a lower bound on every packet's flight
// time (serialization and route skew only add to it).
func Lookahead(par *machine.Params) sim.Time {
	if par.SwitchBaseLatency <= 0 {
		panic("switchnet: sharding needs a positive SwitchBaseLatency lookahead")
	}
	return par.SwitchBaseLatency
}

// Partition maps nodes onto shards in contiguous blocks, remainder spread
// over the leading shards. shards is clamped to nodes.
func Partition(nodes, shards int) []int {
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	out := make([]int, nodes)
	base, rem := nodes/shards, nodes%shards
	node := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		for i := 0; i < size; i++ {
			out[node] = s
			node++
		}
	}
	return out
}

// shardFor returns the fabric state owned by node's shard.
func (f *Fabric) shardFor(node int) *fabShard { return f.sh[f.shardOf[node]] }

// InjectorFor exposes the compiled fault injector of node's shard (nil for
// a clean fabric) so the adapters share their shard's script.
func (f *Fabric) InjectorFor(node int) *faults.Injector { return f.shardFor(node).inj }

// Stats returns the cumulative counters summed over all shards. Must be
// called when no shard window is running (serial context, or after Run).
func (f *Fabric) Stats() Stats {
	var out Stats
	for _, sh := range f.sh {
		out.add(&sh.stats)
	}
	return out
}

// SetTrace attaches one event log to every shard (nil disables tracing).
// Sharded runs wanting race-free tracing should use SetTraceFor instead.
func (f *Fabric) SetTrace(tl *tracelog.Log) {
	for _, sh := range f.sh {
		sh.tr = tl
	}
}

// SetTraceFor attaches an event log to one shard's slice of the fabric.
func (f *Fabric) SetTraceFor(shard int, tl *tracelog.Log) { f.sh[shard].tr = tl }

// AttachPort registers the delivery callback for a node. It must be called
// once per node before any traffic is sent to it.
func (f *Fabric) AttachPort(node int, deliver func(*Packet)) {
	if f.deliver[node] != nil {
		panic(fmt.Sprintf("switchnet: port %d attached twice", node))
	}
	f.deliver[node] = deliver
}

// Send transports pkt from its source to its destination. ready is the time
// the packet finishes injection at the source port (the fabric starts
// transit no earlier). Must be called in the source node's simulation
// context.
//
// The packet transits the route selected round-robin for the ordered pair:
// it waits for the route to be free, occupies it for its serialization time,
// and arrives after the switch base latency plus the route's skew. Fault
// injection may drop or duplicate it.
func (f *Fabric) Send(pkt *Packet, ready sim.Time) {
	if pkt.Src < 0 || pkt.Src >= f.n || pkt.Dst < 0 || pkt.Dst >= f.n {
		panic(fmt.Sprintf("switchnet: bad endpoints %d->%d", pkt.Src, pkt.Dst))
	}
	sh := f.shardFor(pkt.Src)
	// Snapshot the payload at the injection boundary: delivery happens at a
	// future virtual time, and the sender is free to reuse or rewrite its
	// buffer meanwhile (the LAPI flow layer re-stamps piggybacked acks into
	// the same bytes on every retransmission). Without the copy, a packet
	// still transiting the switch would retroactively change content. The
	// snapshot comes from the sender shard's pool; ownership transfers to
	// the in-flight packet and returns to a pool at the delivery or drop
	// point (possibly the receiver shard's — BufPool.Put accepts foreign
	// class-capacity buffers).
	pkt.Payload = sh.eng.Pool().Snapshot(pkt.Payload)
	if pkt.Wire < len(pkt.Payload) {
		pkt.Wire = len(pkt.Payload) + f.par.LinkFrameBytes
	}
	ps := &sh.pairs[pkt.Src*f.n+pkt.Dst]
	pkt.seq = ps.seq
	ps.seq++
	sh.stats.Injected++
	sh.stats.BytesWire += uint64(pkt.Wire)
	sh.tr.Emit(sh.eng.Now(), tracelog.LFabric, tracelog.KInject, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)

	now := sh.eng.Now()
	if sh.inj.Drop(now, pkt.Src, pkt.Dst) {
		sh.stats.Dropped++
		sh.tr.Emit(now, tracelog.LFabric, tracelog.KDrop, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)
		sh.eng.Pool().Put(pkt.Payload)
		return
	}

	if sh.inj.MayCorrupt() {
		// Stamp the link CRC before corruption can strike, so the HAL
		// check fails on exactly the packets the plan damaged.
		pkt.CRC = crc32.ChecksumIEEE(pkt.Payload)
		pkt.Checked = true
		if sh.inj.Corrupt(now, pkt.Src, pkt.Dst) {
			idx := sh.inj.CorruptBytes(pkt.Payload)
			sh.stats.Corrupted++
			sh.tr.Emit(now, tracelog.LFabric, tracelog.KCorrupt, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(idx))
		}
	}

	// The duplicate decision and its snapshot both happen before the
	// first transit: transit consumes no randomness (so the RNG stream
	// order matches the retired DropProb/DupProb fabric), but it may
	// drop the packet when every route is down, returning the payload to
	// the pool — the duplicate must copy the bytes while they are alive.
	var dup *Packet
	if sh.inj.Dup(now, pkt.Src, pkt.Dst) {
		sh.stats.Duplicated++
		sh.tr.Emit(now, tracelog.LFabric, tracelog.KDup, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)
		// The duplicate carries its own copy of the snapshot so the two
		// deliveries never alias each other's bytes.
		dup = &Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: sh.eng.Pool().Snapshot(pkt.Payload), Wire: pkt.Wire, CRC: pkt.CRC, Checked: pkt.Checked, seq: pkt.seq}
	}

	f.transit(sh, pkt, ready)

	if dup != nil {
		// The duplicate takes another trip slightly later, as if
		// retransmitted by a confused link-level retry.
		f.transit(sh, dup, ready+f.par.SwitchBaseLatency)
	}
}

func (f *Fabric) transit(sh *fabShard, pkt *Packet, ready sim.Time) {
	now := sh.eng.Now()
	if ready < now {
		ready = now
	}
	ps := &sh.pairs[pkt.Src*f.n+pkt.Dst]
	r := ps.nextRoute
	if sh.inj.MasksRoutes() {
		// Failover: skip routes scripted down, keeping round-robin order
		// over the survivors. With every route down the packet has
		// nowhere to go and the switch discards it.
		skipped := 0
		for skipped < len(ps.freeAt) && sh.inj.RouteDown(now, pkt.Src, pkt.Dst, r) {
			sh.stats.RouteMasked++
			sh.tr.Emit(now, tracelog.LFabric, tracelog.KRouteMask, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(r))
			r = (r + 1) % len(ps.freeAt)
			skipped++
		}
		if skipped == len(ps.freeAt) {
			sh.stats.Dropped++
			sh.stats.NoRouteDrops++
			sh.tr.Emit(now, tracelog.LFabric, tracelog.KNoRoute, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(len(ps.freeAt)))
			//simlint:allow bufpoolown ownership transfer: the in-flight packet owns the snapshot Send took, and a no-route drop is its delivery point
			sh.eng.Pool().Put(pkt.Payload)
			return
		}
	}
	ps.nextRoute = (r + 1) % len(ps.freeAt)
	pkt.Route = r

	start := max(ready, ps.freeAt[r])
	ser := f.par.WireTime(pkt.Wire)
	ps.freeAt[r] = start + ser
	arrival := start + ser + f.par.SwitchBaseLatency + sim.Time(r)*f.par.RouteSkew
	sh.tr.Emit(sh.eng.Now(), tracelog.LFabric, tracelog.KWire, pkt.Src, pkt.Dst, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, int64(arrival-start))

	// Delivery runs on the destination's shard. Post is plain At when the
	// destination is local (or the fabric is serial); across shards the
	// arrival is at least one switch base latency away — the lookahead —
	// so it buffers through the group's epoch mailbox.
	dsh := f.shardFor(pkt.Dst)
	sh.eng.Post(dsh.eng, arrival, func() {
		dsh.stats.Delivered++
		dsh.tr.Emit(dsh.eng.Now(), tracelog.LFabric, tracelog.KDeliver, pkt.Dst, pkt.Src, tracelog.PacketID(pkt.Src, pkt.Dst, pkt.seq), pkt.Wire, 0)
		if last := &dsh.pairs[pkt.Src*f.n+pkt.Dst].last; pkt.seq < *last {
			dsh.stats.Reordered++
		} else {
			*last = pkt.seq
		}
		if cb := f.deliver[pkt.Dst]; cb != nil {
			cb(pkt)
		}
	})
}
