// Package cluster assembles a simulated IBM RS/6000 SP system: N nodes with
// adapters on a switch fabric, each running one MPI task over a chosen
// protocol stack, and runs SPMD programs on it under the discrete-event
// engine.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"splapi/internal/adapter"
	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/pipes"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
	"splapi/internal/tracelog"
)

// Stack selects the protocol stack of Figure 1 (plus the Section 5 MPI-LAPI
// designs). Its value is the mpci provider-registry name, except RawLAPI,
// which builds no MPCI at all.
type Stack string

// Available stacks.
const (
	// Native is MPI / MPCI / Pipes / HAL (Figure 1a).
	Native Stack = "native"
	// LAPIBase is MPI / new MPCI / LAPI / HAL with threaded completion
	// handlers (the Section 4 base design).
	LAPIBase Stack = "mpi-lapi-base"
	// LAPICounters avoids completion handlers for eager messages using
	// exchanged counters (Section 5.2).
	LAPICounters Stack = "mpi-lapi-counters"
	// LAPIEnhanced uses the enhanced LAPI with same-context predefined
	// completion handlers (Section 5.3).
	LAPIEnhanced Stack = "mpi-lapi-enhanced"
	// RDMA is the enhanced MPI-LAPI with the zero-copy RDMA-read
	// rendezvous (needs Params.RdmaSupported).
	RDMA Stack = "rdma"
	// RawLAPI builds only the LAPI endpoints (no MPCI); benchmarks use it
	// to measure bare LAPI performance as in Figure 10.
	RawLAPI Stack = "raw-lapi"
)

func (s Stack) String() string { return string(s) }

// Config describes the system to build.
type Config struct {
	Nodes int
	Stack Stack
	Seed  int64
	// Params is the cost model; zero value means machine.SP332().
	Params *machine.Params
	// Interrupts arms packet-arrival interrupts on every node.
	Interrupts bool
	// Trace, when non-nil, receives a typed event at every layer boundary
	// of every node. Tracing is purely observational: it schedules no
	// events and consumes no randomness, so virtual-time results are
	// identical with it on or off.
	Trace *tracelog.Log
	// Shards partitions the nodes across that many engine shards running
	// epoch-synchronized in parallel (see sim.ShardGroup). 0 or 1 builds
	// the serial engine. Virtual-time results are bit-identical at every
	// shard count; only wall-clock changes. Clamped to Nodes.
	Shards int
	// ShardOf overrides the default contiguous partition with an explicit
	// node->shard map (len Nodes, entries in [0, Shards)). Used by the
	// partition-invariance property tests; most callers leave it nil.
	ShardOf []int
}

// Cluster is a built system.
type Cluster struct {
	// Eng is the engine of shard 0 — the only engine when serial. Node i
	// runs on Engines[ShardOf[i]]; job-wide readings (Now, pool stats)
	// must aggregate over Engines.
	Eng      *sim.Engine
	Engines  []*sim.Engine
	Group    *sim.ShardGroup // nil when serial
	ShardOf  []int           // node -> shard (all zero when serial)
	Par      *machine.Params
	Stack    Stack
	Fabric   *switchnet.Fabric
	Adapters []*adapter.Adapter
	HALs     []*hal.HAL
	Pipes    []*pipes.Pipes
	LAPIs    []*lapi.LAPI
	Provs    []mpci.Provider
	Barrier  sim.JobBarrier
	// trace is the caller's log; shardLogs are the per-shard rings merged
	// into it after Run (canonical (T, Node) order).
	trace     *tracelog.Log
	shardLogs []*tracelog.Log
}

// shardSeed derives shard seeds from the root seed and the shard's
// topology position — its first owned node — never from the shard count,
// so a node's RNG stream depends only on where the partition boundary
// falls, and the shard holding node 0 replays the serial stream exactly.
func shardSeed(root int64, firstNode int) int64 {
	if firstNode == 0 {
		return root
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(root))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(firstNode))
	h.Write(b[:])
	return int64(h.Sum64())
}

// partition resolves cfg's shard layout: the node->shard map and the
// shard count actually used.
func partition(cfg *Config) ([]int, int) {
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > cfg.Nodes {
		shards = cfg.Nodes
	}
	if cfg.ShardOf == nil {
		return switchnet.Partition(cfg.Nodes, shards), shards
	}
	if len(cfg.ShardOf) != cfg.Nodes {
		panic("cluster: ShardOf must map every node")
	}
	max := 0
	for _, s := range cfg.ShardOf {
		if s < 0 {
			panic("cluster: negative ShardOf entry")
		}
		if s > max {
			max = s
		}
	}
	if cfg.Shards > 0 && max >= cfg.Shards {
		panic("cluster: ShardOf entry out of range")
	}
	return cfg.ShardOf, max + 1
}

// New builds a cluster per cfg.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	par := cfg.Params
	if par == nil {
		p := machine.SP332()
		par = &p
	}
	shardOf, shards := partition(&cfg)
	c := &Cluster{
		Par:     par,
		Stack:   cfg.Stack,
		ShardOf: shardOf,
		trace:   cfg.Trace,
	}

	// Per-node wiring targets: engine and trace log by node.
	engOf := make([]*sim.Engine, cfg.Nodes)
	trOf := make([]*tracelog.Log, cfg.Nodes)
	if shards <= 1 {
		eng := sim.NewEngine(cfg.Seed)
		c.Eng = eng
		c.Engines = []*sim.Engine{eng}
		c.Fabric = switchnet.New(eng, par, cfg.Nodes)
		c.Barrier = sim.NewBarrier(cfg.Nodes)
		c.Fabric.SetTrace(cfg.Trace)
		for i := range engOf {
			engOf[i] = eng
			trOf[i] = cfg.Trace
		}
	} else {
		seeds := make([]int64, shards)
		first := make([]int, shards)
		for s := range first {
			first[s] = -1
		}
		for node, s := range shardOf {
			if first[s] < 0 {
				first[s] = node
			}
		}
		for s := range seeds {
			if first[s] < 0 {
				// A shard the partition left empty: it idles, but still
				// needs a seed derived from a stable position.
				first[s] = cfg.Nodes + s
			}
			seeds[s] = shardSeed(cfg.Seed, first[s])
		}
		c.Group = sim.NewShardGroup(seeds, switchnet.Lookahead(par))
		c.Engines = c.Group.Engines()
		c.Eng = c.Engines[0]
		c.Fabric = switchnet.NewSharded(c.Group, par, cfg.Nodes, shardOf)
		c.Barrier = c.Group.NewBarrier(cfg.Nodes)
		for i := range engOf {
			engOf[i] = c.Engines[shardOf[i]]
		}
		if cfg.Trace != nil {
			c.shardLogs = make([]*tracelog.Log, shards)
			for s := range c.shardLogs {
				tl := tracelog.New(cfg.Trace.Cap())
				tl.SetShard(s)
				c.shardLogs[s] = tl
				c.Fabric.SetTraceFor(s, tl)
			}
			c.Group.SetEpochHook(func(shard int, epoch int64) {
				c.shardLogs[shard].SetEpoch(epoch)
			})
			for i := range trOf {
				trOf[i] = c.shardLogs[shardOf[i]]
			}
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		eng := engOf[i]
		ad := adapter.New(eng, par, c.Fabric, i)
		ad.SetTrace(trOf[i])
		h := hal.New(eng, par, ad)
		// The HAL carries the log for the whole node: stacked layers fetch
		// it in their constructors, so it must be attached before them.
		h.SetTrace(trOf[i])
		c.Adapters = append(c.Adapters, ad)
		c.HALs = append(c.HALs, h)
		if cfg.Stack == RawLAPI {
			l := lapi.New(eng, par, h, cfg.Nodes, lapi.Inline)
			l.SetTrace(trOf[i])
			c.LAPIs = append(c.LAPIs, l)
		} else {
			f, ok := mpci.Lookup(string(cfg.Stack))
			if !ok {
				panic(fmt.Sprintf("cluster: unknown stack %q", cfg.Stack))
			}
			ns := f.Build(f.Caps, eng, par, h, cfg.Nodes, c.Barrier)
			if ns.Pipes != nil {
				c.Pipes = append(c.Pipes, ns.Pipes)
			}
			if ns.LAPI != nil {
				c.LAPIs = append(c.LAPIs, ns.LAPI)
			}
			c.Provs = append(c.Provs, ns.Prov)
		}
		if cfg.Interrupts {
			h.EnableInterrupts(true)
		}
	}
	return c
}

// Shards returns the number of engine shards (1 when serial).
func (c *Cluster) Shards() int { return len(c.Engines) }

// Now returns the job's virtual time: the serial engine's clock, or the
// maximum shard clock, which at quiescence equals the serial value.
func (c *Cluster) Now() sim.Time {
	if c.Group != nil {
		return c.Group.Now()
	}
	return c.Eng.Now()
}

// Spawn starts fn as rank's task process on the rank's own shard.
func (c *Cluster) Spawn(rank int, fn func(p *sim.Proc)) {
	c.Engines[c.ShardOf[rank]].Spawn(fmt.Sprintf("rank-%d", rank), fn)
}

// Run spawns fn on every rank and runs the engine(s) to quiescence (or the
// horizon, if positive). It returns the final virtual time. With tracing
// on, a sharded run merges the per-shard rings into cfg.Trace in canonical
// (T, Node) order before returning.
func (c *Cluster) Run(horizon sim.Time, fn func(p *sim.Proc, rank int)) sim.Time {
	for r := 0; r < len(c.HALs); r++ {
		r := r
		c.Spawn(r, func(p *sim.Proc) { fn(p, r) })
	}
	if c.Group != nil {
		c.Group.Run(horizon)
		if c.shardLogs != nil {
			tracelog.Merge(c.trace, c.shardLogs)
		}
	} else {
		c.Eng.Run(horizon)
	}
	return c.Now()
}

// RunMPI spawns an SPMD function per rank with its MPCI provider.
func (c *Cluster) RunMPI(horizon sim.Time, fn func(p *sim.Proc, prov mpci.Provider)) sim.Time {
	if c.Provs == nil {
		panic("cluster: stack has no MPCI provider (RawLAPI)")
	}
	return c.Run(horizon, func(p *sim.Proc, rank int) { fn(p, c.Provs[rank]) })
}
