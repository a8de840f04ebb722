package main

import (
	"fmt"
	"runtime"

	"splapi/internal/adapter"
	"splapi/internal/cluster"
	"splapi/internal/hal"
	"splapi/internal/lapi"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/pipes"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
)

// The entry ladder sends the same traffic between two nodes entered at
// successively higher layers. A layer's self time is its rung minus the
// rung directly below it on the same path, so the rungs telescope to the
// MPI rung by construction. It is an estimate: lower rungs replay only the
// data packets (Params.PacketsFor(size) full packets per message), not the
// acknowledgements, header packets and barriers the upper layers add, so
// that traffic is charged to the layer that first causes it.

// traffic is one ladder load. Ping-pong loads make rounds round trips of
// size bytes; stream loads send msgs messages one way and one ack back.
type traffic struct {
	name   string
	size   int
	rounds int // ping-pong when > 0
	msgs   int // stream when > 0
}

// messages is the number of size-byte messages the load moves.
func (t traffic) messages() int {
	if t.rounds > 0 {
		return 2 * t.rounds
	}
	return t.msgs
}

func ladderTraffic(sc scale) []traffic {
	if sc.smoke {
		return []traffic{{name: "64B", size: 64, rounds: 3}, {name: "64KiB", size: 64 << 10, msgs: 5}}
	}
	return []traffic{{name: "64B", size: 64, rounds: 200}, {name: "64KiB", size: 64 << 10, msgs: 64}}
}

// ladderProto is the HAL protocol byte of the bare-HAL rung.
const ladderProto byte = 9

// pair is two nodes built by hand up to the HAL, exactly as cluster.New
// wires them.
type pair struct {
	eng *sim.Engine
	par *machine.Params
	fab *switchnet.Fabric
	ad  [2]*adapter.Adapter
	h   [2]*hal.HAL
}

func newPair(withAdapters, withHALs bool) *pair {
	par := paperParams()
	n := &pair{eng: sim.NewEngine(1), par: &par}
	n.fab = switchnet.New(n.eng, n.par, 2)
	if withAdapters {
		for i := range n.ad {
			n.ad[i] = adapter.New(n.eng, n.par, n.fab, i)
			if withHALs {
				n.h[i] = hal.New(n.eng, n.par, n.ad[i])
			}
		}
	}
	return n
}

// packets returns how many full packets carry one message at the rungs
// below the transports, and the payload of each.
func (n *pair) packets(t traffic) (int, []byte) {
	size := t.size
	if size > n.par.PacketPayload {
		size = n.par.PacketPayload
	}
	pkt := make([]byte, size)
	pkt[0] = ladderProto
	return n.par.PacketsFor(t.size), pkt
}

// packetLoad drives the packet-level rungs: send injects one packet from a
// node in engine context; arrived must be called once per packet that
// reaches a node; done reports whether all the traffic got through.
func packetLoad(n *pair, t traffic, send func(from int)) (start func(), arrived func(at int), done func() bool) {
	per, _ := n.packets(t)
	if t.rounds > 0 {
		left := 2 * t.rounds * per
		return func() { send(0) }, func(at int) {
			if left--; left > 0 {
				send(at)
			}
		}, func() bool { return left == 0 }
	}
	want, acked := t.msgs*per, false
	return func() {
			for i := 0; i < want; i++ {
				send(0)
			}
		}, func(at int) {
			if at == 0 {
				acked = true
			} else if want--; want == 0 {
				send(1) // the ack
			}
		}, func() bool { return acked }
}

// Every rung returns whether its traffic completed: a rung that lost a
// packet would otherwise quiesce early and read as a fast one.

func rungFabric(t traffic) bool {
	n := newPair(false, false)
	_, pkt := n.packets(t)
	send := func(from int) {
		n.fab.Send(&switchnet.Packet{Src: from, Dst: 1 - from, Payload: pkt}, n.eng.Now())
	}
	start, arrived, done := packetLoad(n, t, send)
	for i := 0; i < 2; i++ {
		n.fab.AttachPort(i, func(pk *switchnet.Packet) {
			n.eng.Pool().Put(pk.Payload)
			arrived(i)
		})
	}
	n.eng.At(0, start)
	n.eng.Run(0)
	return done()
}

func rungAdapter(t traffic) bool {
	n := newPair(true, false)
	_, pkt := n.packets(t)
	send := func(from int) {
		n.ad[from].Send(&switchnet.Packet{Src: from, Dst: 1 - from, Payload: pkt})
	}
	start, arrived, done := packetLoad(n, t, send)
	for i := 0; i < 2; i++ {
		n.ad[i].SetEnqueueCallback(func() {
			for {
				pk, ok := n.ad[i].Dequeue()
				if !ok {
					return
				}
				n.eng.Pool().Put(pk.Payload)
				arrived(i)
			}
		})
	}
	n.eng.At(0, start)
	n.eng.Run(0)
	return done()
}

// procLoad drives the rungs that need a process per node: send moves one
// message (blocking as the layer blocks), wait drives progress until the
// node has received count messages in total.
func procLoad(eng *sim.Engine, t traffic, send func(p *sim.Proc, from int), wait func(p *sim.Proc, at, count int)) bool {
	finished := 0
	eng.Spawn("ladder-0", func(p *sim.Proc) {
		if t.rounds > 0 {
			for i := 1; i <= t.rounds; i++ {
				send(p, 0)
				wait(p, 0, i)
			}
		} else {
			for i := 0; i < t.msgs; i++ {
				send(p, 0)
			}
			wait(p, 0, 1)
		}
		finished++
	})
	eng.Spawn("ladder-1", func(p *sim.Proc) {
		if t.rounds > 0 {
			for i := 1; i <= t.rounds; i++ {
				wait(p, 1, i)
				send(p, 1)
			}
		} else {
			wait(p, 1, t.msgs)
			send(p, 1)
		}
		finished++
	})
	eng.Run(0)
	return finished == 2
}

func rungHAL(t traffic) bool {
	n := newPair(true, true)
	per, pkt := n.packets(t)
	var got [2]int
	for i := 0; i < 2; i++ {
		n.h[i].RegisterProto(ladderProto, func(*sim.Proc, int, []byte) { got[i]++ })
	}
	return procLoad(n.eng, t,
		func(p *sim.Proc, from int) {
			k := per
			if t.msgs > 0 && from == 1 {
				k = 1 // the ack
			}
			for ; k > 0; k-- {
				n.h[from].Send(p, 1-from, pkt)
			}
		},
		func(p *sim.Proc, at, count int) {
			if t.msgs > 0 && at == 1 || t.rounds > 0 {
				count *= per
			}
			n.h[at].ProgressWait(p, func() bool { return got[at] >= count })
		})
}

func rungPipes(t traffic) bool {
	n := newPair(true, true)
	var pp [2]*pipes.Pipes
	var got [2]int
	for i := 0; i < 2; i++ {
		pp[i] = pipes.New(n.eng, n.par, n.h[i], 2)
		pp[i].SetDeliver(func(_ *sim.Proc, _ int, data []byte) { got[i] += len(data) })
	}
	msg := make([]byte, t.size)
	return procLoad(n.eng, t,
		func(p *sim.Proc, from int) {
			if t.msgs > 0 && from == 1 {
				pp[1].Write(p, 0, msg[:1]) // the ack
				return
			}
			pp[from].Write(p, 1-from, msg)
		},
		func(p *sim.Proc, at, count int) {
			bytes := count * t.size
			if t.msgs > 0 && at == 0 {
				bytes = 1
			}
			n.h[at].ProgressWait(p, func() bool { return got[at] >= bytes })
		})
}

func rungLAPI(t traffic) bool {
	n := newPair(true, true)
	var l [2]*lapi.LAPI
	var arrived [2]*lapi.Counter
	var bufID, cntrID [2]int
	for i := 0; i < 2; i++ {
		l[i] = lapi.New(n.eng, n.par, n.h[i], 2, lapi.Inline)
		bufID[i] = l[i].RegisterBuffer(make([]byte, t.size))
		arrived[i] = l[i].NewCounter()
		cntrID[i] = l[i].RegisterCounter(arrived[i])
	}
	msg := make([]byte, t.size)
	var seen [2]int
	return procLoad(n.eng, t,
		func(p *sim.Proc, from int) {
			data := msg
			if t.msgs > 0 && from == 1 {
				data = msg[:1] // the ack
			}
			l[from].Put(p, 1-from, bufID[1-from], 0, data, cntrID[1-from], l[from].NewCounter(), -1)
		},
		func(p *sim.Proc, at, count int) {
			arrived[at].Wait(p, count-seen[at])
			seen[at] = count
		})
}

func rungMPCI(provider string) func(t traffic) bool {
	return func(t traffic) bool {
		par := paperParams()
		c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.Stack(provider), Seed: 1, Params: &par})
		msg := make([]byte, t.size)
		finished := 0
		c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
			defer func() { finished++ }()
			me, other := prov.Rank(), 1-prov.Rank()
			rbuf := make([]byte, t.size)
			send := func(buf []byte) {
				req := prov.IsendBlocking(p, other, buf, 0, 0, mpci.ModeStandard)
				prov.WaitUntil(p, req.Done)
			}
			recv := func(buf []byte) {
				req := prov.Irecv(p, other, 0, 0, buf)
				prov.WaitUntil(p, req.Done)
			}
			switch {
			case t.rounds > 0:
				for i := 0; i < t.rounds; i++ {
					if me == 0 {
						send(msg)
						recv(rbuf)
					} else {
						recv(rbuf)
						send(rbuf)
					}
				}
			case me == 0:
				reqs := make([]*mpci.SendReq, t.msgs)
				for i := range reqs {
					reqs[i] = prov.Isend(p, other, msg, 0, 0, mpci.ModeStandard)
				}
				for _, r := range reqs {
					prov.WaitUntil(p, r.Done)
				}
				recv(rbuf[:1])
			default:
				reqs := make([]*mpci.RecvReq, t.msgs)
				for i := range reqs {
					reqs[i] = prov.Irecv(p, other, 0, 0, rbuf)
				}
				for _, r := range reqs {
					prov.WaitUntil(p, r.Done)
				}
				send(rbuf[:1])
			}
		})
		return finished == 2
	}
}

func rungMPI(provider string) func(t traffic) bool {
	return func(t traffic) bool {
		par := paperParams()
		c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.Stack(provider), Seed: 1, Params: &par})
		msg := make([]byte, t.size)
		finished := 0
		c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
			defer func() { finished++ }()
			w := mpi.NewWorld(prov)
			me, other := w.Rank(), 1-w.Rank()
			rbuf := make([]byte, t.size)
			switch {
			case t.rounds > 0:
				for i := 0; i < t.rounds; i++ {
					if me == 0 {
						w.Send(p, msg, other, 0)
						w.Recv(p, rbuf, other, 0)
					} else {
						w.Recv(p, rbuf, other, 0)
						w.Send(p, rbuf, other, 0)
					}
				}
			case me == 0:
				reqs := make([]*mpi.Request, t.msgs)
				for i := range reqs {
					reqs[i] = w.Isend(p, msg, other, 0)
				}
				mpi.WaitAll(p, reqs...)
				w.Recv(p, rbuf[:1], other, 0)
			default:
				reqs := make([]*mpi.Request, t.msgs)
				for i := range reqs {
					reqs[i] = w.Irecv(p, rbuf, other, 0)
				}
				mpi.WaitAll(p, reqs...)
				w.Send(p, rbuf[:1], other, 0)
			}
		})
		return finished == 2
	}
}

// mpiRungProvider is the provider the MPI rung (and so the full telescope)
// is measured on.
const mpiRungProvider = "mpi-lapi-enhanced"

// transportOf names the rung a provider's MPCI rung sits on.
func transportOf(f mpci.Factory) string {
	if f.Caps.NativeFraming {
		return "pipes"
	}
	return "lapi"
}

// runLadder times every rung on every load and records the per-layer
// self_ns metrics (nanoseconds of host time per message). Repetitions go
// round robin over the rungs, so slow drift of the host lands on all rungs
// alike instead of on the difference between two of them.
func runLadder(rec *recorder, sc scale, out metricSet, tl *tally) {
	type rung struct {
		name string
		run  func(traffic) bool
	}
	rungs := []rung{{"switchnet", rungFabric}, {"adapter", rungAdapter}, {"hal", rungHAL}, {"pipes", rungPipes}, {"lapi", rungLAPI}}
	for _, f := range mpci.Providers() {
		rungs = append(rungs, rung{"mpci." + f.Name, rungMPCI(f.Name)})
	}
	rungs = append(rungs, rung{"mpi", rungMPI(mpiRungProvider)})

	for _, t := range ladderTraffic(sc) {
		reps := sc.reps(9)
		samples := make(map[string][]float64, len(rungs))
		for i := 0; i < reps; i++ {
			for _, r := range rungs {
				// Start every rung from a collected heap, or whichever rung
				// happens to trigger the next cycle pays for its neighbours.
				runtime.GC()
				s := rec.begin("ladder."+r.name+"."+t.name, -1, rec.newOp(), 0)
				ns := perOp(1, func() {
					failure := ""
					if !r.run(t) {
						failure = fmt.Sprintf("ladder rung %s did not move all of its %s traffic", r.name, t.name)
					}
					tl.op(failure)
				})
				rec.end(s)
				samples[r.name] = append(samples[r.name], ns/float64(t.messages()))
			}
		}
		at := make(map[string]float64, len(rungs))
		fmt.Printf("ladder %-5s inclusive ns/message:", t.name)
		for _, r := range rungs {
			at[r.name] = median(samples[r.name])
			fmt.Printf(" %s=%.0f", r.name, at[r.name])
		}
		fmt.Println()
		self := func(layer, below string) {
			out.set(fmt.Sprintf("%s.self_ns_%s", layer, t.name), at[layer]-at[below], "ns", reps)
		}
		self("switchnet", "")
		self("adapter", "switchnet")
		self("hal", "adapter")
		self("pipes", "hal")
		self("lapi", "hal")
		for _, f := range mpci.Providers() {
			self("mpci."+f.Name, transportOf(f))
		}
		self("mpi", "mpci."+mpiRungProvider)
	}
}
