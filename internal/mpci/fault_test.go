package mpci_test

import (
	"bytes"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/sim"
)

// faultParams returns a hostile fabric: loss, duplication, and heavy
// reordering at once.
func faultParams() func(*machine.Params) {
	return func(p *machine.Params) {
		p.Faults = faults.Uniform(0.06, 0.04)
		p.RouteSkew = 25 * sim.Microsecond
		p.RetransmitTimeout = 400 * sim.Microsecond
		p.EagerLimit = 78
	}
}

// TestAllStacksSurviveHostileFabric runs a 3-rank mixed workload (all four
// modes, eager and rendezvous sizes, wildcards) under loss + duplication +
// reorder on every stack, checking end-to-end integrity.
func TestAllStacksSurviveHostileFabric(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 3, 987, faultParams())
		type msg struct {
			src, dst, tag int
			mode          mpci.Mode
			size          int
		}
		plan := []msg{
			{0, 1, 1, mpci.ModeStandard, 20},
			{0, 1, 2, mpci.ModeStandard, 9000},
			{1, 2, 3, mpci.ModeSync, 500},
			{2, 0, 4, mpci.ModeStandard, 40000},
			{0, 2, 5, mpci.ModeBuffered, 60},
			{1, 0, 6, mpci.ModeBuffered, 3000},
			{2, 1, 7, mpci.ModeStandard, 77},
			{0, 1, 8, mpci.ModeStandard, 30000},
		}
		payload := func(m msg) []byte { return pattern(m.size, byte(m.tag)) }
		results := make(map[int][]byte)
		c.RunMPI(600*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			me := prov.Rank()
			prov.AttachBuffer(make([]byte, 1<<16))
			// Post all receives destined to me first (nonblocking).
			var rreqs []*mpci.RecvReq
			var rmsgs []msg
			for _, m := range plan {
				if m.dst == me {
					buf := make([]byte, m.size)
					rreqs = append(rreqs, prov.Irecv(p, m.src, m.tag, 0, buf))
					rmsgs = append(rmsgs, m)
					results[m.tag] = buf
				}
			}
			// Then send everything I originate.
			var sreqs []*mpci.SendReq
			for _, m := range plan {
				if m.src == me {
					sreqs = append(sreqs, prov.Isend(p, m.dst, payload(m), m.tag, 0, m.mode))
				}
			}
			prov.WaitUntil(p, func() bool {
				for _, r := range sreqs {
					if !r.Done() {
						return false
					}
				}
				for _, r := range rreqs {
					if !r.Done() {
						return false
					}
				}
				return true
			})
			prov.DetachBuffer(p)
		})
		for _, m := range plan {
			if !bytes.Equal(results[m.tag], payload(m)) {
				t.Fatalf("%v: message tag %d (%v, %dB) corrupted under faults",
					stack, m.tag, m.mode, m.size)
			}
		}
	})
}

// TestInterruptModeAllStacks exercises the Figure 13 machinery end to end:
// an interrupt-driven receiver (never polling) must still complete, on
// every stack, with the native stack paying its hysteresis dwell.
func TestInterruptModeAllStacks(t *testing.T) {
	latency := map[cluster.Stack]sim.Time{}
	for _, stack := range allStacks {
		par := machine.SP332()
		par.EagerLimit = 78
		c := cluster.New(cluster.Config{Nodes: 2, Stack: stack, Seed: 44, Params: &par, Interrupts: true})
		var done sim.Time
		var sent sim.Time
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			if prov.Rank() == 0 {
				req := prov.IsendBlocking(p, 1, pattern(32, 1), 0, 0, mpci.ModeStandard)
				sent = p.Now()
				prov.WaitUntil(p, req.Done)
			} else {
				req := prov.Irecv(p, 0, 0, 0, make([]byte, 32))
				if stack == cluster.LAPICounters {
					// The Counters design recognizes completion only inside
					// an MPI call (the paper: "the receive, or MPI_WAIT or
					// MPI_TEST, can recognize the completion"), so the
					// checking loop must use a Test-style probe.
					for !req.Done() {
						p.Sleep(2 * sim.Microsecond)
						prov.WaitUntil(p, func() bool { return true })
					}
				} else {
					// Never enter MPI: interrupts alone must complete it.
					for !req.Done() {
						p.Sleep(2 * sim.Microsecond)
					}
				}
				done = p.Now()
			}
		})
		if done == 0 {
			t.Fatalf("%v: interrupt-driven receive never completed", stack)
		}
		latency[stack] = done - sent
	}
	if latency[cluster.Native] < 2*latency[cluster.LAPIEnhanced] {
		t.Errorf("native interrupt latency %v should be >= 2x enhanced %v (hysteresis dwell)",
			latency[cluster.Native], latency[cluster.LAPIEnhanced])
	}
}

// TestFIFOOverflowRecovery drops packets at the adapter FIFO (not the
// fabric) and checks the reliability layers recover.
func TestFIFOOverflowRecovery(t *testing.T) {
	for _, stack := range []cluster.Stack{cluster.Native, cluster.LAPIEnhanced} {
		stack := stack
		t.Run(stack.String(), func(t *testing.T) {
			c := build(t, stack, 2, 55, func(p *machine.Params) {
				p.RecvFIFOPackets = 8 // tiny FIFO: bursts overflow
				p.RetransmitTimeout = 500 * sim.Microsecond
				p.EagerLimit = 4096
			})
			const n = 12
			msgs := make([][]byte, n)
			gots := make([][]byte, n)
			for i := range msgs {
				msgs[i] = pattern(4000, byte(i))
				gots[i] = make([]byte, 4000)
			}
			c.RunMPI(300*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
				if prov.Rank() == 0 {
					reqs := make([]*mpci.SendReq, n)
					for i := range reqs {
						reqs[i] = prov.Isend(p, 1, msgs[i], i, 0, mpci.ModeStandard)
					}
					prov.WaitUntil(p, func() bool {
						for _, r := range reqs {
							if !r.Done() {
								return false
							}
						}
						return true
					})
				} else {
					// Delay posting so a burst lands in the tiny FIFO.
					p.Sleep(2 * sim.Millisecond)
					reqs := make([]*mpci.RecvReq, n)
					for i := range reqs {
						reqs[i] = prov.Irecv(p, 0, i, 0, gots[i])
					}
					prov.WaitUntil(p, func() bool {
						for _, r := range reqs {
							if !r.Done() {
								return false
							}
						}
						return true
					})
				}
			})
			drops := c.Adapters[1].Stats().FIFODrops
			if drops == 0 {
				t.Logf("note: no FIFO drops occurred (burst absorbed); still verifying integrity")
			}
			for i := range msgs {
				if !bytes.Equal(gots[i], msgs[i]) {
					t.Fatalf("message %d corrupted after FIFO overflow (drops=%d)", i, drops)
				}
			}
		})
	}
}

// TestEnvelopeReorderingMachinery forces eager envelopes to overtake each
// other on the switch and checks both that MPI ordering survives and that
// the deferred-matching path actually ran.
func TestEnvelopeReorderingMachinery(t *testing.T) {
	c := build(t, cluster.LAPIEnhanced, 2, 66, func(p *machine.Params) {
		p.RouteSkew = 60 * sim.Microsecond // envelopes will overtake
		p.EagerLimit = 78
	})
	const n = 24
	var order []byte
	c.RunMPI(60*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
		if prov.Rank() == 0 {
			for i := 0; i < n; i++ {
				// Back-to-back nonblocking sends spray across routes.
				prov.Isend(p, 1, []byte{byte(i)}, 5, 0, mpci.ModeStandard)
			}
			prov.WaitUntil(p, func() bool { return false }) // park until killed
		} else {
			p.Sleep(10 * sim.Millisecond) // let everything arrive unexpected
			for i := 0; i < n; i++ {
				b := make([]byte, 1)
				req := prov.Irecv(p, 0, 5, 0, b)
				prov.WaitUntil(p, req.Done)
				order = append(order, b[0])
			}
		}
	})
	for i, v := range order {
		if v != byte(i) {
			t.Fatalf("MPI ordering violated under envelope reorder: %v", order)
		}
	}
	st := c.Provs[1].Stats()
	if st.EnvOOO == 0 {
		t.Fatal("expected out-of-order envelopes with 60us route skew (test premise)")
	}
}
