package pipes

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"splapi/internal/adapter"
	"splapi/internal/faults"
	"splapi/internal/hal"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
)

type rig struct {
	eng *sim.Engine
	par machine.Params
	pp  []*Pipes
	got [][]byte // got[node]: concatenated delivered stream per node (from any src)
}

func newRig(t *testing.T, n int, seed int64, mut func(*machine.Params)) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(seed), par: machine.SP332()}
	if mut != nil {
		mut(&r.par)
	}
	f := switchnet.New(r.eng, &r.par, n)
	r.got = make([][]byte, n)
	for i := 0; i < n; i++ {
		ad := adapter.New(r.eng, &r.par, f, i)
		h := hal.New(r.eng, &r.par, ad)
		pp := New(r.eng, &r.par, h, n)
		node := i
		pp.SetDeliver(func(p *sim.Proc, src int, data []byte) {
			r.got[node] = append(r.got[node], data...)
		})
		r.pp = append(r.pp, pp)
	}
	return r
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestStreamInOrderDelivery(t *testing.T) {
	r := newRig(t, 2, 1, nil)
	msg := pattern(10000, 3)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.pp[0].Write(p, 1, msg)
		r.pp[0].DrainAcks(p, 1)
	})
	r.eng.Spawn("receiver", func(p *sim.Proc) {
		r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) == len(msg) })
	})
	r.eng.Run(0)
	if !bytes.Equal(r.got[1], msg) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(r.got[1]), len(msg))
	}
	if r.pp[0].InFlight(1) != 0 {
		t.Fatalf("unacked bytes remain: %d", r.pp[0].InFlight(1))
	}
}

func TestStreamSurvivesLossAndDup(t *testing.T) {
	r := newRig(t, 2, 42, func(p *machine.Params) {
		p.Faults = faults.Uniform(0.08, 0.05)
		p.RetransmitTimeout = 300 * sim.Microsecond
	})
	msg := pattern(50000, 9)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.pp[0].Write(p, 1, msg)
		r.pp[0].DrainAcks(p, 1)
	})
	r.eng.Spawn("receiver", func(p *sim.Proc) {
		r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) >= len(msg) })
	})
	r.eng.Run(30 * sim.Second)
	if !bytes.Equal(r.got[1], msg) {
		t.Fatalf("lossy stream corrupted: got %d bytes, want %d", len(r.got[1]), len(msg))
	}
	st := r.pp[0].Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions under 8% loss")
	}
}

func TestStreamSurvivesSevereReorder(t *testing.T) {
	r := newRig(t, 2, 7, func(p *machine.Params) {
		p.RouteSkew = 40 * sim.Microsecond // aggressive reorder
	})
	msg := pattern(20000, 1)
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.pp[0].Write(p, 1, msg)
	})
	r.eng.Spawn("receiver", func(p *sim.Proc) {
		r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) >= len(msg) })
	})
	r.eng.Run(30 * sim.Second)
	if !bytes.Equal(r.got[1], msg) {
		t.Fatal("reordered stream corrupted")
	}
	if r.pp[1].Stats().OutOfOrder == 0 {
		t.Fatal("expected out-of-order arrivals with 40us route skew")
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	r := newRig(t, 2, 1, func(p *machine.Params) {
		p.PipeWindowBytes = 4096
	})
	msg := pattern(100000, 5)
	maxInFlight := 0
	r.eng.Spawn("sender", func(p *sim.Proc) {
		r.pp[0].Write(p, 1, msg)
	})
	r.eng.Spawn("watcher", func(p *sim.Proc) {
		for i := 0; i < 100000; i++ {
			if f := r.pp[0].InFlight(1); f > maxInFlight {
				maxInFlight = f
			}
			p.Sleep(sim.Microsecond)
			if len(r.got[1]) >= len(msg) {
				return
			}
		}
	})
	r.eng.Spawn("receiver", func(p *sim.Proc) {
		r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) >= len(msg) })
	})
	r.eng.Run(0)
	if maxInFlight > 4096 {
		t.Fatalf("in-flight bytes reached %d, window is 4096", maxInFlight)
	}
	if r.pp[0].Stats().WindowStalls == 0 {
		t.Fatal("expected window stalls with a 4KB window and 100KB write")
	}
	if !bytes.Equal(r.got[1], msg) {
		t.Fatal("stream corrupted")
	}
}

func TestBidirectionalStreams(t *testing.T) {
	r := newRig(t, 2, 3, nil)
	a := pattern(8000, 11)
	b := pattern(9000, 22)
	r.eng.Spawn("n0", func(p *sim.Proc) {
		r.pp[0].Write(p, 1, a)
		r.pp[0].h.ProgressWait(p, func() bool { return len(r.got[0]) >= len(b) })
	})
	r.eng.Spawn("n1", func(p *sim.Proc) {
		r.pp[1].Write(p, 0, b)
		r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) >= len(a) })
	})
	r.eng.Run(0)
	if !bytes.Equal(r.got[1], a) || !bytes.Equal(r.got[0], b) {
		t.Fatal("bidirectional streams corrupted")
	}
}

func TestManyToOne(t *testing.T) {
	const n = 4
	r := newRig(t, n, 5, nil)
	// Each source writes a distinct pattern; per-pair ordering must hold.
	perSrc := make([][]byte, n)
	r.got = make([][]byte, n) // reset: we track per-src below instead
	gotBySrc := make([][]byte, n)
	r.pp[0].deliver = func(p *sim.Proc, src int, data []byte) {
		gotBySrc[src] = append(gotBySrc[src], data...)
	}
	for s := 1; s < n; s++ {
		s := s
		perSrc[s] = pattern(12000+s*100, byte(s))
		r.eng.Spawn(fmt.Sprintf("src%d", s), func(p *sim.Proc) {
			r.pp[s].Write(p, 0, perSrc[s])
		})
	}
	r.eng.Spawn("sink", func(p *sim.Proc) {
		r.pp[0].h.ProgressWait(p, func() bool {
			for s := 1; s < n; s++ {
				if len(gotBySrc[s]) < len(perSrc[s]) {
					return false
				}
			}
			return true
		})
	})
	r.eng.Run(30 * sim.Second)
	for s := 1; s < n; s++ {
		if !bytes.Equal(gotBySrc[s], perSrc[s]) {
			t.Fatalf("stream from src %d corrupted", s)
		}
	}
}

// Property: any sequence of writes is delivered as the exact concatenation,
// under loss, duplication, and reorder.
func TestStreamProperty(t *testing.T) {
	prop := func(sizes []uint16, seed int64) bool {
		if len(sizes) == 0 || len(sizes) > 8 {
			return true
		}
		var msg []byte
		for i, s := range sizes {
			msg = append(msg, pattern(int(s)%3000+1, byte(i))...)
		}
		r := newRig(t, 2, seed, func(p *machine.Params) {
			p.Faults = faults.Uniform(0.05, 0.03)
			p.RouteSkew = 5 * sim.Microsecond
			p.RetransmitTimeout = 300 * sim.Microsecond
		})
		r.eng.Spawn("sender", func(p *sim.Proc) {
			rest := msg
			for i := 0; len(rest) > 0; i++ {
				n := int(sizes[i%len(sizes)])%3000 + 1
				if n > len(rest) {
					n = len(rest)
				}
				r.pp[0].Write(p, 1, rest[:n])
				rest = rest[n:]
			}
		})
		r.eng.Spawn("receiver", func(p *sim.Proc) {
			r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) >= len(msg) })
		})
		r.eng.Run(60 * sim.Second)
		return bytes.Equal(r.got[1], msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPiggybackAcksReduceStandalone(t *testing.T) {
	// Bidirectional traffic: most acks should ride on reverse data.
	r := newRig(t, 2, 13, nil)
	const msgs = 30
	var done [2]int
	for n := 0; n < 2; n++ {
		n := n
		r.pp[n].SetDeliver(func(p *sim.Proc, src int, data []byte) {
			done[n] += len(data)
		})
	}
	payload := pattern(2000, 5)
	for n := 0; n < 2; n++ {
		n := n
		r.eng.Spawn("peer", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				r.pp[n].Write(p, 1-n, payload)
				// Alternate: wait for the peer's message before continuing,
				// giving reverse data for acks to ride on.
				r.pp[n].h.ProgressWait(p, func() bool { return done[n] >= (i+1)*len(payload) })
			}
		})
	}
	r.eng.Run(60 * sim.Second)
	for n := 0; n < 2; n++ {
		st := r.pp[n].Stats()
		if st.AcksPiggyback == 0 {
			t.Fatalf("node %d: no piggybacked acks in bidirectional traffic (%+v)", n, st)
		}
		if st.AcksSent > st.AcksPiggyback {
			t.Fatalf("node %d: standalone acks (%d) exceed piggybacked (%d) despite reverse traffic",
				n, st.AcksSent, st.AcksPiggyback)
		}
	}
}

func TestPiggybackAckCorrectUnderLoss(t *testing.T) {
	r := newRig(t, 2, 14, func(p *machine.Params) {
		p.Faults = faults.Uniform(0.07, 0)
		p.RetransmitTimeout = 300 * sim.Microsecond
	})
	a, b := pattern(30000, 1), pattern(25000, 2)
	gotA, gotB := 0, 0
	r.pp[0].SetDeliver(func(p *sim.Proc, src int, data []byte) { gotA += len(data) })
	r.pp[1].SetDeliver(func(p *sim.Proc, src int, data []byte) { gotB += len(data) })
	r.eng.Spawn("n0", func(p *sim.Proc) {
		r.pp[0].Write(p, 1, a)
		r.pp[0].DrainAcks(p, 1)
		r.pp[0].h.ProgressWait(p, func() bool { return gotA == len(b) })
	})
	r.eng.Spawn("n1", func(p *sim.Proc) {
		r.pp[1].Write(p, 0, b)
		r.pp[1].DrainAcks(p, 0)
		r.pp[1].h.ProgressWait(p, func() bool { return gotB == len(a) })
	})
	r.eng.Run(120 * sim.Second)
	if gotB != len(a) || gotA != len(b) {
		t.Fatalf("lossy bidirectional streams incomplete: %d/%d, %d/%d", gotB, len(a), gotA, len(b))
	}
	if r.pp[0].InFlight(1) != 0 || r.pp[1].InFlight(0) != 0 {
		t.Fatal("unacked data after drain")
	}
}

// A go-back-N retransmit walks the unacked window across blocking sends.
// A writer woken meanwhile by an ack pushes new bytes behind the window,
// and push must not move the window's bytes to the front of their array
// under the walk: the retransmitted copies would carry the wrong bytes.
func TestRetransmitWalkSurvivesCompaction(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := newRig(t, 2, seed, func(p *machine.Params) {
			p.Faults = faults.Uniform(0.05, 0)
			p.PipeWindowBytes = 8 * 1024
			p.RetransmitTimeout = 100 * sim.Microsecond
		})
		msg := pattern(200000, byte(seed))
		sp := r.pp[0].send[1]
		duringWalk := 0
		r.eng.Spawn("writer", func(p *sim.Proc) {
			for rest := msg; len(rest) > 0; {
				n := min(len(rest), 700)
				if sp.walkers > 0 {
					duringWalk++
				}
				r.pp[0].Write(p, 1, rest[:n])
				rest = rest[n:]
			}
			r.pp[0].DrainAcks(p, 1)
		})
		r.eng.Spawn("receiver", func(p *sim.Proc) {
			r.pp[1].h.ProgressWait(p, func() bool { return len(r.got[1]) >= len(msg) })
		})
		r.eng.Run(60 * sim.Second)
		if !bytes.Equal(r.got[1], msg) {
			t.Fatalf("seed %d: delivered stream differs from the written one (%d of %d bytes delivered)", seed, len(r.got[1]), len(msg))
		}
		if duringWalk == 0 {
			t.Fatalf("seed %d: no write started while a retransmit walked the window", seed)
		}
	}
}

// TestStreamZeroAlloc pins a warmed pipe pair at zero allocations per
// 64 KiB message: the send window reuses its array, and every packet below
// it reuses a record and a pooled buffer (hal.TestPacketPathZeroAlloc).
func TestStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	r := newRig(t, 2, 1, nil)
	recvd, want := 0, 0
	r.pp[1].SetDeliver(func(p *sim.Proc, src int, data []byte) { recvd += len(data) })
	msg := pattern(64*1024, 1)
	delivered := func() bool { return recvd == want }
	send := func(p *sim.Proc) {
		want += len(msg)
		r.pp[0].Write(p, 1, msg)
		r.pp[0].DrainAcks(p, 1)
		r.pp[0].h.ProgressWait(p, delivered)
	}
	allocs := -1.0
	r.eng.Spawn("writer", func(p *sim.Proc) {
		send(p) // the warm-up message
		allocs = testing.AllocsPerRun(10, func() { send(p) })
	})
	r.eng.Spawn("receiver", func(p *sim.Proc) {
		r.pp[1].h.ProgressWait(p, func() bool { return false })
	})
	r.eng.Run(0)
	if allocs != 0 {
		t.Errorf("a 64 KiB message through a warmed pipe pair allocates %.1f objects, want 0", allocs)
	}
}
