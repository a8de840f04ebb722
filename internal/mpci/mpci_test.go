package mpci_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/sim"
	"splapi/internal/tracelog"
)

// allStacks is the provider conformance list, driven by the registry:
// every registered provider — including rdma, since the SP332 test
// machine supports registration — must pass the full suite below. A new
// provider gets conformance coverage from its registry row, not by
// editing tests.
var allStacks = func() []cluster.Stack {
	var out []cluster.Stack
	for _, f := range mpci.Providers() {
		out = append(out, cluster.Stack(f.Name))
	}
	return out
}()

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*31 + seed
	}
	return b
}

func build(t testing.TB, stack cluster.Stack, nodes int, seed int64, mut func(*machine.Params)) *cluster.Cluster {
	t.Helper()
	par := machine.SP332()
	par.EagerLimit = 4096
	if mut != nil {
		mut(&par)
	}
	return cluster.New(cluster.Config{Nodes: nodes, Stack: stack, Seed: seed, Params: &par})
}

// forStacks runs a subtest per stack.
func forStacks(t *testing.T, fn func(t *testing.T, stack cluster.Stack)) {
	for _, s := range allStacks {
		s := s
		t.Run(s.String(), func(t *testing.T) { fn(t, s) })
	}
}

func TestEagerAndRendezvousRoundTrip(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		for _, size := range []int{0, 1, 78, 4096, 4097, 70000} {
			size := size
			t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
				c := build(t, stack, 2, 1, nil)
				msg := pattern(size, 7)
				got := make([]byte, size)
				var st mpci.Status
				c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
					switch prov.Rank() {
					case 0:
						req := prov.IsendBlocking(p, 1, msg, 42, 0, mpci.ModeStandard)
						prov.WaitUntil(p, req.Done)
					case 1:
						req := prov.Irecv(p, 0, 42, 0, got)
						prov.WaitUntil(p, req.Done)
						st = req.Status()
					}
				})
				if !bytes.Equal(got, msg) {
					t.Fatalf("%s %dB: data corrupted", stack, size)
				}
				if st.Src != 0 || st.Tag != 42 || st.Count != size {
					t.Fatalf("status = %+v", st)
				}
			})
		}
	})
}

func TestUnexpectedMessageViaEarlyArrival(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		msg := pattern(1000, 3)
		got := make([]byte, 1000)
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				req := prov.Isend(p, 1, msg, 7, 0, mpci.ModeStandard)
				prov.WaitUntil(p, req.Done)
			case 1:
				// Post the receive long after the message arrived.
				p.Sleep(5 * sim.Millisecond)
				req := prov.Irecv(p, 0, 7, 0, got)
				prov.WaitUntil(p, req.Done)
			}
		})
		if !bytes.Equal(got, msg) {
			t.Fatal("early-arrival path corrupted data")
		}
	})
}

func TestLateRecvForRendezvous(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		msg := pattern(50000, 9)
		got := make([]byte, 50000)
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				req := prov.Isend(p, 1, msg, 7, 0, mpci.ModeStandard)
				prov.WaitUntil(p, req.Done)
			case 1:
				p.Sleep(5 * sim.Millisecond) // RTS parks in the EA queue
				req := prov.Irecv(p, 0, 7, 0, got)
				prov.WaitUntil(p, req.Done)
			}
		})
		if !bytes.Equal(got, msg) {
			t.Fatal("late-posted rendezvous corrupted data")
		}
	})
}

func TestWildcardsAndStatus(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 3, 1, nil)
		got := make([]byte, 64)
		var st mpci.Status
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 2:
				req := prov.Irecv(p, mpci.AnySource, mpci.AnyTag, 0, got)
				prov.WaitUntil(p, req.Done)
				st = req.Status()
			case 1:
				p.Sleep(sim.Millisecond)
				req := prov.Isend(p, 2, pattern(64, 1), 99, 0, mpci.ModeStandard)
				prov.WaitUntil(p, req.Done)
			}
		})
		if st.Src != 1 || st.Tag != 99 || st.Count != 64 {
			t.Fatalf("wildcard status = %+v, want src=1 tag=99 count=64", st)
		}
	})
}

func TestPerPairOrderingPreserved(t *testing.T) {
	// MPI requires messages between a pair with matching signatures to be
	// received in send order, even though the switch reorders packets.
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 5, func(p *machine.Params) {
			p.RouteSkew = 30 * sim.Microsecond // aggressive reorder
			p.EagerLimit = 78
		})
		const n = 40
		var order []byte
		c.RunMPI(30*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				for i := 0; i < n; i++ {
					req := prov.Isend(p, 1, []byte{byte(i)}, 5, 0, mpci.ModeStandard)
					prov.WaitUntil(p, req.Done)
				}
			case 1:
				for i := 0; i < n; i++ {
					b := make([]byte, 1)
					req := prov.Irecv(p, 0, 5, 0, b)
					prov.WaitUntil(p, req.Done)
					order = append(order, b[0])
				}
			}
		})
		if len(order) != n {
			t.Fatalf("received %d/%d", len(order), n)
		}
		for i, v := range order {
			if v != byte(i) {
				t.Fatalf("ordering violated at %d: got %d (order=%v)", i, v, order)
			}
		}
	})
}

func TestSyncModeWaitsForReceiver(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		var sendDone, recvPosted sim.Time
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				req := prov.IsendBlocking(p, 1, pattern(10, 1), 3, 0, mpci.ModeSync)
				prov.WaitUntil(p, req.Done)
				sendDone = p.Now()
			case 1:
				p.Sleep(20 * sim.Millisecond)
				recvPosted = p.Now()
				req := prov.Irecv(p, 0, 3, 0, make([]byte, 10))
				prov.WaitUntil(p, req.Done)
			}
		})
		if sendDone < recvPosted {
			t.Fatalf("synchronous send completed at %v, before the receive was posted at %v", sendDone, recvPosted)
		}
	})
}

func TestReadyModeFatalWithoutReceive(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		defer func() {
			if recover() == nil {
				t.Fatal("ready-mode send without a posted receive must raise a fatal error")
			}
		}()
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			if prov.Rank() == 0 {
				req := prov.Isend(p, 1, pattern(10, 1), 3, 0, mpci.ModeReady)
				prov.WaitUntil(p, req.Done)
			} else {
				prov.WaitUntil(p, func() bool { return false })
			}
		})
	})
}

func TestReadyModeWorksWithPostedReceive(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		got := make([]byte, 100)
		msg := pattern(100, 2)
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				p.Sleep(5 * sim.Millisecond) // ensure the receive is posted
				req := prov.Isend(p, 1, msg, 3, 0, mpci.ModeReady)
				prov.WaitUntil(p, req.Done)
			case 1:
				req := prov.Irecv(p, 0, 3, 0, got)
				prov.WaitUntil(p, req.Done)
			}
		})
		if !bytes.Equal(got, msg) {
			t.Fatal("ready-mode data corrupted")
		}
	})
}

func TestBufferedModeFreesStaging(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		got := make([]byte, 3000)
		msg := pattern(3000, 4)
		var detached bool
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				prov.AttachBuffer(make([]byte, 8192))
				req := prov.Isend(p, 1, msg, 3, 0, mpci.ModeBuffered)
				if !req.Done() {
					t.Error("buffered send must complete immediately after staging")
				}
				prov.DetachBuffer(p)
				detached = true
			case 1:
				p.Sleep(2 * sim.Millisecond) // force the EA path
				req := prov.Irecv(p, 0, 3, 0, got)
				prov.WaitUntil(p, req.Done)
			}
		})
		if !bytes.Equal(got, msg) {
			t.Fatal("buffered-mode data corrupted")
		}
		if !detached {
			t.Fatal("DetachBuffer never returned: staging space not freed")
		}
	})
}

func TestProbeSeesEnvelope(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		var env mpci.Envelope
		var found bool
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				req := prov.Isend(p, 1, pattern(200, 1), 17, 0, mpci.ModeStandard)
				prov.WaitUntil(p, req.Done)
			case 1:
				prov.WaitUntil(p, func() bool {
					e, ok := prov.Iprobe(p, mpci.AnySource, mpci.AnyTag, 0)
					if ok {
						env, found = e, true
					}
					return found
				})
				got := make([]byte, 200)
				req := prov.Irecv(p, env.Src, env.Tag, 0, got)
				prov.WaitUntil(p, req.Done)
			}
		})
		if !found || env.Src != 0 || env.Tag != 17 || env.Size != 200 {
			t.Fatalf("probe envelope = %+v found=%v", env, found)
		}
	})
}

func TestSelfSend(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		got := make([]byte, 500)
		msg := pattern(500, 6)
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			if prov.Rank() != 0 {
				return
			}
			sreq := prov.Isend(p, 0, msg, 11, 0, mpci.ModeStandard)
			rreq := prov.Irecv(p, 0, 11, 0, got)
			prov.WaitUntil(p, func() bool { return sreq.Done() && rreq.Done() })
		})
		if !bytes.Equal(got, msg) {
			t.Fatal("self-send corrupted data")
		}
	})
}

func TestContextSeparation(t *testing.T) {
	// A receive on context 1 must not match a message on context 0.
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 1, nil)
		got0 := make([]byte, 8)
		got1 := make([]byte, 8)
		c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				r0 := prov.Isend(p, 1, []byte("ctx0-msg"), 5, 0, mpci.ModeStandard)
				r1 := prov.Isend(p, 1, []byte("ctx1-msg"), 5, 1, mpci.ModeStandard)
				prov.WaitUntil(p, func() bool { return r0.Done() && r1.Done() })
			case 1:
				r1 := prov.Irecv(p, 0, 5, 1, got1)
				r0 := prov.Irecv(p, 0, 5, 0, got0)
				prov.WaitUntil(p, func() bool { return r0.Done() && r1.Done() })
			}
		})
		if string(got0) != "ctx0-msg" || string(got1) != "ctx1-msg" {
			t.Fatalf("context mixing: got0=%q got1=%q", got0, got1)
		}
	})
}

func TestManyMessagesUnderLoss(t *testing.T) {
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 99, func(p *machine.Params) {
			p.Faults = faults.Uniform(0.05, 0.03)
			p.RouteSkew = 15 * sim.Microsecond
			p.RetransmitTimeout = 400 * sim.Microsecond
			p.EagerLimit = 78
		})
		const n = 30
		msgs := make([][]byte, n)
		gots := make([][]byte, n)
		for i := range msgs {
			msgs[i] = pattern(1+i*777, byte(i))
			gots[i] = make([]byte, len(msgs[i]))
		}
		c.RunMPI(300*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				for i := 0; i < n; i++ {
					req := prov.IsendBlocking(p, 1, msgs[i], i, 0, mpci.ModeStandard)
					prov.WaitUntil(p, req.Done)
				}
			case 1:
				for i := 0; i < n; i++ {
					req := prov.Irecv(p, 0, i, 0, gots[i])
					prov.WaitUntil(p, req.Done)
				}
			}
		})
		for i := range msgs {
			if !bytes.Equal(gots[i], msgs[i]) {
				t.Fatalf("message %d corrupted under loss (len %d)", i, len(msgs[i]))
			}
		}
	})
}

func TestNonblockingOverlap(t *testing.T) {
	// Post many irecvs and isends at once, wait for all.
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		c := build(t, stack, 2, 3, func(p *machine.Params) { p.EagerLimit = 78 })
		const n = 16
		msgs := make([][]byte, n)
		gots := make([][]byte, n)
		for i := range msgs {
			msgs[i] = pattern(100+i*900, byte(i))
			gots[i] = make([]byte, len(msgs[i]))
		}
		c.RunMPI(60*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
			switch prov.Rank() {
			case 0:
				reqs := make([]*mpci.SendReq, n)
				for i := 0; i < n; i++ {
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
			case 1:
				reqs := make([]*mpci.RecvReq, n)
				for i := 0; i < n; i++ {
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
		for i := range msgs {
			if !bytes.Equal(gots[i], msgs[i]) {
				t.Fatalf("overlapped message %d corrupted", i)
			}
		}
	})
}

func TestTable2ProtocolTranslation(t *testing.T) {
	// Table 2: standard <= eager limit -> eager; standard > limit ->
	// rendezvous; ready -> eager; sync -> rendezvous; buffered follows
	// standard's rule.
	type tc struct {
		mode      mpci.Mode
		size      int
		wantEager bool
	}
	cases := []tc{
		{mpci.ModeStandard, 78, true},
		{mpci.ModeStandard, 79, false},
		{mpci.ModeReady, 4000, true},
		{mpci.ModeSync, 10, false},
		{mpci.ModeBuffered, 78, true},
		{mpci.ModeBuffered, 79, false},
	}
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		for _, cse := range cases {
			c := build(t, stack, 2, 1, func(p *machine.Params) { p.EagerLimit = 78 })
			cse := cse
			c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
				switch prov.Rank() {
				case 0:
					if cse.mode == mpci.ModeBuffered {
						prov.AttachBuffer(make([]byte, 1<<16))
					}
					if cse.mode == mpci.ModeReady {
						p.Sleep(2 * sim.Millisecond)
					}
					req := prov.IsendBlocking(p, 1, pattern(cse.size, 1), 0, 0, cse.mode)
					prov.WaitUntil(p, req.Done)
				case 1:
					req := prov.Irecv(p, 0, 0, 0, make([]byte, cse.size))
					prov.WaitUntil(p, req.Done)
				}
			})
			st := c.Provs[0].Stats()
			if cse.wantEager && (st.EagerSends != 1 || st.RdvSends != 0) {
				t.Errorf("%v %dB: eager=%d rdv=%d, want eager", cse.mode, cse.size, st.EagerSends, st.RdvSends)
			}
			if !cse.wantEager && (st.EagerSends != 0 || st.RdvSends != 1) {
				t.Errorf("%v %dB: eager=%d rdv=%d, want rendezvous", cse.mode, cse.size, st.EagerSends, st.RdvSends)
			}
		}
	})
}

// TestRegistryTableWellFormed: every factory has a name and a build
// function, and the names are unique and sorted, so listings need no sort.
func TestRegistryTableWellFormed(t *testing.T) {
	fs := mpci.Providers()
	if len(fs) == 0 {
		t.Fatal("empty provider registry")
	}
	for i, f := range fs {
		if f.Name == "" || f.Build == nil {
			t.Errorf("factory %d (%q) needs a name and a build function", i, f.Name)
		}
		if i > 0 && fs[i-1].Name >= f.Name {
			t.Errorf("names not unique and sorted: %q before %q", fs[i-1].Name, f.Name)
		}
	}
	fs[0].Name = "clobbered"
	if mpci.Providers()[0].Name == "clobbered" {
		t.Error("Providers() shares the registry's array")
	}
}

// TestBuiltCapabilitiesAreTheRegisteredOnes pins the registry contract: a
// capability set is written once, in the Factory literal, and the provider
// built from it reports exactly that value on every rank.
func TestBuiltCapabilitiesAreTheRegisteredOnes(t *testing.T) {
	for _, f := range mpci.Providers() {
		c := build(t, cluster.Stack(f.Name), 2, 1, nil)
		for rank, prov := range c.Provs {
			if got := prov.Capabilities(); got != f.Caps {
				t.Errorf("%s rank %d: Capabilities() = %v, registered %v", f.Name, rank, got.List(), f.Caps.List())
			}
		}
	}
}

// TestLatePostedEagerArrivalSequence drives the shared arrival path the way
// only per-provider tests used to: an eager message lands before its
// receive is posted, so it must be recorded unexpected, claimed by the late
// receive, and completed — the same MPCI event sequence, on the same
// message id, from every registered provider. 64 B takes the Counters
// design's handler-free completion; 1000 B takes the completion handler.
func TestLatePostedEagerArrivalSequence(t *testing.T) {
	want := []tracelog.Kind{tracelog.KUnexpected, tracelog.KEarlyClaim, tracelog.KRecvDone}
	forStacks(t, func(t *testing.T, stack cluster.Stack) {
		for _, size := range []int{64, 1000} {
			par := machine.SP332()
			par.EagerLimit = 4096
			tl := tracelog.New(1 << 16)
			c := cluster.New(cluster.Config{Nodes: 2, Stack: stack, Seed: 1, Params: &par, Trace: tl})
			msg, got := pattern(size, 5), make([]byte, size)
			c.RunMPI(10*sim.Second, func(p *sim.Proc, prov mpci.Provider) {
				switch prov.Rank() {
				case 0:
					req := prov.Isend(p, 1, msg, 7, 0, mpci.ModeStandard)
					prov.WaitUntil(p, req.Done)
				case 1:
					// Probing drives the dispatcher, so the envelope is
					// matched against an empty posted queue first.
					for {
						if _, ok := prov.Iprobe(p, 0, 7, 0); ok {
							break
						}
						p.Sleep(10 * sim.Microsecond)
					}
					req := prov.Irecv(p, 0, 7, 0, got)
					prov.WaitUntil(p, req.Done)
				}
			})
			if !bytes.Equal(got, msg) {
				t.Fatalf("%dB payload corrupted", size)
			}
			var seq []tracelog.Kind
			var mid uint64
			for _, ev := range tl.Events() {
				if ev.Layer != tracelog.LMPCI || ev.Node != 1 {
					continue
				}
				switch ev.Kind {
				case tracelog.KMatch, tracelog.KUnexpected, tracelog.KEarlyClaim, tracelog.KRecvDone:
					if len(seq) == 0 {
						mid = ev.Msg
					}
					if ev.Msg != mid || ev.Peer != 0 || int(ev.Size) != size {
						t.Errorf("%v on msg %#x peer %d size %d, want msg %#x peer 0 size %d", ev.Kind, ev.Msg, ev.Peer, ev.Size, mid, size)
					}
					seq = append(seq, ev.Kind)
				}
			}
			if !slices.Equal(seq, want) {
				t.Fatalf("%dB arrival sequence = %v, want %v", size, seq, want)
			}
			if st := c.Provs[1].Stats(); st.Unexpected != 1 || st.Matched != 0 || st.BytesRecved != uint64(size) {
				t.Fatalf("%dB receiver stats = %+v", size, st)
			}
		}
	})
}
