package hal

import (
	"testing"

	"splapi/internal/adapter"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
)

// rig builds a 2-node fabric with HALs attached.
func rig(t *testing.T, mut func(*machine.Params)) (*sim.Engine, *machine.Params, []*HAL, []*adapter.Adapter) {
	t.Helper()
	e := sim.NewEngine(1)
	par := machine.SP332()
	if mut != nil {
		mut(&par)
	}
	f := switchnet.New(e, &par, 2)
	ads := []*adapter.Adapter{adapter.New(e, &par, f, 0), adapter.New(e, &par, f, 1)}
	hs := []*HAL{New(e, &par, ads[0]), New(e, &par, ads[1])}
	return e, &par, hs, ads
}

func TestSendDeliverPollingRoundTrip(t *testing.T) {
	e, _, hs, _ := rig(t, nil)
	var got []byte
	var gotAt sim.Time
	hs[1].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {
		got = append([]byte(nil), pkt...)
		gotAt = p.Now()
	})
	hs[0].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {})
	payload := append([]byte{ProtoPipes}, []byte("hello-sp")...)
	e.Spawn("sender", func(p *sim.Proc) { hs[0].Send(p, 1, payload) })
	e.Spawn("receiver", func(p *sim.Proc) {
		hs[1].ProgressWait(p, func() bool { return got != nil })
	})
	e.Run(0)
	if string(got[1:]) != "hello-sp" {
		t.Fatalf("payload = %q", got)
	}
	if gotAt <= 0 {
		t.Fatal("no arrival time recorded")
	}
}

func TestProgressWaitWakesOnKick(t *testing.T) {
	e, _, hs, _ := rig(t, nil)
	hs[0].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {})
	done := false
	var wokeAt sim.Time
	e.Spawn("waiter", func(p *sim.Proc) {
		hs[0].ProgressWait(p, func() bool { return done })
		wokeAt = p.Now()
	})
	e.Spawn("kicker", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		done = true
		hs[0].KickProgress()
	})
	e.Run(0)
	if wokeAt != 100*sim.Microsecond {
		t.Fatalf("woke at %v, want 100us", wokeAt)
	}
}

func TestInterruptDispatch(t *testing.T) {
	e, par, hs, _ := rig(t, nil)
	var handledAt sim.Time
	hs[1].RegisterProto(ProtoLAPI, func(p *sim.Proc, src int, pkt []byte) { handledAt = p.Now() })
	hs[0].RegisterProto(ProtoLAPI, nil)
	hs[1].EnableInterrupts(true)
	var sentDone sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		hs[0].Send(p, 1, []byte{ProtoLAPI, 42})
		sentDone = p.Now()
	})
	e.Run(2 * sim.Second)
	if handledAt == 0 {
		t.Fatal("interrupt dispatcher never ran the handler")
	}
	// Handler must run at least InterruptLatency after the earliest
	// possible arrival (which is after sentDone).
	if handledAt < sentDone+par.InterruptLatency {
		t.Fatalf("handledAt=%v too early (sentDone=%v, intrLatency=%v)",
			handledAt, sentDone, par.InterruptLatency)
	}
}

func TestInterruptDwellDelaysEndCallbacks(t *testing.T) {
	e, par, hs, _ := rig(t, func(p *machine.Params) {
		p.NativeHysteresisDwell = 200 * sim.Microsecond
	})
	var handledAt, publishedAt sim.Time
	hs[1].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {
		handledAt = p.Now()
		if hs[1].InInterrupt() {
			hs[1].OnInterruptEnd(func(p *sim.Proc) { publishedAt = p.Now() })
		}
	})
	hs[0].RegisterProto(ProtoPipes, nil)
	hs[1].SetInterruptDwell(par.NativeHysteresisDwell)
	hs[1].EnableInterrupts(true)
	e.Spawn("sender", func(p *sim.Proc) { hs[0].Send(p, 1, []byte{ProtoPipes, 1}) })
	e.Run(2 * sim.Second)
	if handledAt == 0 || publishedAt == 0 {
		t.Fatalf("handler/publish did not run: %v %v", handledAt, publishedAt)
	}
	if publishedAt-handledAt < par.NativeHysteresisDwell {
		t.Fatalf("publication after %v, want >= dwell %v (hysteresis must delay completions)",
			publishedAt-handledAt, par.NativeHysteresisDwell)
	}
}

func TestSendBufferBackpressure(t *testing.T) {
	e, _, hs, _ := rig(t, func(p *machine.Params) { p.SendBuffers = 2 })
	hs[1].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {})
	hs[0].RegisterProto(ProtoPipes, nil)
	var sendTimes []sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			hs[0].Send(p, 1, append([]byte{ProtoPipes}, make([]byte, 1023)...))
			sendTimes = append(sendTimes, p.Now())
		}
	})
	e.Spawn("receiver", func(p *sim.Proc) {
		hs[1].ProgressWait(p, func() bool { return false })
	})
	e.Run(sim.Second)
	// With only 2 pinned buffers, later sends must have been delayed by
	// DMA drain time rather than returning immediately.
	if sendTimes[5] <= sendTimes[1]+4*machine.SP332().PacketDispatch {
		t.Fatalf("sendTimes = %v: no backpressure observed", sendTimes)
	}
}

func TestFIFOOverflowDrops(t *testing.T) {
	e, _, hs, ads := rig(t, func(p *machine.Params) { p.RecvFIFOPackets = 4 })
	hs[1].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {})
	hs[0].RegisterProto(ProtoPipes, nil)
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			hs[0].Send(p, 1, []byte{ProtoPipes, byte(i)})
		}
	})
	// No receiver process: FIFO fills and overflows.
	e.Run(sim.Second)
	if ads[1].Stats().FIFODrops == 0 {
		t.Fatal("expected FIFO overflow drops with no receiver draining")
	}
	if ads[1].Pending() != 4 {
		t.Fatalf("pending = %d, want FIFO capacity 4", ads[1].Pending())
	}
}

func TestBandwidthBoundedByLink(t *testing.T) {
	// Streaming many packets one way: delivery rate must not exceed the
	// link bandwidth and should come close to it.
	e, par, hs, _ := rig(t, nil)
	received := 0
	var last sim.Time
	hs[1].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) {
		received++
		last = p.Now()
	})
	hs[0].RegisterProto(ProtoPipes, nil)
	const n = 200
	size := par.PacketPayload
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			hs[0].Send(p, 1, append([]byte{ProtoPipes}, make([]byte, size-1)...))
		}
	})
	e.Spawn("receiver", func(p *sim.Proc) {
		hs[1].ProgressWait(p, func() bool { return received == n })
	})
	e.Run(0)
	if received != n {
		t.Fatalf("received %d/%d", received, n)
	}
	bytes := float64(n * size)
	bw := bytes / (float64(last) / 1e9)
	if bw > par.LinkBytesPerSec {
		t.Fatalf("measured bandwidth %.1f MB/s exceeds link %.1f MB/s", bw/1e6, par.LinkBytesPerSec/1e6)
	}
	if bw < 0.4*par.LinkBytesPerSec {
		t.Fatalf("measured bandwidth %.1f MB/s implausibly low", bw/1e6)
	}
}

func TestChargeCPUSerializes(t *testing.T) {
	// Two processes charging the same node's CPU must serialize; charges
	// on different nodes must not.
	e, _, hs, _ := rig(t, nil)
	var sameNode, otherNode sim.Time
	e.Spawn("a", func(p *sim.Proc) { hs[0].ChargeCPU(p, 100*sim.Microsecond) })
	e.Spawn("b", func(p *sim.Proc) {
		hs[0].ChargeCPU(p, 100*sim.Microsecond)
		sameNode = p.Now()
	})
	e.Spawn("c", func(p *sim.Proc) {
		hs[1].ChargeCPU(p, 100*sim.Microsecond)
		otherNode = p.Now()
	})
	e.Run(0)
	if sameNode != 200*sim.Microsecond {
		t.Fatalf("same-node charges finished at %v, want 200us (serialized)", sameNode)
	}
	if otherNode != 100*sim.Microsecond {
		t.Fatalf("other-node charge finished at %v, want 100us (parallel)", otherNode)
	}
}

func TestChargeCPUZeroIsFree(t *testing.T) {
	e, _, hs, _ := rig(t, nil)
	var end sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		hs[0].ChargeCPU(p, 0)
		hs[0].ChargeCPU(p, -5)
		end = p.Now()
	})
	e.Run(0)
	if end != 0 {
		t.Fatalf("zero/negative charges advanced time to %v", end)
	}
}

// TestPacketPathZeroAlloc pins the steady-state packet path at zero
// allocations: once the engine, the pool and the fabric's record free list
// are warm, one HAL.Send → fabric → adapter FIFO → HAL.Poll → handler round
// reuses a packet record, its bound stage callback, a pooled snapshot and
// the FIFO's array. Measured from inside a process, like the kernel's
// park→wake gate.
func TestPacketPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e, par, hs, _ := rig(t, nil)
	got, want := 0, 0
	hs[1].RegisterProto(ProtoPipes, func(p *sim.Proc, src int, pkt []byte) { got++ })
	payload := make([]byte, par.PacketPayload)
	payload[0] = ProtoPipes
	arrived := func() bool { return got == want }
	allocs := -1.0
	e.Spawn("pair", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			want++
			hs[0].Send(p, 1, payload)
			hs[1].ProgressWait(p, arrived)
		})
	})
	e.Run(0)
	if allocs != 0 {
		t.Errorf("Send→Poll round allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRegisterProtoPanics: a protocol id registered twice, or one outside
// the dispatcher's table, is a wiring bug and panics at registration.
func TestRegisterProtoPanics(t *testing.T) {
	_, _, hs, _ := rig(t, nil)
	noop := func(p *sim.Proc, src int, pkt []byte) {}
	hs[0].RegisterProto(ProtoLAPI, noop)
	for _, id := range []byte{ProtoLAPI, protoSlots, 255} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterProto(%d) did not panic", id)
				}
			}()
			hs[0].RegisterProto(id, noop)
		}()
	}
}
