package switchnet

import (
	"testing"

	"splapi/internal/sim"
)

// emptyPacketStash drops every stashed record list, so the next fabric
// that needs a record starts cold.
func emptyPacketStash() {
	for {
		if _, ok := packetStash.Take(); !ok {
			return
		}
	}
}

// packetStream sends count packets from port 0 to port 1 of a fresh 2-port
// fabric on a fresh engine, all injected at once so that many are in
// flight together, and runs the engine to quiescence. Port 1 releases
// what it receives.
func packetStream(t *testing.T, count int) *Fabric {
	e := sim.NewEngine(1)
	par := testParams()
	f := New(e, &par, 2)
	f.AttachPort(1, func(pk *Packet) { f.Release(pk) })
	payload := make([]byte, 2048)
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			f.Send(f.NewPacket(0, 1, payload), p.Now())
		}
	})
	e.Run(0)
	if !e.Idle() || f.Stats().Delivered != uint64(count) {
		t.Fatalf("stream did not run to quiescence: %+v", f.Stats())
	}
	return f
}

// TestWarmFabricPacketsZeroAlloc: a fabric built after an engine with the
// same traffic quiesced finds every packet record it needs on the list
// that engine's fabric handed on, and makes none; and a warm
// NewPacket→At→Free cycle, a Run that quiesces included, allocates
// nothing.
func TestWarmFabricPacketsZeroAlloc(t *testing.T) {
	emptyPacketStash()
	if cold := packetStream(t, 64); cold.fresh == 0 {
		t.Fatal("test premise broken: a cold fabric made no packet record")
	}
	if warm := packetStream(t, 64); warm.fresh != 0 {
		t.Errorf("a warm fabric made %d packet records, want 0", warm.fresh)
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := sim.NewEngine(1)
	par := testParams()
	f := New(e, &par, 2)
	free := f.Free // bound once, like the fabric's own stages
	cycle := func() {
		f.NewPacket(0, 1, nil).At(e, e.Now()+1, free)
		e.Run(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("NewPacket→At→Free cycle allocates %.1f objects/op, want 0", allocs)
	}
	if f.fresh != 0 {
		t.Errorf("the cycle made %d packet records, want 0", f.fresh)
	}
}

// TestAdoptedRecordsCarryNoFabric: records a fabric handed on serve another
// fabric, on another engine and with another port count, exactly like its
// own: they deliver to the new fabric's ports and count only in its Stats,
// and a stage that fires after Free still panics.
func TestAdoptedRecordsCarryNoFabric(t *testing.T) {
	emptyPacketStash()
	old := packetStream(t, 8)
	before := old.Stats()

	e := sim.NewEngine(2)
	par := testParams()
	f := New(e, &par, 3)
	var got []*Packet
	f.AttachPort(2, func(pk *Packet) { got = append(got, pk) })
	e.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			f.Send(f.NewPacket(1, 2, []byte{byte(i)}), p.Now())
		}
	})
	e.Run(0)
	if f.fresh != 0 {
		t.Fatalf("test premise broken: the fabric made %d records instead of adopting", f.fresh)
	}
	if len(got) != 4 || f.Stats().Delivered != 4 || f.Stats().Injected != 4 {
		t.Errorf("adopted records delivered %d packets to the new port, stats %+v; want 4", len(got), f.Stats())
	}
	if old.Stats() != before {
		t.Errorf("the old fabric's stats moved from %+v to %+v", before, old.Stats())
	}

	pk := f.NewPacket(1, 2, nil)
	if pk.fire == nil {
		t.Fatal("test premise broken: the record has no bound stage callback")
	}
	pk.At(e, e.Now()+1, func(*Packet) { t.Error("a freed record ran its stage") })
	f.Free(pk)
	defer func() {
		if recover() == nil {
			t.Error("a stage firing after Free did not panic")
		}
	}()
	e.Run(0)
}
