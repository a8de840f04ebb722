package lapi

import (
	"encoding/binary"
	"slices"
	"testing"

	"splapi/internal/adapter"
	"splapi/internal/hal"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/switchnet"
)

// TestFlowWindowZeroAlloc pins the send window's array: acks trim the
// window from the front and sends append behind it, and a steady stream of
// 64 KiB Puts (65 packets each, through a 64-packet window) must keep
// compacting into one array instead of growing a new one every lap.
func TestFlowWindowZeroAlloc(t *testing.T) {
	r := newRig(t, 2, 1, Inline, nil)
	dst := make([]byte, 64<<10)
	bufID := r.ls[1].RegisterBuffer(dst)
	cmplC := r.ls[0].NewCounter()
	cmplID := r.ls[0].RegisterCounter(cmplC)
	msg := pattern(len(dst), 3)
	f := r.ls[0].flows[1]
	put := func(p *sim.Proc) {
		r.ls[0].Put(p, 1, bufID, 0, msg, -1, nil, cmplID)
		cmplC.Wait(p, 1)
	}
	moves, sent := -1, 0
	r.eng.Spawn("origin", func(p *sim.Proc) {
		put(p) // the warm-up message sizes the window's array
		array := &f.base[:1][0]
		moves = 0
		for i := 0; i < 10; i++ {
			put(p)
			if &f.base[:1][0] != array {
				moves++
				array = &f.base[:1][0]
			}
		}
		sent = int(f.nextSeq)
	})
	r.eng.Spawn("target", func(p *sim.Proc) {
		r.ls[1].h.ProgressWait(p, func() bool { return false })
	})
	r.eng.Run(sim.Second)
	if moves != 0 {
		t.Errorf("the send window moved to a new array %d times in 10 messages, want 0", moves)
	}
	if sent <= 11*f.windowPkts() {
		t.Fatalf("only %d packets sent; the stream never lapped the %d-packet window", sent, f.windowPkts())
	}
}

// A go-back-N retransmit walks the window across blocking HAL sends. When
// an ack trims the front meanwhile and a send appends behind the window,
// push must not compact the entries under the walk: it would resend other
// sequence numbers than it set out to. The script below has node 1 record
// every packet that reaches it (it never acks), and drives the ack itself.
func TestRetransmitWalkSurvivesCompaction(t *testing.T) {
	eng := sim.NewEngine(1)
	par := machine.SP332()
	par.PipeWindowBytes = 8 * par.PacketPayload // an 8-packet window
	par.RetransmitTimeout = sim.Second          // no timer-driven resend
	fab := switchnet.New(eng, &par, 2)
	h := hal.New(eng, &par, adapter.New(eng, &par, fab, 0))
	l := New(eng, &par, h, 2, Inline)
	var arrived []uint64
	fab.AttachPort(1, func(pk *switchnet.Packet) {
		arrived = append(arrived, binary.BigEndian.Uint64(pk.Payload[2:10]))
		fab.Release(pk)
	})
	f := l.flows[1]
	w := f.windowPkts()
	body := []byte{1, 2, 3}

	var walked []uint64
	walking, appendedDuringWalk := false, false
	eng.Spawn("script", func(p *sim.Proc) {
		for i := 0; i < w; i++ {
			f.send(p, kData, body)
		}
		if len(f.unacked) != cap(f.unacked) {
			t.Fatalf("window of %d packets in an array of %d: a send would not compact", len(f.unacked), cap(f.unacked))
		}
		p.Sleep(sim.Millisecond) // every original has arrived
		for _, pk := range f.unacked {
			walked = append(walked, pk.seq)
		}
		walking = true
		eng.Spawn("walker", func(p *sim.Proc) {
			f.retransmit(p)
			walking = false
		})
		// Ack the packets the walk has resent, then append two new ones
		// while it is still walking.
		sent0 := h.Stats().PacketsSent
		for h.Stats().PacketsSent < sent0+2 {
			p.Sleep(sim.Nanosecond)
		}
		f.onAck(f.unacked[0].seq + 2)
		f.send(p, kData, body)
		f.send(p, kData, body)
		appendedDuringWalk = walking
		for walking {
			p.Sleep(sim.Microsecond)
		}
		f.onAck(f.nextSeq)
		p.Sleep(sim.Millisecond) // every resend has arrived
	})
	eng.Run(0)

	if !appendedDuringWalk {
		t.Fatal("the walk ended before the script appended behind the window")
	}
	var want []uint64
	for seq := uint64(0); seq < f.nextSeq; seq++ {
		want = append(want, seq) // every original once
	}
	want = append(want, walked...) // and every packet the walk started with
	slices.Sort(want)
	slices.Sort(arrived)
	if !slices.Equal(arrived, want) {
		t.Errorf("packets arrived with sequence numbers\n%v\nwant\n%v", arrived, want)
	}
}
