package lapi

import (
	"bytes"
	"testing"

	"splapi/internal/machine"
	"splapi/internal/sim"
)

// TestRecvRecordsZeroAlloc: finishMsg returns every receive record to its
// endpoint's free list, so once a stream of Amsends and Puts (data packets
// overtaking headers included) has warmed both endpoints, it makes no new
// recvMsg on either side.
func TestRecvRecordsZeroAlloc(t *testing.T) {
	r := newRig(t, 2, 3, Inline, func(p *machine.Params) {
		p.RouteSkew = 60 * sim.Microsecond
	})
	buf := make([]byte, 16<<10)
	r.ls[1].RegisterHeaderHandler(func(p *sim.Proc, src int, uhdr []byte, dataLen int) ([]byte, CmplHandler, any) {
		return buf, func(*sim.Proc, any) {}, nil
	})
	r.ls[0].RegisterHeaderHandler(nil)
	bufID := r.ls[1].RegisterBuffer(make([]byte, len(buf)))
	r.ls[1].RegisterCounter(r.ls[1].NewCounter())
	cmpl := r.ls[0].NewCounter()
	cmplID := r.ls[0].RegisterCounter(cmpl)
	msg := pattern(len(buf), 7)
	made := func() uint64 { return r.ls[0].recvMade + r.ls[1].recvMade }
	warm, steady := uint64(0), uint64(0)
	r.eng.Spawn("origin", func(p *sim.Proc) {
		round := func() {
			r.ls[0].Amsend(p, 1, 0, nil, msg, -1, nil, cmplID)
			r.ls[0].Put(p, 1, bufID, 0, msg, -1, nil, cmplID)
			cmpl.Wait(p, 2)
		}
		round()
		warm = made()
		for i := 0; i < 10; i++ {
			round()
		}
		steady = made() - warm
	})
	r.eng.Spawn("target", func(p *sim.Proc) {
		r.ls[1].HAL().ProgressWait(p, func() bool { return false })
	})
	r.eng.Run(sim.Second)
	if warm == 0 || !bytes.Equal(buf, msg) {
		t.Fatalf("test premise broken: warm-up made %d records, Amsend data intact %v", warm, bytes.Equal(buf, msg))
	}
	if r.ls[1].Stats().StashedPackets == 0 {
		t.Fatal("test premise broken: no data packet overtook its header")
	}
	if steady != 0 {
		t.Errorf("a warm stream of 20 messages made %d receive records, want 0", steady)
	}
}

// TestThreadedCompletionOutlivesRecord: under the Threaded (Base) regime the
// completion thread runs a message's completion after finishMsg has handed
// its record back, and the dispatcher has reused it for the next message.
// So the queued completion must carry its own target counter, completion
// counter and origin. Origins 0 and 2 each send back-to-back Amsends to
// their own target counter on node 1, and the completion thread's context
// switch lets the other origin's message take the record meanwhile: each
// target counter must bump once per message, and each origin must get
// exactly its own notifies.
func TestThreadedCompletionOutlivesRecord(t *testing.T) {
	const perOrigin = 3
	r := newRig(t, 3, 1, Threaded, nil)
	buf := make([]byte, 64)
	// Every node registers the same handler and counters 0 to 4: on node 1
	// counter o+1 is origin o's target counter, on the origins counter 4
	// is the completion counter; every other counter must stay 0.
	cntrs := make([][]*Counter, len(r.ls))
	for n, l := range r.ls {
		l.RegisterHeaderHandler(func(p *sim.Proc, src int, uhdr []byte, dataLen int) ([]byte, CmplHandler, any) {
			return buf, func(*sim.Proc, any) {}, nil
		})
		for i := 0; i < 5; i++ {
			cntrs[n] = append(cntrs[n], l.NewCounter())
			l.RegisterCounter(cntrs[n][i])
		}
	}
	for n, l := range r.ls {
		r.eng.Spawn("task", func(p *sim.Proc) {
			for i := 0; n != 1 && i < perOrigin; i++ {
				l.Amsend(p, 1, 0, nil, pattern(32, byte(n)), n+1, nil, 4)
			}
			l.HAL().ProgressWait(p, func() bool { return false })
		})
	}
	r.eng.Run(sim.Second)
	if got := r.ls[1].Stats().CmplThreaded; got != 2*perOrigin {
		t.Fatalf("test premise broken: %d threaded completions, want %d", got, 2*perOrigin)
	}
	want := [][]int{
		{0, 0, 0, 0, perOrigin},
		{0, perOrigin, 0, perOrigin, 0},
		{0, 0, 0, 0, perOrigin},
	}
	for n, cs := range cntrs {
		for i, c := range cs {
			if c.Value() != want[n][i] {
				t.Errorf("node %d counter %d = %d, want %d", n, i, c.Value(), want[n][i])
			}
		}
	}
}
