package switchnet

import (
	"testing"

	"splapi/internal/sim"
)

// A dead record is recycled with every field reset but its bound stage
// callback, and Free guards against use after free: it clears what a stale
// holder could read or fire, and a second Free panics.
func TestPacketRecordRecycleAndDoubleFree(t *testing.T) {
	e := sim.NewEngine(1)
	par := testParams()
	f := New(e, &par, 2)
	pk := f.NewPacket(0, 1, []byte{1, 2, 3})
	pk.Route, pk.Checked = 3, true
	pk.At(e, 5, func(*Packet) {})
	e.Run(0)
	f.Free(pk)
	if pk.Payload != nil || pk.then != nil {
		t.Fatalf("Free left payload %v / stage set", pk.Payload)
	}
	again := f.NewPacket(1, 0, nil)
	if again != pk {
		t.Fatal("NewPacket did not reuse the freed record")
	}
	if again.Src != 1 || again.Dst != 0 || again.Route != 0 || again.Checked || again.free {
		t.Fatalf("recycled record not reset: %+v", again)
	}
	if again.fire == nil {
		t.Fatal("recycled record lost its bound stage callback")
	}
	f.Free(again)
	defer func() {
		if recover() == nil {
			t.Fatal("second Free of the same record did not panic")
		}
	}()
	f.Free(again)
}
