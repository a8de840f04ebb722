package chaos

import (
	"testing"

	"splapi/internal/faults"
	"splapi/internal/machine"
	"splapi/internal/trace"
)

// outcomePins are every workload's clean outcome at seeds 1 and 2 and its
// faulted outcome under each preset at seed 1, captured at 8e8768c. Any
// change to the harness's byte work or to the CG kernel's arithmetic must
// leave every field equal.
var outcomePins = []struct {
	workload, plan string
	seed           int64
	want           Outcome
}{
	{"pingpong-enhanced", "", 1, Outcome{VTime: 9876489, Digest: 0xba641ac96a8e5dd5, Ok: true,
		Counters: trace.Counters{PacketsSent: 465, Injected: 465, Delivered: 465, BytesWire: 363314, Timeouts: 1}}},
	{"pingpong-enhanced", "", 2, Outcome{VTime: 9876489, Digest: 0xba641ac96a8e5dd5, Ok: true,
		Counters: trace.Counters{PacketsSent: 465, Injected: 465, Delivered: 465, BytesWire: 363314, Timeouts: 1}}},
	{"pingpong-enhanced", "burst-loss", 1, Outcome{VTime: 13936921, Digest: 0xba641ac96a8e5dd5, Ok: true,
		Counters: trace.Counters{PacketsSent: 476, Retransmits: 2, Injected: 476, Delivered: 471, Dropped: 5, BytesWire: 368436, Timeouts: 3}}},
	{"pingpong-enhanced", "corruptor", 1, Outcome{VTime: 50997978, Digest: 0xba641ac96a8e5dd5, Ok: true,
		Counters: trace.Counters{PacketsSent: 776, Retransmits: 23, Injected: 776, Delivered: 776, BytesWire: 491092, Timeouts: 24, Corrupted: 39, CorruptDrops: 40}}},
	{"pingpong-enhanced", "flappy-route", 1, Outcome{VTime: 9881889, Digest: 0xba641ac96a8e5dd5, Ok: true,
		Counters: trace.Counters{PacketsSent: 465, Injected: 465, Delivered: 465, BytesWire: 363314, Timeouts: 1, RouteMasked: 254}}},
	{"pingpong-enhanced", "stalled-adapter", 1, Outcome{VTime: 11850177, Digest: 0xba641ac96a8e5dd5, Ok: true,
		Counters: trace.Counters{PacketsSent: 465, Injected: 465, Delivered: 465, BytesWire: 363314, Timeouts: 1, StallDelays: 21}}},
	{"ring-native", "", 1, Outcome{VTime: 5115927, Digest: 0x1c92950a0d9a3009, Ok: true,
		Counters: trace.Counters{PacketsSent: 504, Injected: 504, Delivered: 504, BytesWire: 376276, Timeouts: 4}}},
	{"ring-native", "", 2, Outcome{VTime: 5115927, Digest: 0x1c92950a0d9a3009, Ok: true,
		Counters: trace.Counters{PacketsSent: 504, Injected: 504, Delivered: 504, BytesWire: 376276, Timeouts: 4}}},
	{"ring-native", "burst-loss", 1, Outcome{VTime: 7707364, Digest: 0x1c92950a0d9a3009, Ok: true,
		Counters: trace.Counters{PacketsSent: 662, Retransmits: 4, Injected: 662, Delivered: 620, Dropped: 42, BytesWire: 444564, Timeouts: 5}}},
	{"ring-native", "corruptor", 1, Outcome{VTime: 26089276, Digest: 0x1c92950a0d9a3009, Ok: true,
		Counters: trace.Counters{PacketsSent: 899, Retransmits: 17, Injected: 899, Delivered: 899, Reordered: 3, BytesWire: 530626, Timeouts: 18, Corrupted: 49, CorruptDrops: 49}}},
	{"ring-native", "flappy-route", 1, Outcome{VTime: 5122827, Digest: 0x1c92950a0d9a3009, Ok: true,
		Counters: trace.Counters{PacketsSent: 504, Injected: 504, Delivered: 504, BytesWire: 376276, Timeouts: 4, RouteMasked: 312}}},
	{"ring-native", "stalled-adapter", 1, Outcome{VTime: 7132155, Digest: 0x1c92950a0d9a3009, Ok: true,
		Counters: trace.Counters{PacketsSent: 509, Injected: 509, Delivered: 509, BytesWire: 376406, Timeouts: 2, StallDelays: 29}}},
	{"nas-cg", "", 1, Outcome{VTime: 14106089, Digest: 0x41016381ead7cac5, Ok: true,
		Counters: trace.Counters{}}},
	{"nas-cg", "", 2, Outcome{VTime: 14106089, Digest: 0x41016381ead7cac5, Ok: true,
		Counters: trace.Counters{}}},
	{"nas-cg", "burst-loss", 1, Outcome{VTime: 22149603, Digest: 0x41016381ead7cac5, Ok: true,
		Counters: trace.Counters{}}},
	{"nas-cg", "corruptor", 1, Outcome{VTime: 54128843, Digest: 0x41016381ead7cac5, Ok: true,
		Counters: trace.Counters{}}},
	{"nas-cg", "flappy-route", 1, Outcome{VTime: 14119389, Digest: 0x41016381ead7cac5, Ok: true,
		Counters: trace.Counters{}}},
	{"nas-cg", "stalled-adapter", 1, Outcome{VTime: 16405297, Digest: 0x41016381ead7cac5, Ok: true,
		Counters: trace.Counters{}}},
}

func TestOutcomesPinned(t *testing.T) {
	for _, pin := range outcomePins {
		wl, err := WorkloadByName(pin.workload)
		if err != nil {
			t.Fatal(err)
		}
		par := machine.SP332()
		if pin.plan != "" {
			if par.Faults, err = faults.Parse(pin.plan); err != nil {
				t.Fatal(err)
			}
		}
		if got := wl.Run(par, pin.seed); got != pin.want {
			t.Errorf("%s plan=%q seed=%d:\n got %+v\nwant %+v", pin.workload, pin.plan, pin.seed, got, pin.want)
		}
	}
}
