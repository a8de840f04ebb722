package faults

import "splapi/internal/sim"

// presets are the named chaos plans used by cmd/chaos and accepted by
// every -faults flag, sorted by name. Windows are sized for the registry
// workloads (clean completion times of a few to a few tens of virtual
// milliseconds) so every run crosses several fault windows.
var presets = []Plan{
	// burst-loss: every ~6 ms the fabric drops about a third of all
	// packets for 1.2 ms — the bursty loss pattern that go-back-N with a
	// fixed timer handles worst, exercising retransmission and backoff.
	{Name: "burst-loss", Rules: []Rule{
		{Kind: Drop, From: 1 * sim.Millisecond, Until: 2200 * sim.Microsecond,
			Period: 6 * sim.Millisecond, Src: -1, Dst: -1, Route: -1, Prob: 0.35},
	}},

	// corruptor: 5% of packets get one payload byte flipped in the
	// switch. The HAL CRC check must catch every one; corrupt packets
	// count as losses for the reliability layers, never as deliveries.
	{Name: "corruptor", Rules: []Rule{
		{Kind: Corrupt, Src: -1, Dst: -1, Route: -1, Prob: 0.05},
	}},

	// flappy-route: individual switch routes flap down and up on
	// staggered periods, so the round-robin spray keeps hitting dead
	// routes and the fabric must fail packets over to live ones. At no
	// point are all four routes down.
	{Name: "flappy-route", Rules: []Rule{
		{Kind: LinkDown, From: 500 * sim.Microsecond, Until: 4500 * sim.Microsecond,
			Period: 8 * sim.Millisecond, Src: -1, Dst: -1, Route: 1},
		{Kind: LinkDown, From: 2 * sim.Millisecond, Until: 5 * sim.Millisecond,
			Period: 9 * sim.Millisecond, Src: -1, Dst: -1, Route: 2},
		{Kind: LinkDown, From: 3 * sim.Millisecond, Until: 3800 * sim.Microsecond,
			Period: 7 * sim.Millisecond, Src: -1, Dst: -1, Route: 0},
	}},

	// stalled-adapter: receive DMA engines freeze for ~a millisecond at
	// a time (a host hiccup on the adapter), delaying delivery enough to
	// fire retransmission timers without any packet actually being lost.
	{Name: "stalled-adapter", Rules: []Rule{
		{Kind: Stall, From: 1 * sim.Millisecond, Until: 2200 * sim.Microsecond,
			Period: 9 * sim.Millisecond, Src: -1, Dst: 1, Route: -1},
		{Kind: Stall, From: 4 * sim.Millisecond, Until: 4800 * sim.Microsecond,
			Period: 13 * sim.Millisecond, Src: -1, Dst: 0, Route: -1},
	}},
}
