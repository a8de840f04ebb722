package bench

import (
	"fmt"
	"io"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/tracelog"
)

// registryStacks lists every registered provider runnable on machine
// par, in registry order. The breakdown and stats reports iterate
// this — never a hand-maintained list — so a new provider appears in
// every table by registering. Providers that need memory registration
// are filtered by capability of the machine, not by name.
func registryStacks(par machine.Params) []mpci.Factory {
	var out []mpci.Factory
	for _, f := range mpci.Providers() {
		if f.Caps.ZeroCopyRendezvous && !par.RdmaSupported {
			continue
		}
		out = append(out, f)
	}
	return out
}

// PingPongBreakdown runs one traced ping-pong cell (paper parameters,
// seed 1) and decomposes the CPU/wire time per round trip into the
// tracelog breakdown categories: memory copies, dispatch/matching work,
// context switches, wire time, and adapter DMA. The trace covers warmup
// and barrier rounds too, so the sums are divided by the total round-trip
// count rather than the timed iterations.
func PingPongBreakdown(stack cluster.Stack, size int, interrupts bool) [tracelog.NumCategories]int64 {
	sums := tracelog.Breakdown(tracedPingPong(stack, size, interrupts))
	for i := range sums {
		sums[i] /= PingPongRoundTrips
	}
	return sums
}

// tracedPingPong runs one traced ping-pong cell and returns its events.
func tracedPingPong(stack cluster.Stack, size int, interrupts bool) []tracelog.Event {
	tl := tracelog.New(1 << 20)
	PingPongCell("", stack, size, interrupts, nil).Run(RunSpec{Seed: 1, Trace: tl})
	return tl.Events()
}

// PrintBreakdown prints the per-round-trip critical-path decomposition of
// the ping-pong benchmark for every registered provider, at the given
// message size, in microseconds per category. This is the quantitative
// form of the paper's Section 5 narrative: where the Base design pays
// context switches, where the native stack pays extra copies, and what
// the Enhanced design removes.
func PrintBreakdown(w io.Writer, size int, interrupts bool) {
	mode := "polling"
	if interrupts {
		mode = "interrupt"
	}
	fmt.Fprintf(w, "Ping-pong critical path per round trip (%d B, %s mode, us):\n", size, mode)
	fmt.Fprintf(w, "%-22s", "provider")
	for cat := tracelog.Category(0); cat < tracelog.NumCategories; cat++ {
		fmt.Fprintf(w, " %12s", cat)
	}
	fmt.Fprintf(w, " %12s\n", "sum")
	for _, f := range registryStacks(paperParams()) {
		sums := PingPongBreakdown(cluster.Stack(f.Name), size, interrupts)
		fmt.Fprintf(w, "%-22s", f.Name)
		var total int64
		for _, ns := range sums {
			total += ns
			fmt.Fprintf(w, " %12.2f", float64(ns)/1000)
		}
		fmt.Fprintf(w, " %12.2f\n", float64(total)/1000)
	}
}

// PrintRdvControl prints the rendezvous control and data traffic per
// round trip at the given (rendezvous-sized) message size: RTS and CTS
// control messages, body packets staged through the receive FIFO
// (KRdvData), and body chunks landing directly in registered regions
// (KRdmaData). Every provider emits the same control kinds — the native
// stack traces its in-stream RTS/CTS frames, and the rdma provider
// traces its pull request as the CTS — so the rows compare like for
// like: a zero-copy provider shows the same control shape but moves
// every body byte in the rdma-chunks column.
func PrintRdvControl(w io.Writer, size int) {
	fmt.Fprintf(w, "Rendezvous control traffic per round trip (%d B, polling mode):\n", size)
	fmt.Fprintf(w, "%-22s %12s %12s %12s %12s\n", "provider", "rts", "cts", "staged-body", "rdma-chunks")
	for _, f := range registryStacks(paperParams()) {
		var rts, cts, staged, chunks int64
		for _, ev := range tracedPingPong(cluster.Stack(f.Name), size, false) {
			switch ev.Kind {
			case tracelog.KSendRdv:
				rts++
			case tracelog.KRTSAck:
				cts++
			case tracelog.KRdvData:
				staged++
			case tracelog.KRdmaData:
				chunks++
			}
		}
		const rt = PingPongRoundTrips
		fmt.Fprintf(w, "%-22s %12.2f %12.2f %12.2f %12.2f\n", f.Name,
			float64(rts)/rt, float64(cts)/rt, float64(staged)/rt, float64(chunks)/rt)
	}
}

// PrintBreakdowns prints the decomposition at a small and a large message
// size, then the rendezvous control-traffic accounting at the large size
// (the spsim -exp breakdown report).
func PrintBreakdowns(w io.Writer) {
	PrintBreakdown(w, 64, false)
	fmt.Fprintln(w)
	PrintBreakdown(w, 16384, false)
	fmt.Fprintln(w)
	PrintRdvControl(w, 16384)
}
