// First-divergence diffing of two event streams: the mechanical answer to
// "determinism broke somewhere". Two runs of the same (program, seed)
// must produce identical streams; the first index where they differ is
// adjacent to the code that consulted forbidden state.

package tracelog

import (
	"fmt"
	"io"
)

// Diff returns the index of the first divergent event between two
// streams, or -1 if they are identical (same length, same events).
// If one stream is a strict prefix of the other, the divergence index is
// the prefix length.
func Diff(a, b []Event) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// FormatDivergence writes a human report around divergence index idx:
// the event counts, the first differing pair, and ctx events of
// surrounding context from each stream.
func FormatDivergence(w io.Writer, a, b []Event, idx, ctx int) {
	fmt.Fprintf(w, "streams diverge at event %d (lengths %d vs %d)\n", idx, len(a), len(b))
	lo := idx - ctx
	if lo < 0 {
		lo = 0
	}
	fmt.Fprintf(w, "--- common prefix tail ---\n")
	for i := lo; i < idx; i++ {
		fmt.Fprintf(w, "  %6d  %s\n", i, a[i])
	}
	fmt.Fprintf(w, "--- stream A from %d ---\n", idx)
	writeTail(w, a, idx, ctx+1)
	fmt.Fprintf(w, "--- stream B from %d ---\n", idx)
	writeTail(w, b, idx, ctx+1)
}

func writeTail(w io.Writer, evs []Event, idx, n int) {
	if idx >= len(evs) {
		fmt.Fprintf(w, "  %6d  <end of stream>\n", idx)
		return
	}
	hi := idx + n
	if hi > len(evs) {
		hi = len(evs)
	}
	for i := idx; i < hi; i++ {
		fmt.Fprintf(w, "  %6d  %s\n", i, evs[i])
	}
}

// String renders one event for divergence reports.
func (e Event) String() string {
	s := fmt.Sprintf("t=%-12d node=%-2d %-7s %-18s peer=%-2d size=%-7d arg=%d",
		int64(e.T), e.Node, e.Layer, e.Kind, e.Peer, e.Size, e.Arg)
	if e.Msg != 0 {
		s += fmt.Sprintf(" msg=0x%x", e.Msg)
	}
	if e.Kind == KMPIEnter || e.Kind == KMPIExit {
		s += " " + OpName(e.Arg)
	}
	return s
}
