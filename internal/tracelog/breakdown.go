// Critical-path breakdown: events that carry a charged duration in Arg
// are summed into the paper's cost categories (copy, dispatch, context
// switch, wire, DMA), decomposing where a ping-pong round trip spends its
// virtual time.

package tracelog

// Category is a paper cost category (Section 6's latency decomposition).
type Category uint8

const (
	CatCopy      Category = iota // memory copies (send staging, reassembly, drain)
	CatDispatch                  // packet dispatch, matching, header handlers, call overhead
	CatCtxSwitch                 // completion-thread switches, inline-handler and interrupt overhead
	CatWire                      // serialization + switch latency + skew
	CatDMA                       // adapter DMA setup + transfer
	NumCategories
)

var categoryNames = [NumCategories]string{
	"copy", "dispatch", "ctx-switch", "wire", "dma",
}

func (c Category) String() string { return categoryNames[c] }

// categoryOf maps duration-carrying kinds to their category; kinds whose
// Arg is not a duration map to NumCategories (excluded).
func categoryOf(k Kind) Category {
	switch k {
	case KCopy:
		return CatCopy
	case KOverhead, KHALSend, KHALDispatch, KHdrHandler, KMatch, KCounter:
		return CatDispatch
	case KRdmaReg, KRdmaRead:
		// Registration pin/translate and request-descriptor service are
		// driver software costs; the RDMA data path itself charges only
		// DMA and wire time through the adapter/fabric kinds above.
		return CatDispatch
	case KCtxSwitch, KCmplInline, KIntrBurst:
		return CatCtxSwitch
	case KWire:
		return CatWire
	case KTxDMA, KRxDMA:
		return CatDMA
	}
	return NumCategories
}

// Breakdown sums charged durations (ns) per category over an event
// stream. Categories overlap in real time (DMA proceeds while the CPU
// copies), so the sum can exceed the elapsed virtual time.
func Breakdown(evs []Event) [NumCategories]int64 {
	var sums [NumCategories]int64
	for i := range evs {
		if c := categoryOf(evs[i].Kind); c < NumCategories {
			sums[c] += evs[i].Arg
		}
	}
	return sums
}
