package bench

import (
	"strings"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/mpci"
)

// latency and bandwidth run one cell at seed 1 with no overrides: the text
// reports' path through the cell constructor.
func latency(stack cluster.Stack, size int, interrupts bool) float64 {
	return PingPongCell("", stack, size, interrupts, nil).Run(RunSpec{Seed: 1}).Value
}

func bandwidth(stack cluster.Stack, size, count int) float64 {
	return BandwidthCell("", stack, size, count, nil).Run(RunSpec{Seed: 1}).Value
}

// TestFig11Shape asserts the paper's Figure 11 findings: native MPI wins
// for very small messages (LAPI's parameter checking and larger headers),
// MPI-LAPI wins beyond the crossover, with a material improvement at large
// sizes.
func TestFig11Shape(t *testing.T) {
	tiny := 8
	nativeTiny := latency(cluster.Native, tiny, false)
	lapiTiny := latency(cluster.LAPIEnhanced, tiny, false)
	if nativeTiny >= lapiTiny {
		t.Errorf("tiny message: native %.2fus should beat MPI-LAPI %.2fus", nativeTiny, lapiTiny)
	}
	big := 16384
	nativeBig := latency(cluster.Native, big, false)
	lapiBig := latency(cluster.LAPIEnhanced, big, false)
	imp := (nativeBig - lapiBig) / nativeBig * 100
	if imp < 10 {
		t.Errorf("16KB: improvement %.1f%%, want >= 10%% (native copies dominate)", imp)
	}
}

// TestFig12Shape asserts the Figure 12 findings: MPI-LAPI bandwidth is
// higher over the mid-size range, and the curves converge at very large
// sizes (the 16 KB head/tail copy rule stops mattering).
func TestFig12Shape(t *testing.T) {
	nMid := bandwidth(cluster.Native, 16384, 48)
	lMid := bandwidth(cluster.LAPIEnhanced, 16384, 48)
	if lMid <= nMid {
		t.Errorf("16KB bandwidth: MPI-LAPI %.1f should exceed native %.1f MB/s", lMid, nMid)
	}
	gapMid := (lMid - nMid) / nMid
	nBig := bandwidth(cluster.Native, 1<<20, 8)
	lBig := bandwidth(cluster.LAPIEnhanced, 1<<20, 8)
	gapBig := (lBig - nBig) / nBig
	if gapBig >= gapMid {
		t.Errorf("bandwidth gap should shrink at 1MB: mid %.1f%%, big %.1f%%", gapMid*100, gapBig*100)
	}
	if nBig < 60 || lBig < 60 {
		t.Errorf("peak bandwidths implausibly low: native %.1f, lapi %.1f MB/s", nBig, lBig)
	}
}

// TestFig13Shape asserts the Figure 13 findings: in interrupt mode native
// MPI performs far worse (its hysteresis dwell delays completion), while
// MPI-LAPI stays close to its polling latency.
func TestFig13Shape(t *testing.T) {
	native := latency(cluster.Native, 8, true)
	lapiE := latency(cluster.LAPIEnhanced, 8, true)
	if native < 2*lapiE {
		t.Errorf("interrupt mode 8B: native %.1fus should be >= 2x MPI-LAPI %.1fus", native, lapiE)
	}
	lapiPoll := latency(cluster.LAPIEnhanced, 8, false)
	if lapiE > 3*lapiPoll {
		t.Errorf("MPI-LAPI interrupt latency %.1fus implausibly above polling %.1fus", lapiE, lapiPoll)
	}
}

// TestFig10Shape asserts the Figure 10 findings: raw LAPI is fastest; the
// Base design pays the completion-handler context switch; the Counters
// design recovers it for eager (small) messages only; Enhanced recovers it
// everywhere and comes close to raw LAPI.
func TestFig10Shape(t *testing.T) {
	const small = 16
	raw := latency(cluster.RawLAPI, small, false)
	base := latency(cluster.LAPIBase, small, false)
	counters := latency(cluster.LAPICounters, small, false)
	enhanced := latency(cluster.LAPIEnhanced, small, false)
	if !(raw < enhanced && enhanced < base) {
		t.Errorf("ordering violated: raw %.1f, enhanced %.1f, base %.1f", raw, enhanced, base)
	}
	if base-enhanced < 20 {
		t.Errorf("base should pay ~context switch over enhanced: %.1f vs %.1f", base, enhanced)
	}
	if counters-enhanced > 3 {
		t.Errorf("counters should track enhanced for eager messages: %.1f vs %.1f", counters, enhanced)
	}
	// Rendezvous sizes: counters no longer helps (Section 5.2).
	const mid = 1024
	baseMid := latency(cluster.LAPIBase, mid, false)
	countersMid := latency(cluster.LAPICounters, mid, false)
	enhancedMid := latency(cluster.LAPIEnhanced, mid, false)
	if countersMid < baseMid-3 {
		t.Errorf("counters should match base for rendezvous: %.1f vs %.1f", countersMid, baseMid)
	}
	if enhancedMid >= baseMid {
		t.Errorf("enhanced should beat base at 1KB: %.1f vs %.1f", enhancedMid, baseMid)
	}
	// Enhanced tracks raw LAPI within the matching/locking overhead.
	if enhanced-raw > 10 {
		t.Errorf("enhanced %.1fus too far above raw LAPI %.1fus", enhanced, raw)
	}
}

// TestDeterministicMeasurements locks reproducibility: repeated experiment
// runs yield identical numbers.
func TestDeterministicMeasurements(t *testing.T) {
	a := latency(cluster.Native, 1024, false)
	b := latency(cluster.Native, 1024, false)
	if a != b {
		t.Fatalf("nondeterministic latency: %v vs %v", a, b)
	}
	x := bandwidth(cluster.LAPIEnhanced, 4096, 16)
	y := bandwidth(cluster.LAPIEnhanced, 4096, 16)
	if x != y {
		t.Fatalf("nondeterministic bandwidth: %v vs %v", x, y)
	}
}

// TestAblateCtxSwitchMonotone: the Base design's latency grows with the
// context-switch cost while Enhanced stays flat (Section 5.2's diagnosis).
func TestAblateCtxSwitchMonotone(t *testing.T) {
	s := SeriesOf(AblateCtxSwitchExperiment(), 1, nil)
	basePts, enhPts := s[0].Points, s[1].Points
	for i := 1; i < len(basePts); i++ {
		if basePts[i].Value <= basePts[i-1].Value {
			t.Errorf("base latency must grow with ctx-switch cost: %v", basePts)
		}
	}
	for i := 1; i < len(enhPts); i++ {
		if enhPts[i].Value != enhPts[0].Value {
			t.Errorf("enhanced latency must not depend on ctx-switch cost: %v", enhPts)
		}
	}
}

// TestAblateCopiesExplainsGap: removing the native 16 KB copy rule recovers
// most of the bandwidth gap to MPI-LAPI (Section 2's diagnosis).
func TestAblateCopiesExplainsGap(t *testing.T) {
	s := SeriesOf(AblateCopiesExperiment(), 1, nil)
	for i := range s[0].Points {
		withRule := s[0].Points[i].Value
		without := s[1].Points[i].Value
		lapiV := s[2].Points[i].Value
		if without <= withRule {
			t.Errorf("size %d: removing copies should raise bandwidth (%.1f -> %.1f)",
				s[0].Points[i].Size, withRule, without)
		}
		if (lapiV-without)/lapiV > 0.10 {
			t.Errorf("size %d: copies removed (%.1f) should close most of the gap to MPI-LAPI (%.1f)",
				s[0].Points[i].Size, without, lapiV)
		}
	}
}

// TestPrintersProduceTables smoke-tests the report formatting.
func TestPrintersProduceTables(t *testing.T) {
	var sb strings.Builder
	PrintSeries(&sb, "t", "us", []Series{{Label: "a", Points: []Point{{1, 2.0}}}})
	if !strings.Contains(sb.String(), "size(B)") || !strings.Contains(sb.String(), "2.00") {
		t.Fatalf("bad table: %q", sb.String())
	}
	sb.Reset()
	PrintTable2(&sb)
	out := sb.String()
	for _, want := range []string{"standard", "ready", "sync", "buffered", "eager", "rendezvous"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

// TestGenerationsSensitivity: the paper's findings must hold on both node
// generations, with larger absolute gaps on the slower 160 MHz nodes.
func TestGenerationsSensitivity(t *testing.T) {
	s := NodeGenerations()
	for gen := 0; gen < 2; gen++ {
		native, lapiE := s[0].Points[gen].Value, s[1].Points[gen].Value
		if lapiE >= native {
			t.Errorf("gen %d: MPI-LAPI 16KB latency %.1f should beat native %.1f", gen, lapiE, native)
		}
		if s[2].Points[gen].Value <= 0 {
			t.Errorf("gen %d: Base must pay a positive ctx-switch gap", gen)
		}
	}
	if s[2].Points[1].Value <= s[2].Points[0].Value {
		t.Errorf("the Base-Enhanced gap should widen on the slower node: %.1f vs %.1f",
			s[2].Points[1].Value, s[2].Points[0].Value)
	}
}

// TestRegistryStacksFilterByCapability: on a machine generation without
// memory registration the report tables drop exactly the providers whose
// registered capability set says ZeroCopyRendezvous — nothing about a
// provider but that one field decides it.
func TestRegistryStacksFilterByCapability(t *testing.T) {
	if got, all := len(registryStacks(machine.SP332())), len(mpci.Providers()); got != all {
		t.Fatalf("sp332 runs %d of %d providers, want all", got, all)
	}
	kept := map[string]bool{}
	for _, f := range registryStacks(machine.SP160()) {
		kept[f.Name] = true
	}
	dropped := 0
	for _, f := range mpci.Providers() {
		if kept[f.Name] == f.Caps.ZeroCopyRendezvous {
			t.Errorf("%s: kept on sp160 = %v with ZeroCopyRendezvous = %v", f.Name, kept[f.Name], f.Caps.ZeroCopyRendezvous)
		}
		if !kept[f.Name] {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no registered provider needs memory registration: the filter is untested")
	}
}
