package bench

import (
	"fmt"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/sim"
	"splapi/internal/trace"
	"splapi/internal/tracelog"
)

// This file turns the figure drivers into data: every experiment is a list
// of cells, each a self-contained measurement (it builds its own cluster,
// hence its own sim.Engine) parameterized by seed and by machine-parameter
// overrides. The text reports (SeriesOf at seed 1) run the cells serially;
// the parallel sweep harness (internal/sweep) runs the same cells across a
// seed list on a worker pool. Because each cell is a fully independent
// deterministic universe, the two paths produce bit-identical values.

// ParamMod mutates a cost model before a cell run (a machine-parameter
// override in the sweep matrix). It is applied after the cell's own
// overrides, so matrix-level overrides win.
type ParamMod func(*machine.Params)

// Measurement is the outcome of one cell run at one seed.
type Measurement struct {
	// Value is the reproduced quantity: microseconds for latency cells,
	// MB/s for bandwidth cells.
	Value float64
	// VirtualTime is the total virtual time the simulated run consumed.
	VirtualTime sim.Time
	// Trace is the layered statistics report of the run's cluster, so
	// fabric and protocol counters ride along with the timing.
	Trace *trace.Report
	// SeedFree records that the run never drew from its engine's random
	// source, so every seed would have measured exactly this. The zero
	// value means unknown: run every seed.
	SeedFree bool
}

// Cell is one point of an experiment: a series label, an x value, and the
// measurement function.
type Cell struct {
	// Series is the curve this point belongs to (e.g. "Native MPI").
	Series string
	// X is the sweep coordinate: message size in bytes for the figures,
	// the ablated quantity for ablations.
	X int
	// Run executes the cell in a fresh simulated universe per rc.
	Run func(rc RunSpec) Measurement
}

// RunSpec parameterizes one cell run. The zero Mod/Trace are the common
// case: unmodified cost model, untraced.
type RunSpec struct {
	// Seed reaches the run only through its engine (cluster.Config.Seed →
	// sim.NewEngine, read only by Engine.Rand), which is what lets
	// Measurement.SeedFree be proven rather than assumed.
	Seed int64
	// Mod mutates the cost model after the cell's own overrides.
	Mod ParamMod
	// Trace, when non-nil, attaches an event log to the cell's cluster.
	Trace *tracelog.Log
}

// Direction declares which way is "better" for an experiment's metric, so
// the regression gate never has to guess from unit spelling.
type Direction string

const (
	// LowerIsBetter: latencies, costs — a rise is a regression.
	LowerIsBetter Direction = "lower-better"
	// HigherIsBetter: bandwidths, rates — a drop is a regression.
	HigherIsBetter Direction = "higher-better"
)

// ParseDirection validates a direction string from an artifact.
func ParseDirection(s string) (Direction, error) {
	switch Direction(s) {
	case LowerIsBetter, HigherIsBetter:
		return Direction(s), nil
	}
	return "", fmt.Errorf("bench: unknown regression direction %q", s)
}

// Experiment is a named set of cells with presentation metadata.
type Experiment struct {
	ID    string
	Title string
	Unit  string
	// Direction declares the harmful movement for the metric; the sweep
	// harness requires it and persists it, and the regression gate reads it.
	Direction Direction
	Cells     []Cell
}

// newCell is the one cell constructor: every cell builds its cluster here.
// cfg carries the cell's shape (Nodes, Stack, Interrupts); each run fills
// in its seed, event log and cost model — paperParams with the cell's own
// overrides applied first and the run's Mod last, so matrix-level overrides
// win. body measures on the built cluster.
func newCell(series string, x int, cfg cluster.Config, overrides ParamMod, body func(*cluster.Cluster) float64) Cell {
	return Cell{Series: series, X: x, Run: func(rc RunSpec) Measurement {
		par := paperParams()
		if overrides != nil {
			overrides(&par)
		}
		if rc.Mod != nil {
			rc.Mod(&par)
		}
		cfg := cfg
		cfg.Seed, cfg.Params, cfg.Trace = rc.Seed, &par, rc.Trace
		c := cluster.New(cfg)
		v := body(c)
		return Measurement{Value: v, VirtualTime: c.Now(), Trace: trace.Collect(c), SeedFree: !c.Eng.RandUsed()}
	}}
}

// PingPongCell builds a two-node latency cell (one-way microseconds); x is
// the message size. On cluster.RawLAPI it is the LAPI_Put ping-pong of
// Section 5.1, which has no interrupt-mode variant.
func PingPongCell(series string, stack cluster.Stack, size int, interrupts bool, overrides ParamMod) Cell {
	if stack == cluster.RawLAPI {
		return newCell(series, size, cluster.Config{Nodes: 2, Stack: stack}, overrides,
			func(c *cluster.Cluster) float64 { return runRawLAPIPingPong(c, size) })
	}
	return newCell(series, size, cluster.Config{Nodes: 2, Stack: stack, Interrupts: interrupts}, overrides,
		func(c *cluster.Cluster) float64 { return runPingPong(c, size, interrupts) })
}

// BandwidthCell builds a two-node streaming-bandwidth cell (MB/s) of count
// messages; x is the message size.
func BandwidthCell(series string, stack cluster.Stack, size, count int, overrides ParamMod) Cell {
	return newCell(series, size, cluster.Config{Nodes: 2, Stack: stack}, overrides,
		func(c *cluster.Cluster) float64 { return runBandwidth(c, size, count) })
}

// RingExperiment: aggregate ring-exchange throughput as the job grows
// (64 KiB x 16 messages per rank, barrier-delimited). The 16-node cell is
// the largest committed workload.
func RingExperiment() Experiment {
	// A multi-node neighbour-exchange cell (aggregate MB/s); x is the node
	// count.
	ringCell := func(series string, stack cluster.Stack, nodes int) Cell {
		return newCell(series, nodes, cluster.Config{Nodes: nodes, Stack: stack}, nil,
			func(c *cluster.Cluster) float64 { return runRing(c, 65536, 16) })
	}
	e := Experiment{
		ID:        "ring",
		Title:     "Ring exchange: aggregate neighbour throughput vs node count",
		Unit:      "MB/s",
		Direction: HigherIsBetter,
	}
	for _, n := range []int{4, 8, 16} {
		e.Cells = append(e.Cells,
			ringCell("Native MPI", cluster.Native, n),
			ringCell("MPI-LAPI Enhanced", cluster.LAPIEnhanced, n),
		)
	}
	return e
}

// Fig10Experiment: raw LAPI vs the three MPI-LAPI designs (one-way time).
func Fig10Experiment() Experiment {
	e := Experiment{
		ID:        "fig10",
		Title:     "Figure 10: raw LAPI vs MPI-LAPI designs (one-way time, polling)",
		Unit:      "us",
		Direction: LowerIsBetter,
	}
	for _, s := range sweepSizes() {
		e.Cells = append(e.Cells,
			PingPongCell("RAW LAPI", cluster.RawLAPI, s, false, nil),
			PingPongCell("MPI-LAPI Base", cluster.LAPIBase, s, false, nil),
			PingPongCell("MPI-LAPI Counters", cluster.LAPICounters, s, false, nil),
			PingPongCell("MPI-LAPI Enhanced", cluster.LAPIEnhanced, s, false, nil),
		)
	}
	return e
}

// Fig11Experiment: polling latency, native MPI vs MPI-LAPI Enhanced.
func Fig11Experiment() Experiment {
	e := Experiment{
		ID:        "fig11",
		Title:     "Figure 11: native MPI vs MPI-LAPI Enhanced (one-way latency, polling)",
		Unit:      "us",
		Direction: LowerIsBetter,
	}
	for _, s := range latencySizes() {
		e.Cells = append(e.Cells,
			PingPongCell("Native MPI", cluster.Native, s, false, nil),
			PingPongCell("MPI-LAPI Enhanced", cluster.LAPIEnhanced, s, false, nil),
		)
	}
	return e
}

// Fig12Experiment: streaming bandwidth, native MPI vs MPI-LAPI Enhanced.
func Fig12Experiment() Experiment {
	e := Experiment{
		ID:        "fig12",
		Title:     "Figure 12: native MPI vs MPI-LAPI Enhanced (streaming bandwidth)",
		Unit:      "MB/s",
		Direction: HigherIsBetter,
	}
	for _, s := range []int{256, 1024, 4096, 16384, 65536, 262144, 1 << 20} {
		count := 64
		if s >= 262144 {
			count = 16
		}
		e.Cells = append(e.Cells,
			BandwidthCell("Native MPI", cluster.Native, s, count, nil),
			BandwidthCell("MPI-LAPI Enhanced", cluster.LAPIEnhanced, s, count, nil),
		)
	}
	return e
}

// Fig13Experiment: interrupt-mode latency, native MPI vs MPI-LAPI Enhanced.
func Fig13Experiment() Experiment {
	e := Experiment{
		ID:        "fig13",
		Title:     "Figure 13: native MPI vs MPI-LAPI Enhanced (one-way latency, interrupt mode)",
		Unit:      "us",
		Direction: LowerIsBetter,
	}
	for _, s := range latencySizes() {
		e.Cells = append(e.Cells,
			PingPongCell("Native MPI", cluster.Native, s, true, nil),
			PingPongCell("MPI-LAPI Enhanced", cluster.LAPIEnhanced, s, true, nil),
		)
	}
	return e
}

// AblateCtxSwitchExperiment sweeps the thread context-switch cost
// (Section 5.2); x is the cost in microseconds.
func AblateCtxSwitchExperiment() Experiment {
	e := Experiment{
		ID:        "ablate-ctxswitch",
		Title:     "Ablation (Section 5.2): completion-handler thread context-switch cost",
		Unit:      "us",
		Direction: LowerIsBetter,
	}
	for _, cost := range []sim.Time{0, 7 * sim.Microsecond, 14 * sim.Microsecond, 28 * sim.Microsecond, 56 * sim.Microsecond} {
		cost := cost
		ov := func(par *machine.Params) { par.ThreadContextSwitch = cost }
		x := int(cost / sim.Microsecond)
		base := PingPongCell("MPI-LAPI Base (64B)", cluster.LAPIBase, 64, false, ov)
		base.X = x
		enh := PingPongCell("MPI-LAPI Enhanced (64B)", cluster.LAPIEnhanced, 64, false, ov)
		enh.X = x
		e.Cells = append(e.Cells, base, enh)
	}
	return e
}

// AblateCopiesExperiment disables the native 16 KB head/tail copy rule
// (Section 2); x is the message size. The last series extends the copy
// ablation past what the paper could build: the rdma provider removes the
// rendezvous staging copy entirely (bodies move between registered user
// buffers), bounding how much bandwidth the remaining copies still cost
// the Enhanced design.
func AblateCopiesExperiment() Experiment {
	e := Experiment{
		ID:        "ablate-copies",
		Title:     "Ablation (Section 2): native user<->pipe copy rule vs bandwidth",
		Unit:      "MB/s",
		Direction: HigherIsBetter,
	}
	noCopy := func(par *machine.Params) { par.PipeHeadTailCopyBytes = 0 }
	for _, size := range []int{4096, 16384, 65536, 262144} {
		const count = 64
		e.Cells = append(e.Cells,
			BandwidthCell("Native (16KB copy rule)", cluster.Native, size, count, nil),
			BandwidthCell("Native (copies removed)", cluster.Native, size, count, noCopy),
			BandwidthCell("MPI-LAPI Enhanced", cluster.LAPIEnhanced, size, count, nil),
			BandwidthCell("RDMA zero-copy rendezvous", cluster.RDMA, size, count, nil),
		)
	}
	return e
}

// AblateEagerExperiment sweeps the eager limit (Section 4); x is the limit
// in bytes.
func AblateEagerExperiment() Experiment {
	e := Experiment{
		ID:        "ablate-eager",
		Title:     "Ablation (Section 4): eager limit vs latency (receives pre-posted)",
		Unit:      "us",
		Direction: LowerIsBetter,
	}
	for _, lim := range []int{0, 78, 512, 4096, 16384} {
		lim := lim
		ov := func(par *machine.Params) { par.EagerLimit = lim }
		c1 := PingPongCell("MPI-LAPI Enhanced (1KB)", cluster.LAPIEnhanced, 1024, false, ov)
		c1.X = lim
		c8 := PingPongCell("MPI-LAPI Enhanced (8KB)", cluster.LAPIEnhanced, 8192, false, ov)
		c8.X = lim
		e.Cells = append(e.Cells, c1, c8)
	}
	return e
}

// Experiments returns the registry of sweepable experiments, in a stable
// order.
func Experiments() []Experiment {
	return []Experiment{
		Fig10Experiment(),
		Fig11Experiment(),
		Fig12Experiment(),
		Fig13Experiment(),
		AblateCtxSwitchExperiment(),
		AblateCopiesExperiment(),
		AblateEagerExperiment(),
		RingExperiment(),
	}
}

// FindExperiment looks an experiment up by id.
func FindExperiment(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// SeriesOf runs an experiment's cells serially at the given seed and
// regroups the values into labelled series, in cell order. Seed 1 with no
// overrides reproduces the historical single-run figures exactly.
func SeriesOf(e Experiment, seed int64, mod ParamMod) []Series {
	var out []Series
	idx := make(map[string]int)
	for _, c := range e.Cells {
		i, ok := idx[c.Series]
		if !ok {
			i = len(out)
			idx[c.Series] = i
			out = append(out, Series{Label: c.Series})
		}
		m := c.Run(RunSpec{Seed: seed, Mod: mod})
		out[i].Points = append(out[i].Points, Point{Size: c.X, Value: m.Value})
	}
	return out
}
