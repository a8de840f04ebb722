package bench

import (
	"fmt"
	"io"

	"splapi/internal/cluster"
	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/sim"
)

// PrintTable2 demonstrates the Table 2 mode-to-protocol translation by
// running one message per (mode, size) cell on the MPI-LAPI Enhanced stack
// and reporting which internal protocol carried it.
func PrintTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: translation of MPI communication modes to internal protocols")
	fmt.Fprintf(w, "%-12s %-14s %-12s\n", "mode", "size vs eager", "protocol")
	type row struct {
		mode mpci.Mode
		size int
		rel  string
	}
	rows := []row{
		{mpci.ModeStandard, 78, "<= limit"},
		{mpci.ModeStandard, 1024, "> limit"},
		{mpci.ModeReady, 1024, "> limit"},
		{mpci.ModeSync, 8, "<= limit"},
		{mpci.ModeBuffered, 78, "<= limit"},
		{mpci.ModeBuffered, 1024, "> limit"},
	}
	for _, r := range rows {
		par := paperParams()
		c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.LAPIEnhanced, Seed: 1, Params: &par})
		r := r
		c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
			world := mpi.NewWorld(prov)
			if world.Rank() == 0 {
				if r.mode == mpci.ModeBuffered {
					world.BufferAttach(make([]byte, 1<<16))
				}
				if r.mode == mpci.ModeReady {
					p.Sleep(2 * sim.Millisecond)
				}
				req := prov.IsendBlocking(p, 1, make([]byte, r.size), 0, 0, r.mode)
				prov.WaitUntil(p, req.Done)
			} else {
				req := prov.Irecv(p, 0, 0, 0, make([]byte, r.size))
				prov.WaitUntil(p, req.Done)
			}
		})
		st := c.Provs[0].Stats()
		proto := "eager"
		if st.RdvSends > 0 {
			proto = "rendezvous"
		}
		fmt.Fprintf(w, "%-12v %-14s %-12s\n", r.mode, r.rel, proto)
	}
}

// PrintAblation runs an ablation experiment at seed 1 and prints it with
// the ablated quantity (xLabel) as the x column instead of a message size.
func PrintAblation(w io.Writer, e Experiment, xLabel string, colWidth int) {
	printTable(w, e.Title, xLabel, 14, colWidth, "", SeriesOf(e, 1, nil))
}

// NodeGenerations compares the Figure 11 headline (16 KB polling latency)
// across the two SP node generations: the paper's findings should hold on
// both, with larger absolute gaps on the slower node (more expensive
// copies and context switches).
func NodeGenerations() []Series {
	out := []Series{{Label: "Native 16KB (us)"}, {Label: "MPI-LAPI 16KB (us)"}, {Label: "Base-Enhanced gap 16B (us)"}}
	for i, gen := range []func() machine.Params{machine.SP332, machine.SP160} {
		onGen := func(par *machine.Params) {
			*par = gen()
			par.EagerLimit = 78
		}
		latency := func(stack cluster.Stack, size int) float64 {
			return PingPongCell("", stack, size, false, onGen).Run(RunSpec{Seed: 1}).Value
		}
		out[0].Points = append(out[0].Points, Point{i, latency(cluster.Native, 16384)})
		out[1].Points = append(out[1].Points, Point{i, latency(cluster.LAPIEnhanced, 16384)})
		out[2].Points = append(out[2].Points, Point{i, latency(cluster.LAPIBase, 16) - latency(cluster.LAPIEnhanced, 16)})
	}
	return out
}

// PrintNodeGenerations prints the cross-generation comparison.
func PrintNodeGenerations(w io.Writer) {
	fmt.Fprintln(w, "Sensitivity: node generations (0 = SP332/TBMX, 1 = SP160/TB3)")
	s := NodeGenerations()
	fmt.Fprintf(w, "%6s  %22s  %22s  %28s\n", "gen", s[0].Label, s[1].Label, s[2].Label)
	for i := range s[0].Points {
		fmt.Fprintf(w, "%6d  %22.2f  %22.2f  %28.2f\n",
			s[0].Points[i].Size, s[0].Points[i].Value, s[1].Points[i].Value, s[2].Points[i].Value)
	}
}
