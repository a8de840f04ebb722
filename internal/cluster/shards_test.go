package cluster_test

import (
	"reflect"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/sim"
	"splapi/internal/trace"
	"splapi/internal/tracelog"
)

// ringProgram is two barrier-separated phases of neighbour exchange around
// a ring, the second large enough to take the rendezvous path.
func ringProgram(p *sim.Proc, prov mpci.Provider) {
	n := prov.Size()
	me := prov.Rank()
	w := mpi.NewWorld(prov)
	for phase, size := range []int{64, 8192} {
		sbuf := make([]byte, size)
		rbuf := make([]byte, size)
		rreq := prov.Irecv(p, (me+n-1)%n, phase, 0, rbuf)
		sreq := prov.IsendBlocking(p, (me+1)%n, sbuf, phase, 0, mpci.ModeStandard)
		prov.WaitUntil(p, sreq.Done)
		prov.WaitUntil(p, rreq.Done)
		w.Barrier(p)
	}
}

// TestShardsFieldIsIgnored: Config.Shards survives only so the frozen
// cmd/benchmark compiles; a cluster built with it set is the cluster built
// without it — same final time, same event stream, same per-layer report.
func TestShardsFieldIsIgnored(t *testing.T) {
	run := func(shards int) (sim.Time, []tracelog.Event, *trace.Report) {
		tl := tracelog.New(1 << 16)
		c := cluster.New(cluster.Config{Nodes: 4, Stack: cluster.LAPIEnhanced, Seed: 7, Trace: tl, Shards: shards})
		c.RunMPI(0, ringProgram)
		return c.Now(), tl.Events(), trace.Collect(c)
	}
	wantEnd, wantEvs, wantRep := run(0)
	if len(wantEvs) == 0 {
		t.Fatal("baseline produced no trace events")
	}
	end, evs, rep := run(2)
	if end != wantEnd {
		t.Errorf("Shards: 2 ended at %v, Shards: 0 at %v", end, wantEnd)
	}
	if idx := tracelog.Diff(wantEvs, evs); idx != -1 {
		t.Errorf("Shards: 2 recorded %d events, Shards: 0 %d; first divergence at %d", len(evs), len(wantEvs), idx)
	}
	if !reflect.DeepEqual(rep, wantRep) {
		t.Errorf("Shards: 2 report differs from Shards: 0:\n%+v\nvs\n%+v", rep, wantRep)
	}
}
