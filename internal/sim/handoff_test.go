package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"splapi/internal/cluster"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/sim"
	"splapi/internal/trace"
)

// The tests here build whole clusters, so they live outside package sim.
// They pin the hand-off: an engine that quiesces hands its pool's lists,
// its event arena and (through OnHandOff) its fabric's packet records to
// the stashes, the next engine takes them, and nothing a run reports
// depends on that.

// stream runs a native-stack MPI_Isend stream of count copies of want from
// rank 0 to rank 1 on a fresh 2-node cluster, checks every received byte
// and returns the cluster's report. It reports failures with t.Error only,
// so worker goroutines may call it.
func stream(t testing.TB, want []byte, count int) (*trace.Report, *cluster.Cluster) {
	c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.Native, Seed: 1})
	bad := ""
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
		w := mpi.NewWorld(prov)
		reqs := make([]*mpi.Request, count)
		bufs := make([][]byte, count)
		for i := range reqs {
			if w.Rank() == 0 {
				reqs[i] = w.Isend(p, want, 1, 0)
			} else {
				bufs[i] = make([]byte, len(want))
				reqs[i] = w.Irecv(p, bufs[i], 0, 0)
			}
		}
		mpi.WaitAll(p, reqs...)
		for i, b := range bufs {
			if w.Rank() == 1 && !bytes.Equal(b, want) {
				bad = fmt.Sprintf("message %d differs from the one sent", i)
			}
		}
	})
	if bad != "" {
		t.Error(bad)
	}
	if !c.Eng.Idle() || c.Eng.LiveProcs() != 0 {
		t.Error("the stream did not run to quiescence")
	}
	return trace.Collect(c), c
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*29 + seed
	}
	return b
}

// TestPoolStatsIgnoreProvenance runs one 64 KiB×64 native stream cold (the
// stash emptied, every buffer made fresh) and once warm (every buffer taken
// from the first run's lists): the pool statistics are the same, because
// they count the engine's own Get/Put sequence, not the lists it drew on.
func TestPoolStatsIgnoreProvenance(t *testing.T) {
	msg := pattern(64<<10, 1)
	sim.EmptyStash()
	cold, cc := stream(t, msg, 64)
	warm, wc := stream(t, msg, 64)
	if cc.Eng.Pool().Fresh() == 0 || wc.Eng.Pool().Fresh() >= cc.Eng.Pool().Fresh() {
		t.Fatalf("fresh buffers: cold run %d, warm run %d; the warm run should reuse the cold run's",
			cc.Eng.Pool().Fresh(), wc.Eng.Pool().Fresh())
	}
	if cold.Pool != warm.Pool {
		t.Errorf("pool stats depend on the buffers' provenance:\ncold %+v\nwarm %+v", cold.Pool, warm.Pool)
	}
	if !reflect.DeepEqual(cold.PoolClasses, warm.PoolClasses) {
		t.Errorf("class stats depend on the buffers' provenance:\ncold %+v\nwarm %+v", cold.PoolClasses, warm.PoolClasses)
	}
	for _, r := range []*trace.Report{cold, warm} {
		for _, cs := range r.PoolClasses {
			if uint64(cs.Free) != cs.Puts-cs.Hits {
				t.Errorf("class %d B: Free %d, want Puts-Hits = %d", cs.Size, cs.Free, cs.Puts-cs.Hits)
			}
		}
	}
}

// TestWarmEngineBuffersZeroAlloc pins the hand-off's point: a second
// identical cluster run finds every payload buffer it needs on the lists
// the first run handed on, and makes none.
func TestWarmEngineBuffersZeroAlloc(t *testing.T) {
	msg := pattern(64<<10, 2)
	sim.EmptyStash()
	stream(t, msg, 64)
	_, c := stream(t, msg, 64)
	if n := c.Eng.Pool().Fresh(); n != 0 {
		t.Errorf("a warm engine made %d fresh pooled buffers, want 0", n)
	}
}

// TestWarmEngineEventsZeroAlloc: a second identical cluster run schedules
// every event into the arena the first run handed on, and grows no slot.
// Then an engine whose keys spread over many buckets of the radix queue —
// µs events, and a 2 ms timer re-armed on every 8th — runs After+Run
// cycles, handing its queue on at the end of each and taking it back on
// the next schedule: the bucket table and its arrays travel with the
// arena, so a warm cycle allocates nothing.
func TestWarmEngineEventsZeroAlloc(t *testing.T) {
	msg := pattern(64<<10, 3)
	sim.EmptyStash()
	_, cold := stream(t, msg, 64)
	if cold.Eng.Grown() == 0 {
		t.Fatal("test premise broken: a cold engine grew no arena slot")
	}
	_, c := stream(t, msg, 64)
	if n := c.Eng.Grown(); n != 0 {
		t.Errorf("a warm engine grew %d arena slots, want 0", n)
	}

	if sim.RaceEnabled() {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	e := sim.NewEngine(1)
	var rtx sim.Timer
	n := 0
	var tick func()
	timeout := func() {}
	tick = func() {
		if n%8 == 0 {
			rtx.Stop()
			rtx = e.After(2*sim.Millisecond, timeout)
		}
		if n++; n < 512 {
			e.After(sim.Time(1+n%7)*sim.Microsecond, tick)
		}
	}
	cycle := func() {
		n = 0
		e.After(0, tick)
		e.Run(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warm After+Run cycle over many buckets allocates %.1f objects, want 0", allocs)
	}
}

// TestConcurrentClustersShareTheStash is the traffic of sweeps and spsimd:
// several goroutines build, run and verify clusters at once, each taking
// lists, arenas and switchnet's packet records from the stashes and
// handing them back. Under -race it checks that no buffer, arena slot or
// packet record is touched by two engines, that is, that they cross
// goroutines only through a stash; each goroutine streams its own pattern,
// so a buffer still in use when handed on would corrupt a payload, and an
// arena or a record shared by two engines would move a run's final virtual
// time or its fabric counters.
func TestConcurrentClustersShareTheStash(t *testing.T) {
	const workers, clusters = 4, 20
	reports := make([][]*trace.Report, workers)
	ends := make([][]sim.Time, workers)
	concurrently(workers, func(w int) {
		msg := pattern(16<<10+w, byte(w))
		for i := 0; i < clusters; i++ {
			r, c := stream(t, msg, 8)
			reports[w] = append(reports[w], r)
			ends[w] = append(ends[w], c.Eng.Now())
		}
	})
	for w, rs := range reports {
		for i, r := range rs {
			if r.Pool != rs[0].Pool {
				t.Errorf("worker %d cluster %d: pool stats %+v, want %+v like its first", w, i, r.Pool, rs[0].Pool)
			}
			if r.Fabric != rs[0].Fabric {
				t.Errorf("worker %d cluster %d: fabric stats %+v, want %+v like its first", w, i, r.Fabric, rs[0].Fabric)
			}
			if ends[w][i] != ends[w][0] {
				t.Errorf("worker %d cluster %d: ended at %v, want %v like its first", w, i, ends[w][i], ends[w][0])
			}
		}
	}
}
