package cluster

import (
	"testing"

	"splapi/internal/machine"
	"splapi/internal/mpci"
	"splapi/internal/sim"
)

func TestStackStrings(t *testing.T) {
	for _, c := range []struct {
		s    Stack
		want string
	}{
		{Native, "native"},
		{LAPIBase, "mpi-lapi-base"},
		{LAPICounters, "mpi-lapi-counters"},
		{LAPIEnhanced, "mpi-lapi-enhanced"},
		{RDMA, "rdma"},
		{RawLAPI, "raw-lapi"},
	} {
		if c.s.String() != c.want {
			t.Errorf("Stack(%q).String() = %q, want %q", string(c.s), c.s.String(), c.want)
		}
	}
}

func TestBuildAllStacks(t *testing.T) {
	for _, s := range []Stack{Native, LAPIBase, LAPICounters, LAPIEnhanced, RawLAPI} {
		c := New(Config{Nodes: 3, Stack: s, Seed: 1})
		if len(c.HALs) != 3 || len(c.Adapters) != 3 {
			t.Fatalf("%v: wrong node count", s)
		}
		switch s {
		case Native:
			if len(c.Pipes) != 3 || len(c.Provs) != 3 || len(c.LAPIs) != 0 {
				t.Fatalf("%v: wrong substrate mix", s)
			}
		case RawLAPI:
			if len(c.LAPIs) != 3 || len(c.Provs) != 0 {
				t.Fatalf("%v: wrong substrate mix", s)
			}
		default:
			if len(c.LAPIs) != 3 || len(c.Provs) != 3 {
				t.Fatalf("%v: wrong substrate mix", s)
			}
		}
	}
}

func TestRunMPIRejectsRawLAPI(t *testing.T) {
	c := New(Config{Nodes: 2, Stack: RawLAPI, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("RunMPI on RawLAPI must panic")
		}
	}()
	c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {})
}

func TestRunReturnsFinalTime(t *testing.T) {
	c := New(Config{Nodes: 2, Stack: LAPIEnhanced, Seed: 1})
	end := c.Run(0, func(p *sim.Proc, rank int) {
		p.Sleep(sim.Time(rank+1) * sim.Millisecond)
	})
	if end < 2*sim.Millisecond {
		t.Fatalf("final time %v, want >= 2ms (slowest rank)", end)
	}
}

func TestCustomParamsRespected(t *testing.T) {
	par := machine.SP332()
	par.EagerLimit = 7
	c := New(Config{Nodes: 2, Stack: Native, Seed: 1, Params: &par})
	if c.Par.EagerLimit != 7 {
		t.Fatal("custom params not plumbed through")
	}
}

func TestInterruptsFlagArmsAdapters(t *testing.T) {
	c := New(Config{Nodes: 2, Stack: LAPIEnhanced, Seed: 1, Interrupts: true})
	for i, ad := range c.Adapters {
		if !ad.InterruptsEnabled() {
			t.Fatalf("adapter %d interrupts not enabled", i)
		}
	}
}

func TestDeterministicAcrossBuilds(t *testing.T) {
	run := func() sim.Time {
		c := New(Config{Nodes: 4, Stack: Native, Seed: 5})
		return c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
			buf := make([]byte, 100)
			if prov.Rank() == 0 {
				for dst := 1; dst < prov.Size(); dst++ {
					req := prov.IsendBlocking(p, dst, buf, 0, 0, mpci.ModeStandard)
					prov.WaitUntil(p, req.Done)
				}
			} else {
				req := prov.Irecv(p, 0, 0, 0, buf)
				prov.WaitUntil(p, req.Done)
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster run: %v vs %v", a, b)
	}
}
