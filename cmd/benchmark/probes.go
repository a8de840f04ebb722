package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"splapi/internal/bench"
	"splapi/internal/campaign"
	"splapi/internal/campaign/cache"
	"splapi/internal/campaign/mcp"
	"splapi/internal/campaign/queue"
	"splapi/internal/cluster"
	"splapi/internal/faults"
	"splapi/internal/mpci"
	"splapi/internal/mpi"
	"splapi/internal/nas"
	"splapi/internal/sim"
	"splapi/internal/sweep"
	"splapi/internal/trace"
)

// The probes are the per-layer half of a traced run that does not depend on
// the workload: micro-drivers against one package's exported API (the five
// cmd/walltime kernels re-hosted, plus new ones), the entry ladder, and
// fixed passes that isolate one cross-cutting cost. Every number is host
// time measured from outside the layer.

// scale sizes the probes; -smoke shrinks every count to a bit-rot check.
type scale struct {
	smoke bool
}

// n scales an iteration count: a thousandth at the smoke scale, at least 2.
func (sc scale) n(full int) int {
	if sc.smoke {
		return max(2, full/1000)
	}
	return full
}

func (sc scale) reps(full int) int {
	if sc.smoke {
		return 1
	}
	return full
}

// probe times one measurement under a span and records its median.
func probe(rec *recorder, out metricSet, name, unit string, reps int, measure func() float64) float64 {
	v := medianOf(reps, func() float64 {
		s := rec.begin(name, -1, rec.newOp(), 0)
		defer rec.end(s)
		return measure()
	})
	out.set(name, v, unit, reps)
	return v
}

func probeSim(rec *recorder, sc scale, out metricSet) {
	noop := func() {}
	// Schedule and dispatch no-op callbacks with a standing batch queued.
	probe(rec, out, "sim.event_ns", "ns", sc.reps(3), func() float64 {
		e := sim.NewEngine(1)
		n, pending := sc.n(400000), 0
		return perOp(1, func() {
			for i := 0; i < n; i++ {
				e.After(sim.Time(pending), noop)
				if pending++; pending == 512 {
					e.Run(0)
					pending = 0
				}
			}
			e.Run(0)
		}) / float64(n)
	})
	// The arm-then-cancel cycle of the transport ack/retransmit timers.
	probe(rec, out, "sim.timer_stop_ns", "ns", sc.reps(3), func() float64 {
		e := sim.NewEngine(1)
		n := sc.n(400000)
		return perOp(1, func() {
			for i := 0; i < n; i++ {
				e.After(64, noop).Stop()
				if i&255 == 255 {
					e.Run(0)
				}
			}
			e.Run(0)
		}) / float64(n)
	})
	probe(rec, out, "sim.pool_getput_ns", "ns", sc.reps(3), func() float64 {
		pool := sim.NewEngine(1).Pool()
		return perOp(sc.n(400000), func() { pool.Put(pool.Get(1024)) })
	})
	// The park/unpark round trip of Proc.Sleep.
	probe(rec, out, "sim.sleep_ns", "ns", sc.reps(3), func() float64 {
		e := sim.NewEngine(1)
		n := sc.n(100000)
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		return perOp(1, func() { e.Run(0) }) / float64(n)
	})
	// One item through a one-slot queue: producer and consumer alternate.
	probe(rec, out, "sim.queue_handoff_ns", "ns", sc.reps(3), func() float64 {
		e := sim.NewEngine(1)
		q := sim.NewQueue(1)
		n := sc.n(50000)
		e.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
			}
		})
		e.Spawn("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Get(p)
			}
		})
		return perOp(1, func() { e.Run(0) }) / float64(n)
	})
	probe(rec, out, "sim.spawn_exit_ns", "ns", sc.reps(3), func() float64 {
		e := sim.NewEngine(1)
		n := sc.n(20000)
		return perOp(1, func() {
			for i := 0; i < n; i++ {
				e.Spawn("p", func(*sim.Proc) {})
				if i&255 == 255 {
					e.Run(0)
				}
			}
			e.Run(0)
		}) / float64(n)
	})
}

// probeShards settles ROADMAP item (c) with a number: the 16-node ring cell
// at Shards 2 over Shards 1, in alternating pairs on this host.
func probeShards(rec *recorder, sc scale, exp *expected, out metricSet, t *tally) {
	e := newEnv(1, exp)
	e.rec = rec
	c := ringCell(cluster.LAPIEnhanced, 16)
	timeAt := func(shards int) float64 {
		e.shards = shards
		op := rec.newOp()
		s := rec.begin(fmt.Sprintf("ring16.shards%d", shards), -1, op, 0)
		defer rec.end(s)
		t0 := time.Now()
		o := c.run(e, s, op)
		d := time.Since(t0)
		// Bit-identical at every shard count, or the ratio compares two
		// different computations.
		if pin := exp.Cells[c.ID]; o.bad != "" || o.Value != pin.Value || o.VTime != pin.VTime {
			t.op(fmt.Sprintf("%s at %d shards: %+v, pinned %+v", c.ID, shards, o, pin))
		} else {
			t.op("")
		}
		return float64(d)
	}
	pairs := sc.reps(10)
	ratios := make([]float64, pairs)
	for i := range ratios {
		var one, two float64
		if i%2 == 0 {
			one, two = timeAt(1), timeAt(2)
		} else {
			two, one = timeAt(2), timeAt(1)
		}
		ratios[i] = two / one
	}
	out.set("sim.shard2_ratio", median(ratios), "ratio", pairs)
	out.set("sim.shard2_ratio_q1", quantile(ratios, 0.25), "ratio", pairs)
	out.set("sim.shard2_ratio_q3", quantile(ratios, 0.75), "ratio", pairs)
}

func probeHAL(rec *recorder, sc scale, out metricSet) {
	const size = 64 << 10
	n := sc.n(64)
	probe(rec, out, "hal.rdma_read_ns_64KiB", "ns", sc.reps(5), func() float64 {
		pr := newPair(true, true)
		src, dst := make([]byte, size), make([]byte, size)
		left := n
		pr.eng.At(0, func() {
			remote, _ := pr.h[1].Rdma().RegisterRegion(src)
			r := pr.h[0].Rdma()
			local, ready := r.RegisterRegion(dst)
			var next func()
			next = func() {
				if left--; left >= 0 {
					r.RdmaRead(1, remote, local, size, ready, next)
				}
			}
			next()
		})
		return perOp(1, func() { pr.eng.Run(0) }) / float64(n)
	})
}

// collective runs reps collectives of one kind on 4 Enhanced ranks and
// returns host microseconds per collective, lower layers included.
func collective(sc scale, body func(p *sim.Proc, w *mpi.Comm, send, recv []byte)) float64 {
	par := paperParams()
	reps := sc.n(50)
	c := cluster.New(cluster.Config{Nodes: 4, Stack: cluster.LAPIEnhanced, Seed: 1, Params: &par})
	ns := perOp(1, func() {
		c.RunMPI(0, func(p *sim.Proc, prov mpci.Provider) {
			w := mpi.NewWorld(prov)
			send, recv := make([]byte, 4*1024), make([]byte, 4*1024)
			for i := 0; i < reps; i++ {
				body(p, w, send, recv)
			}
		})
	})
	return ns / 1e3 / float64(reps)
}

func probeMPI(rec *recorder, sc scale, out metricSet) {
	probe(rec, out, "mpi.allreduce_us", "us", sc.reps(5), func() float64 {
		return collective(sc, func(p *sim.Proc, w *mpi.Comm, send, recv []byte) {
			w.Allreduce(p, send[:1024], recv[:1024], mpi.Float64, mpi.OpSum)
		})
	})
	probe(rec, out, "mpi.alltoall_us", "us", sc.reps(5), func() float64 {
		return collective(sc, func(p *sim.Proc, w *mpi.Comm, send, recv []byte) {
			w.Alltoall(p, send, recv, 1024)
		})
	})
}

func probeNAS(rec *recorder, sc scale, out metricSet) {
	var kernels []nas.Kernel
	for _, name := range nasKernels {
		k, err := nas.ByName(name)
		if err != nil {
			panic(err)
		}
		kernels = append(kernels, k)
	}
	// Pure host arithmetic: the floor under nas_ring no simulator change moves.
	probe(rec, out, "nas.serial_ref_ms", "ms", sc.reps(3), func() float64 {
		return perOp(1, func() {
			for _, k := range kernels {
				k.Serial()
			}
		}) / 1e6
	})
	for _, k := range kernels {
		probe(rec, out, "nas.kernel_ms."+k.Name, "ms", sc.reps(3), func() float64 {
			return perOp(1, func() { bench.RunNASKernelOpts(k, cluster.LAPIEnhanced, paperParams(), 1, nil) }) / 1e6
		})
	}
}

func probeCluster(rec *recorder, sc scale, exp *expected, out metricSet) {
	build := func(nodes int) func() float64 {
		return func() float64 {
			par := paperParams()
			return perOp(sc.n(200), func() {
				cluster.New(cluster.Config{Nodes: nodes, Stack: cluster.LAPIEnhanced, Seed: 1, Params: &par})
			}) / 1e3
		}
	}
	probe(rec, out, "cluster.build_us_2", "us", sc.reps(3), build(2))
	probe(rec, out, "cluster.build_us_16", "us", sc.reps(3), build(16))
	par := paperParams()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const builds = 20
	for i := 0; i < builds; i++ {
		cluster.New(cluster.Config{Nodes: 2, Stack: cluster.LAPIEnhanced, Seed: 1, Params: &par})
	}
	runtime.ReadMemStats(&m1)
	out.set("cluster.build_allocs_2", float64(m1.Mallocs-m0.Mallocs)/builds, "objects", builds)

	// The share of a pingpong_small pass spent in cluster.New, from spans.
	own := newRecorder()
	e := newEnv(1, exp)
	e.rec = own
	passes := sc.reps(5)
	for i := 0; i < passes; i++ {
		for _, c := range pingPongCells() {
			op := own.newOp()
			s := own.begin("cell", -1, op, 0)
			c.run(e, s, op)
			own.end(s)
		}
	}
	out.set("cluster.build_share", float64(own.total("cluster.New"))/float64(own.total("cell")), "ratio", passes)
}

// idlePlan arms every probabilistic fault kind in a window that opens long
// after any run ends: the injector is consulted per packet, CRCs are
// stamped and checked, and nothing ever fires.
var idlePlan = faults.Plan{Name: "idle", Rules: []faults.Rule{
	{Kind: faults.Drop, From: faults.Forever / 2, Src: -1, Dst: -1, Route: -1, Prob: 1},
	{Kind: faults.Dup, From: faults.Forever / 2, Src: -1, Dst: -1, Route: -1, Prob: 1},
	{Kind: faults.Corrupt, From: faults.Forever / 2, Src: -1, Dst: -1, Route: -1, Prob: 1},
}}

// overheadPct runs a workload's pass in alternating pairs with and without
// a modification of env and returns the median relative cost in percent.
// Every cell must still match its pin: none of the modifications probed
// here may move virtual time.
func overheadPct(rec *recorder, name string, cells []cell, exp *expected, pairs int, modify func(e *env), t *tally) float64 {
	pass := func(modified bool) float64 {
		e := newEnv(1, exp)
		e.rec = rec
		label := name + ".off"
		if modified {
			modify(e)
			label = name + ".on"
		}
		s := rec.begin(label, -1, rec.newOp(), 0)
		defer rec.end(s)
		t0 := time.Now()
		for _, c := range cells {
			o := c.run(e, s, 0)
			d := ""
			if o.bad != "" || !o.same(exp.Cells[c.ID]) {
				d = fmt.Sprintf("%s under %s: %+v differs from the pin", c.ID, label, o)
			}
			t.op(d)
		}
		return float64(time.Since(t0))
	}
	pcts := make([]float64, pairs)
	for i := range pcts {
		var off, on float64
		if i%2 == 0 {
			off, on = pass(false), pass(true)
		} else {
			on, off = pass(true), pass(false)
		}
		pcts[i] = 100 * (on/off - 1)
	}
	return median(pcts)
}

func probeCrossCutting(rec *recorder, sc scale, exp *expected, out metricSet, t *tally) {
	probe(rec, out, "faults.parse_us", "us", sc.reps(3), func() float64 {
		specs := append([]string{"uniform:drop=0.01,dup=0.005,corrupt=0.001"}, faultPresets...)
		return perOp(sc.n(2000), func() {
			for _, s := range specs {
				if _, err := faults.Parse(s); err != nil {
					panic(err)
				}
			}
		}) / 1e3 / float64(len(specs))
	})
	pairs := sc.reps(3)
	out.set("faults.idle_plan_overhead_pct",
		overheadPct(rec, "faults.idle_plan", streamCells(), exp, pairs, func(e *env) { e.plan = &idlePlan }, t), "%", pairs)
	pairs = sc.reps(7)
	out.set("tracelog.overhead_pct",
		overheadPct(rec, "tracelog", pingPongCells(), exp, pairs, func(e *env) { e.tracelog = true }, t), "%", pairs)

	par := paperParams()
	c := cluster.New(cluster.Config{Nodes: 2, Stack: cluster.LAPIEnhanced, Seed: 1, Params: &par})
	pingPong(c, make([]byte, 64), false)
	probe(rec, out, "trace.collect_us", "us", sc.reps(3), func() float64 {
		return perOp(sc.n(2000), func() { trace.Collect(c) }) / 1e3
	})
	samples := make([]float64, 16)
	for i := range samples {
		samples[i] = 40 + float64(i*i%7)
	}
	probe(rec, out, "bench.summarize_us", "us", sc.reps(3), func() float64 {
		return perOp(sc.n(200), func() { bench.Summarize(samples) }) / 1e3
	})
}

// probeSweep times the sweep harness directly, bypassing the service, and
// returns the median host milliseconds of the 16-seed fig11 sweep.
func probeSweep(rec *recorder, sc scale, exp *expected, out metricSet, t *tally) float64 {
	e := bench.Fig11Experiment()
	seeds := sc.missSeeds()
	var res *sweep.Result
	wall := probe(rec, out, "sweep.fig11_s16_ms", "ms", sc.reps(3), func() float64 {
		return perOp(1, func() {
			var err error
			if res, err = sweep.Run(e, sweep.Options{Seeds: seeds, Par: 2, GitDescribe: codeVersion}); err != nil {
				panic(err)
			}
		}) / 1e6
	})
	body, err := sweep.Encode(res)
	if err != nil {
		panic(err)
	}
	t.op(verifySweepBody(exp, "fig11", body))
	// Sixteen seeds of a seed-invariant cell are sixteen times the same
	// work, so the serial sum is one serial pass over the cells, scaled.
	serial := medianOf(sc.reps(3), func() float64 {
		s := rec.begin("sweep.serial_pass", -1, rec.newOp(), 0)
		defer rec.end(s)
		return timed(func() {
			for _, c := range e.Cells {
				c.Run(bench.RunSpec{Seed: 1})
			}
		})
	})
	out.set("sweep.par_efficiency", serial*float64(seeds)/(2*wall), "ratio", sc.reps(3))
	probe(rec, out, "sweep.encode_us", "us", sc.reps(3), func() float64 {
		return perOp(sc.n(50), func() {
			if _, err := sweep.Encode(res); err != nil {
				panic(err)
			}
		}) / 1e3
	})
	return wall
}

func probeCampaign(rec *recorder, sc scale, out metricSet) error {
	req := sweepRequest("fig11", missSeeds, 1)
	req.Faults = "burst-loss" // the digest covers the parsed plan
	probe(rec, out, "campaign.canon_digest_us", "us", sc.reps(3), func() float64 {
		return perOp(sc.n(2000), func() {
			canon, err := campaign.Canonicalize(req)
			if err == nil {
				_, err = campaign.Digest(canon, codeVersion)
			}
			if err != nil {
				panic(err)
			}
		}) / 1e3
	})

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.Remove(tmpRoot)
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir)
	if err != nil {
		return err
	}
	body := make([]byte, 40<<10)
	keys := make([]string, sc.n(50))
	for i := range keys {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		keys[i] = hex.EncodeToString(sum[:])
	}
	probe(rec, out, "cache.put_us", "us", sc.reps(3), func() float64 {
		i := 0
		return perOp(len(keys), func() {
			if err := store.Put(keys[i], body); err != nil {
				panic(err)
			}
			i++
		}) / 1e3
	})
	probe(rec, out, "cache.get_us", "us", sc.reps(3), func() float64 {
		i := 0
		return perOp(10*len(keys), func() {
			if _, ok := store.Get(keys[i%len(keys)]); !ok {
				panic("cache: entry just written is missing")
			}
			i++
		}) / 1e3
	})

	// Submit with a runner that does nothing, then joins onto a job whose
	// runner is parked: the two sides of single-flight.
	n := sc.n(2000)
	release := make(chan struct{})
	q := queue.New(1, func(ctx context.Context, j *queue.Job) ([]byte, error) {
		if j.Key == "parked" {
			<-release
		}
		return nil, nil
	})
	submit := func(key string) {
		if _, _, err := q.Submit(key, nil); err != nil {
			panic(err)
		}
	}
	probe(rec, out, "queue.submit_us", "us", 1, func() float64 {
		i := 0
		return perOp(n, func() { submit(fmt.Sprintf("k%d", i)); i++ }) / 1e3
	})
	submit("parked")
	probe(rec, out, "queue.coalesced_join_us", "us", 1, func() float64 {
		return perOp(n, func() { submit("parked") }) / 1e3
	})
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return q.Drain(ctx)
}

// probeServer measures the request path on a service of its own: one cold
// miss, a single-client run of exact hits, coalesce rounds, and the same
// hit through the MCP surface over an in-memory pipe.
func probeServer(rec *recorder, sc scale, out metricSet, sweepMs float64, t *tally) error {
	r, err := setUpMiss(1, sc)
	if err != nil {
		return err
	}
	defer r.s.stop()
	miss := (r.miss(rec) + r.miss(rec)) / 2
	out.set("server.miss_overhead_ms", miss-sweepMs, "ms", 2)

	n := sc.n(2000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lat := r.hits(1, n, rec)[0]
	runtime.ReadMemStats(&m1)
	out.set("server.hit_ms_p50", median(lat), "ms", len(lat))
	out.set("server.hit_ms_p95", quantile(lat, 0.95), "ms", len(lat))
	out.set("server.hit_ms_p99", quantile(lat, 0.99), "ms", len(lat))
	out.set("server.allocs_per_hit", float64(m1.Mallocs-m0.Mallocs)/float64(n), "objects", n)
	out.set("server.jobs_retained", float64(len(r.s.svc.Jobs())), "count", 1)

	rounds := sc.reps(4)
	runs := 0
	for i := 0; i < rounds; i++ {
		runs += r.coalesce(rec)
	}
	out.set("queue.coalesce_runs", float64(runs)/float64(rounds), "count", rounds)
	t.merge(r.tally)

	// MCP: line-delimited JSON-RPC over two in-memory pipes.
	toSrv, toSrvW := io.Pipe()
	fromSrv, fromSrvW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- mcp.New(r.s.svc, codeVersion).Serve(context.Background(), toSrv, fromSrvW)
		fromSrvW.Close()
	}()
	args, err := json.Marshal(r.reqs[0])
	if err != nil {
		return err
	}
	lines := bufio.NewReader(fromSrv)
	calls := sc.n(500)
	mlat := make([]float64, calls)
	for i := range mlat {
		s := rec.begin("mcp submit_campaign", -1, rec.newOp(), 0)
		t0 := time.Now()
		fmt.Fprintf(toSrvW, `{"jsonrpc":"2.0","id":%d,"method":"tools/call","params":{"name":"submit_campaign","arguments":%s}}`+"\n", i, args)
		line, err := lines.ReadString('\n')
		mlat[i] = ms(time.Since(t0))
		rec.end(s)
		var resp struct {
			Result struct {
				IsError bool `json:"isError"`
				Content []struct {
					Text string `json:"text"`
				} `json:"content"`
			} `json:"result"`
		}
		failure := ""
		switch {
		case err != nil:
			failure = "mcp: " + err.Error()
		case json.Unmarshal([]byte(line), &resp) != nil || resp.Result.IsError || len(resp.Result.Content) == 0:
			failure = fmt.Sprintf("mcp: bad reply %.200s", line)
		default:
			var sum struct {
				Cached bool `json:"cached"`
				Bytes  int  `json:"bytes"`
			}
			if json.Unmarshal([]byte(resp.Result.Content[0].Text), &sum) != nil || !sum.Cached || sum.Bytes != len(r.bodies[0]) {
				failure = fmt.Sprintf("mcp: reply is not the cached artifact: %.200s", resp.Result.Content[0].Text)
			}
		}
		t.op(failure)
	}
	toSrvW.Close()
	if err := <-served; err != nil {
		return err
	}
	out.set("mcp.hit_ms_p50", median(mlat), "ms", calls)
	return nil
}

// runProbes runs the whole workload-independent suite.
func runProbes(rec *recorder, sc scale, exp *expected, out metricSet, t *tally) error {
	probeShards(rec, sc, exp, out, t) // two shards want two Ps
	func() {
		defer singleP()() // one engine, one driver goroutine: see singleP
		probeSim(rec, sc, out)
		runLadder(rec, sc, out, t)
		probeHAL(rec, sc, out)
		probeMPI(rec, sc, out)
		probeNAS(rec, sc, out)
		probeCluster(rec, sc, exp, out)
		probeCrossCutting(rec, sc, exp, out, t)
	}()
	sweepMs := probeSweep(rec, sc, exp, out, t)
	if err := probeCampaign(rec, sc, out); err != nil {
		return err
	}
	return probeServer(rec, sc, out, sweepMs, t)
}
