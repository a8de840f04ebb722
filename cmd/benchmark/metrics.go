package main

import (
	"fmt"

	"splapi/internal/mpci"
)

// metricDef declares one metric: the tables below are the benchmark's
// contract, mirrored by BENCHMARK.json (main_test.go holds the two equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd are the metrics a user of the simulator sees; every workload
// reports all of them, measured with the span recorder off. A pass is one
// sweep over the workload's cells, or one cold campaign (campaign_service).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_ms_p50", "ms", "lower", 0.25},
	{"allocs_per_pass", "objects", "lower", 0.03},
	{"alloc_kb_per_pass", "KiB", "lower", 0.03},
}

// perLayer are the metrics of single layers, printed by the traced run.
func perLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("sim.event_ns", "ns"), lower("sim.timer_stop_ns", "ns"), lower("sim.pool_getput_ns", "ns"),
		higher("sim.pool_hit_share", "ratio"),
		lower("sim.sleep_ns", "ns"), lower("sim.queue_handoff_ns", "ns"), lower("sim.spawn_exit_ns", "ns"),
		lower("sim.shard2_ratio", "ratio"), lower("sim.shard2_ratio_q1", "ratio"), lower("sim.shard2_ratio_q3", "ratio"),
		lower("switchnet.self_ns_64B", "ns"), lower("switchnet.self_ns_64KiB", "ns"),
		lower("switchnet.pkts_per_pass", "count"), lower("switchnet.reordered_per_pass", "count"),
		lower("switchnet.host_ns_per_pkt", "ns"),
		lower("adapter.self_ns_64B", "ns"), lower("adapter.self_ns_64KiB", "ns"),
		lower("adapter.fifo_drops_per_pass", "count"), lower("adapter.interrupts_per_pass", "count"),
		lower("hal.self_ns_64B", "ns"), lower("hal.self_ns_64KiB", "ns"), lower("hal.rdma_read_ns_64KiB", "ns"),
		higher("hal.rdma_reg_cache_hit_share", "ratio"),
		lower("hal.polls_per_pass", "count"), lower("hal.crc_drops_per_pass", "count"),
		lower("pipes.self_ns_64B", "ns"), lower("pipes.self_ns_64KiB", "ns"),
		lower("pipes.retransmits_per_pass", "count"), lower("pipes.window_stalls_per_pass", "count"),
		lower("lapi.self_ns_64B", "ns"), lower("lapi.self_ns_64KiB", "ns"),
		lower("lapi.retransmits_per_pass", "count"),
		lower("lapi.cmpl_threaded_per_pass", "count"), lower("lapi.cmpl_inline_per_pass", "count"),
	}
	for _, f := range mpci.Providers() {
		defs = append(defs,
			lower(fmt.Sprintf("mpci.%s.self_ns_64B", f.Name), "ns"),
			lower(fmt.Sprintf("mpci.%s.self_ns_64KiB", f.Name), "ns"))
	}
	defs = append(defs,
		lower("mpci.unexpected_per_pass", "count"), lower("mpci.rdv_sends_per_pass", "count"),
		lower("mpci.copy_bytes_per_pass", "bytes"),
		lower("mpi.self_ns_64B", "ns"), lower("mpi.self_ns_64KiB", "ns"),
		lower("mpi.allreduce_us", "us"), lower("mpi.alltoall_us", "us"),
		lower("nas.serial_ref_ms", "ms"),
	)
	for _, k := range nasKernels {
		defs = append(defs, lower("nas.kernel_ms."+k, "ms"))
	}
	return append(defs,
		lower("cluster.build_us_2", "us"), lower("cluster.build_us_16", "us"),
		lower("cluster.build_allocs_2", "objects"), lower("cluster.build_share", "ratio"),
		lower("faults.parse_us", "us"), lower("faults.idle_plan_overhead_pct", "%"),
		lower("chaos.inflation_max", "ratio"),
		lower("trace.collect_us", "us"), lower("bench.summarize_us", "us"), lower("tracelog.overhead_pct", "%"),
		lower("sweep.fig11_s16_ms", "ms"), higher("sweep.par_efficiency", "ratio"), lower("sweep.encode_us", "us"),
		lower("campaign.canon_digest_us", "us"), lower("cache.get_us", "us"), lower("cache.put_us", "us"),
		lower("queue.submit_us", "us"), lower("queue.coalesced_join_us", "us"), lower("queue.coalesce_runs", "count"),
		lower("server.hit_ms_p50", "ms"), lower("server.hit_ms_p95", "ms"), lower("server.hit_ms_p99", "ms"), lower("server.miss_overhead_ms", "ms"),
		lower("server.allocs_per_hit", "objects"), lower("server.jobs_retained", "count"),
		lower("mcp.hit_ms_p50", "ms"),
		lower("harness.pass_ms_tail", "ms"), lower("harness.pass_tail_pct", "%"),
		lower("harness.peak_rss_mb", "MiB"), lower("harness.gc_pause_ms", "ms"),
		lower("harness.span_overhead_pct", "%"), higher("harness.vtime_cells_checked", "count"),
	)
}

// metric is one reading: a value, its unit, and the number of samples
// behind it.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// metricSet holds the readings of one run by name.
type metricSet map[string]metric

func (s metricSet) set(name string, v float64, unit string, n int) { s[name] = metric{v, unit, n} }

// setCounts records the exact per-pass counters of the workload.
func (s metricSet) setCounts(c counts, passMs float64) {
	count := func(name string, v uint64) { s.set(name, float64(v), "count", 1) }
	share := func(name string, num, den uint64) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		s.set(name, v, "ratio", 1)
	}
	share("sim.pool_hit_share", c.PoolHits, c.PoolGets)
	count("switchnet.pkts_per_pass", c.Pkts)
	count("switchnet.reordered_per_pass", c.Reordered)
	perPkt := 0.0
	if c.Pkts > 0 {
		perPkt = passMs * 1e6 / float64(c.Pkts)
	}
	s.set("switchnet.host_ns_per_pkt", perPkt, "ns", 1)
	count("adapter.fifo_drops_per_pass", c.FifoDrops)
	count("adapter.interrupts_per_pass", c.Interrupts)
	share("hal.rdma_reg_cache_hit_share", c.RdmaRegHits, c.RdmaRegHits+c.RdmaRegs)
	count("hal.polls_per_pass", c.Polls)
	count("hal.crc_drops_per_pass", c.CrcDrops)
	count("pipes.retransmits_per_pass", c.PipesRtx)
	count("pipes.window_stalls_per_pass", c.PipesStalls)
	count("lapi.retransmits_per_pass", c.LapiRtx)
	count("lapi.cmpl_threaded_per_pass", c.CmplThreaded)
	count("lapi.cmpl_inline_per_pass", c.CmplInline)
	count("mpci.unexpected_per_pass", c.Unexpected)
	count("mpci.rdv_sends_per_pass", c.RdvSends)
	s.set("mpci.copy_bytes_per_pass", float64(c.CopyBytes), "bytes", 1)
}
