// Command benchmark is the repository's benchmark: it measures what the
// simulator costs in host time, end to end and layer by layer, while
// holding every virtual-time result to the values pinned in expected.json.
//
//	go run -C cmd/benchmark . -workload stream_large            # end-to-end metrics
//	go run -C cmd/benchmark . -workload stream_large -trace 1   # per-layer metrics + Chrome trace
//	go run -C cmd/benchmark . -workload all -out a.ndjson       # five child processes
//	go run -C cmd/benchmark . -compare a.ndjson b.ndjson
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads lists the workloads in the order -workload all runs them, each
// with the reason it exists (BENCHMARK.json carries the same lines).
var workloads = []struct{ Name, Why string }{
	{"pingpong_small", "one or two packets per message and a fresh 2-node cluster per 28 messages: MPI/MPCI per-message cost, cluster build and proc park/unpark dominate"},
	{"stream_large", "65 to 1000 packets per message: engine events, per-packet fabric/adapter/HAL cost, BufPool and transport reassembly dominate; the opposite of pingpong_small"},
	{"nas_ring", "NAS kernels and 8/16-node rings: collectives, 4 to 16 concurrent procs, park-heavy compute quanta, and host arithmetic no simulator change can touch"},
	{"faulted", "chaos workloads under four fault presets: retransmit and backoff timers, CRC drops, duplicate suppression, route failover; the recovery path beside the fast path"},
	{"campaign_service", "cold 16-seed fig11 campaigns through spsimd over HTTP, then exact hits and coalescing pairs: the only path through sweep, campaign, cache, queue and server"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// session is one set-up of a workload, ready to be measured.
type session interface {
	// measure takes pass samples (milliseconds) for about d, with spans
	// recorded into rec when it is non-nil.
	measure(d time.Duration, sc scale, rec *recorder) []float64
	// passCounts are the exact per-layer counters behind one pass.
	passCounts() counts
	// result returns the operations judged so far and how many distinct
	// pinned values they were held to.
	result() (tally, int)
	close() error
}

func (r *simRun) measure(d time.Duration, sc scale, rec *recorder) []float64 {
	return repeatFor(d, sc.reps(3), sc.smoke, func() float64 { return timed(func() { r.pass(rec) }) })
}
func (r *simRun) result() (tally, int) { return r.tally, r.pinned }
func (r *simRun) close() error         { return nil }

func (r *missRun) measure(d time.Duration, sc scale, rec *recorder) []float64 {
	return repeatFor(d, sc.reps(3), sc.smoke, func() float64 { return r.miss(rec) })
}
func (r *missRun) passCounts() counts { return campaignCounts(r.seeds) }
func (r *missRun) result() (tally, int) {
	return r.tally, len(r.exp.Campaigns["fig11"]) + len(r.exp.Campaigns["ablate-ctxswitch"])
}
func (r *missRun) close() error { return r.s.stop() }

func open(workload string, seed int64, sc scale) (session, error) {
	if workload == "campaign_service" {
		return setUpMiss(seed, sc)
	}
	if w := findSimWorkload(workload); w != nil {
		return w.setUp(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", workload, strings.Join(workloadNames(), ", "))
}

// defaultSeconds is the length of the timed section; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 20

// After its timed misses campaign_service has 2 clients resubmit what was
// computed hitsPerClient times each, then collide on a fresh request
// coalesceRounds times; every answer is a checked operation.
const (
	hitsPerClient  = 500
	coalesceRounds = 4
)

// singleP pins the Go scheduler to one P and returns the call that undoes
// it. Everything that drives one simulation engine from one goroutine runs
// under it: the engine token admits one runnable goroutine at a time, so a
// second P can only add cross-CPU wake-ups to every park/unpark and let the
// collector run beside the mutator. Interleaved A/B runs on the sizing host
// were 7 to 17 % faster and a third steadier with one P; it is also the
// share of the host a cell gets inside a sweep's worker pool.
func singleP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// pinFor pins to one P when workload is a simulation workload;
// campaign_service keeps the host's Ps for its sweep workers and clients.
func pinFor(workload string) (restore func()) {
	if findSimWorkload(workload) != nil {
		return singleP()
	}
	return func() {}
}

// runEndToEnd measures the end-to-end metrics: set-up repeated for its
// median, then passes for about d with the span recorder off.
func runEndToEnd(workload string, seed int64, d time.Duration, sc scale) (metricSet, tally, error) {
	defer pinFor(workload)()
	var s session
	var total tally
	setups, err := repeatSetup(sc.smoke,
		func() (err error) { s, err = open(workload, seed, sc); return err },
		func() {
			t, _ := s.result()
			total.merge(t)
			s.close()
		})
	if err != nil {
		return nil, total, err
	}
	defer s.close()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	passes := s.measure(d, sc, nil)
	runtime.ReadMemStats(&m1)
	if m, ok := s.(*missRun); ok {
		hits := hitsPerClient
		if sc.smoke {
			hits = 10
		}
		m.hits(2, hits, nil)
		for i := 0; i < sc.reps(coalesceRounds); i++ {
			m.coalesce(nil)
		}
	}
	t, _ := s.result()
	total.merge(t)

	out := metricSet{}
	n := float64(len(passes))
	out.set("setup_s", median(setups), "s", len(setups))
	out.set("pass_ms_p50", median(passes), "ms", len(passes))
	out.set("allocs_per_pass", float64(m1.Mallocs-m0.Mallocs)/n, "objects", len(passes))
	out.set("alloc_kb_per_pass", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, "KiB", len(passes))
	return out, total, nil
}

// runTraced produces the per-layer metrics: the workload-independent probes,
// then the workload itself in alternating stretches (a tenth of d each) with
// the recorder off and on, then the exact counters of one pass.
func runTraced(workload string, seed int64, d time.Duration, sc scale, traceOut string) (metricSet, tally, error) {
	restore := pinFor(workload)
	s, err := open(workload, seed, sc)
	restore()
	if err != nil {
		return nil, tally{}, err
	}
	defer s.close()
	exp, err := loadExpected()
	if err != nil {
		return nil, tally{}, err
	}
	rec := newRecorder()
	out := metricSet{}
	var total tally
	if err := runProbes(rec, sc, exp, out, &total); err != nil {
		return nil, total, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var off, on []float64
	restore = pinFor(workload)
	for i := 0; i < sc.reps(2); i++ {
		off = append(off, s.measure(d/10, sc, nil)...)
		on = append(on, s.measure(d/10, sc, rec)...)
	}
	restore()
	runtime.ReadMemStats(&m1)
	if m, ok := s.(*missRun); ok {
		m.hits(2, 10, rec)
		m.coalesce(rec)
	}
	t, pinned := s.result()
	total.merge(t)

	out.setCounts(s.passCounts(), median(off))
	inflation := 0.0
	if r, ok := s.(*simRun); ok {
		inflation = r.inflationMax()
	}
	out.set("chaos.inflation_max", inflation, "ratio", 1)
	pct := tailPercentile(len(off))
	out.set("harness.pass_ms_tail", quantile(off, pct/100), "ms", len(off))
	out.set("harness.pass_tail_pct", pct, "%", len(off))
	out.set("harness.peak_rss_mb", peakRSSMiB(), "MiB", 1)
	out.set("harness.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", int(m1.NumGC-m0.NumGC))
	out.set("harness.span_overhead_pct", 100*(median(on)/median(off)-1), "%", len(on))
	out.set("harness.vtime_cells_checked", float64(pinned), "count", 1)

	fmt.Println("spans (total and self host time by name):")
	for _, st := range rec.totals() {
		fmt.Printf("  %-44s n=%-7d total %10.3f ms  self %10.3f ms\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
	if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
		return nil, total, err
	}
	if err := rec.writeChrome(traceOut); err != nil {
		return nil, total, err
	}
	fmt.Printf("wrote Chrome trace %s (%d spans)\n", traceOut, len(rec.spans))
	return out, total, nil
}

// peakRSSMiB reads the process's VmHWM (0 where /proc is unavailable).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// host describes the machine a result was taken on; wall-clock numbers only
// compare between runs that agree on it.
type host struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
}

func thisHost() host {
	h := host{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

// reading is a metric as results carry it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// verdictOf assembles the run's verdict: exactly the declared metrics, each
// of which must have been measured.
func verdictOf(defs []metricDef, out metricSet, total tally) (verdict, error) {
	v := verdict{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]reading{}}
	for _, def := range defs {
		m, ok := out[def.Name]
		if !ok {
			return v, fmt.Errorf("metric %s was not measured", def.Name)
		}
		if m.Unit != def.Unit {
			return v, fmt.Errorf("metric %s measured in %s, declared in %s", def.Name, m.Unit, def.Unit)
		}
		v.Metrics[def.Name] = reading{m.Value, m.Unit}
	}
	return v, nil
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`
	verdict
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runAll runs every workload in a fresh child process, in sequence.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	for _, w := range workloadNames() {
		cmd := exec.Command(self, append([]string{"-workload", w}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "drives payload fill, fault-plan seeds and campaign baseSeeds")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the timed section measures")
		trace    = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics and writing a Chrome trace")
		traceOut = flag.String("trace-out", "", "Chrome trace path of a traced run (default "+tmpRoot+"/trace-<workload>.json)")
		smoke    = flag.Bool("smoke", false, "bit-rot scale: one pass, twenty hits, one coalesce round, five ladder messages")
		outPath  = flag.String("out", "", "append this run's result to an NDJSON result set (for -compare)")
		update   = flag.Bool("update-expected", false, "recompute and write expected.json (checked against the committed BENCH_*.json)")
		repo     = flag.String("repo", filepath.Join("..", ".."), "repository root, for -update-expected")
		compare  = flag.Bool("compare", false, "compare two NDJSON result sets: -compare a.ndjson b.ndjson")
	)
	flag.Parse()

	switch {
	case *update:
		if err := updateExpected(".", *repo); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result sets")
			os.Exit(2)
		}
		os.Exit(compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload == "all":
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		os.Exit(runAll(args))
	}

	// The contract allows a run 180 s. A cell that never quiesces (see
	// faultSeedPool) must fail the run, not hang it.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: watchdog: run exceeded 170 s; a simulated cell is not quiescing")
		os.Exit(3)
	})

	sc := scale{smoke: *smoke}
	d := time.Duration(*seconds * float64(time.Second))
	h := thisHost()
	fmt.Printf("benchmark workload=%s seed=%d seconds=%g trace=%d smoke=%v\n", *workload, *seed, *seconds, *trace, *smoke)
	fmt.Printf("host go=%s gomaxprocs=%d nproc=%d cpu=%q\n", h.Go, h.GOMAXPROCS, h.NumCPU, h.CPU)

	var out metricSet
	var total tally
	var err error
	var defs []metricDef
	if *trace != 0 {
		if *traceOut == "" {
			*traceOut = filepath.Join(tmpRoot, "trace-"+*workload+".json")
		}
		out, total, err = runTraced(*workload, *seed, d, sc, *traceOut)
		defs = perLayer()
	} else {
		out, total, err = runEndToEnd(*workload, *seed, d, sc)
		defs = endToEnd
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}

	v, err := verdictOf(defs, out, total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	for _, def := range defs {
		m := out[def.Name]
		fmt.Printf("metric %-36s %16.6g %-8s n=%d\n", def.Name, m.Value, m.Unit, m.N)
	}
	for _, f := range total.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("operations attempted=%d failed=%d\n", total.attempted, total.failed)
	if *outPath != "" {
		if err := appendRecord(*outPath, record{*workload, *seed, *trace != 0, h, v}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !v.Correct {
		os.Exit(1)
	}
}
