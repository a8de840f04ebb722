package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"testing"
)

var updateContract = flag.Bool("update-contract", false, "rewrite ../../BENCHMARK.json from the tables in main.go and metrics.go")

var smokeScale = scale{smoke: true}

// skipSimUnderRace skips work that drives the simulator from one goroutine:
// the race detector slows it twelvefold and has nothing to find there that
// the simulator's own -race suite does not cover. What the benchmark itself
// runs concurrently (service clients, the span recorder, the MCP pipe) stays
// in the -race run.
func skipSimUnderRace(t *testing.T) {
	// Build settings rather than a pair of race/!race files: simlint
	// type-checks every file of the package together, ignoring build tags.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("single-goroutine simulation work; covered without -race")
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload end to end at the -smoke scale:
// no operation may fail and exactly the declared metrics must come out.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "stream_large" || w.Name == "nas_ring" || w.Name == "faulted" {
				skipSimUnderRace(t)
			}
			out, total, err := runEndToEnd(w.Name, 1, 0, smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			v, err := verdictOf(endToEnd, out, total)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Correct || v.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d: %v", v.Attempted, v.Failed, total.failures)
			}
			for name, r := range v.Metrics {
				if r.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, r.Value)
				}
			}
		})
	}
}

// TestSmokeOtherSeed holds the seed-invariance claim: clean cells match
// pins made at seed 1 under another seed, and the faulted cells of an
// unpinned seed still pass the chaos gates.
func TestSmokeOtherSeed(t *testing.T) {
	skipSimUnderRace(t)
	for _, name := range []string{"pingpong_small", "faulted"} {
		_, total, err := runEndToEnd(name, 2, 0, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if total.failed != 0 {
			t.Errorf("%s at seed 2: %v", name, total.failures)
		}
	}
}

// TestSmokeTraced runs the traced path: every per-layer metric is measured
// and the Chrome trace loads.
func TestSmokeTraced(t *testing.T) {
	skipSimUnderRace(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	out, total, err := runTraced("pingpong_small", 1, 0, smokeScale, path)
	if err != nil {
		t.Fatal(err)
	}
	if total.failed != 0 {
		t.Fatalf("failures: %v", total.failures)
	}
	if _, err := verdictOf(perLayer(), out, total); err != nil {
		t.Fatal(err)
	}
	if got, want := out["harness.vtime_cells_checked"].Value, float64(len(pingPongCells())); got != want {
		t.Errorf("vtime_cells_checked = %v, want the %v clean cells", got, want)
	}
	if got := out["queue.coalesce_runs"].Value; got != 1 {
		t.Errorf("queue.coalesce_runs = %v, want 1 per round", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]int
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("Chrome trace does not load: %v", err)
	}
	if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" {
		t.Fatalf("Chrome trace has no complete events")
	}
	for i, ev := range trace.TraceEvents {
		if p := ev.Args["parent"]; p >= i {
			t.Fatalf("span %d (%s) names parent %d, which does not precede it", i, ev.Name, p)
		}
	}
}

// TestServiceProbes runs the probes that start goroutines of their own, so
// that they stay under the race detector when TestSmokeTraced is skipped.
func TestServiceProbes(t *testing.T) {
	rec := newRecorder()
	out := metricSet{}
	var total tally
	if err := probeCampaign(rec, smokeScale, out); err != nil {
		t.Fatal(err)
	}
	if err := probeServer(rec, smokeScale, out, 0, &total); err != nil {
		t.Fatal(err)
	}
	if total.failed != 0 {
		t.Fatalf("failures: %v", total.failures)
	}
	if got := out["queue.coalesce_runs"].Value; got != 1 {
		t.Errorf("queue.coalesce_runs = %v, want 1 per round", got)
	}
}

// TestPerturbedPinFails shows the benchmark checks its outputs: moving one
// pinned value by one unit in the last place fails that cell's operations.
func TestPerturbedPinFails(t *testing.T) {
	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	const id = "pingpong/native/64/poll"
	pin, ok := exp.Cells[id]
	if !ok {
		t.Fatalf("%s is not pinned", id)
	}
	pin.VTime++
	exp.Cells[id] = pin
	if expectedJSON, err = json.Marshal(exp); err != nil {
		t.Fatal(err)
	}
	_, total, err := runEndToEnd("pingpong_small", 1, 0, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up pass and the timed pass each run the cell once.
	if total.failed != 2 || !strings.Contains(total.failures[0], id) {
		t.Fatalf("failed = %d (%v), want the 2 runs of %s", total.failed, total.failures, id)
	}
}

func TestFaultSeedsComeFromThePool(t *testing.T) {
	pool := map[int64]bool{}
	for _, s := range faultSeedPool {
		pool[s] = true
	}
	for _, seed := range []int64{-5, 0, 1, 2, 16, 17, 1 << 40} {
		fs := faultSeeds(seed)
		if len(fs) != 4 {
			t.Fatalf("seed %d: %d fault seeds", seed, len(fs))
		}
		for _, s := range fs {
			if !pool[s] {
				t.Errorf("seed %d: fault seed %d is not in the pool", seed, s)
			}
		}
	}
	if a, b := faultSeeds(1), faultSeeds(2); a[0] == b[0] {
		t.Errorf("seeds 1 and 2 share fault seeds %v", a)
	}
}

func TestCompareJudgesAgainstBounds(t *testing.T) {
	set := func(pass float64) map[string]map[string][]float64 {
		m := map[string][]float64{}
		for _, def := range endToEnd {
			m[def.Name] = []float64{100, 101, 99, 100, 102}
		}
		m["pass_ms_p50"] = []float64{pass, pass * 1.01, pass * 0.99}
		return map[string]map[string][]float64{"stream_large": m}
	}
	var buf bytes.Buffer
	if code := judge(&buf, set(100), set(104)); code != 0 {
		t.Errorf("+4%% judged an exceedance:\n%s", buf.String())
	}
	buf.Reset()
	if code := judge(&buf, set(100), set(140)); code != 1 || !strings.Contains(buf.String(), "EXCEEDS-BOUND") {
		t.Errorf("+40%% not judged an exceedance (code %d):\n%s", code, buf.String())
	}
	buf.Reset()
	if code := judge(&buf, set(140), set(100)); code != 0 {
		t.Errorf("an improvement judged an exceedance:\n%s", buf.String())
	}
}

// contract is the schema of BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func contractFromTables() contract {
	c := contract{
		Command:    []string{"go", "run", "-C", "cmd/benchmark", "."},
		Paths:      []string{"cmd/benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer() {
		c.PerLayer = append(c.PerLayer, contractMetric{d.Name, d.Unit, d.Better, nil})
	}
	return c
}

// TestContractMatchesBenchmarkJSON holds BENCHMARK.json and the binary to
// each other: every declared name is one the binary prints and the reverse
// (verdictOf prints exactly the tables), and every name, unit and reason
// fits the driver's limits.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	want := contractFromTables()
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *updateContract {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("BENCHMARK.json differs from the tables in the binary (run go test -run Contract -update-contract):\n got %s\nwant %s", gotJSON, wantJSON)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: reason is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]contractMetric{}, got.EndToEnd...), got.PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not fit the driver's limits", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
}
