package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"splapi/internal/bench"
	"splapi/internal/campaign"
	"splapi/internal/campaign/queue"
	"splapi/internal/sweep"
)

func newTestService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := NewService(Config{Git: "test-code", CacheDir: dir, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// submit POSTs a campaign with ?wait=1 and returns status, headers, body.
func submit(t *testing.T, ts *httptest.Server, req campaign.Request) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns?wait=1", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// metric fetches /metrics and returns the value of one counter line.
func metric(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (.*)$`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s missing from:\n%s", name, data)
	}
	return string(m[1])
}

// The acceptance path end to end: the same sweep campaign submitted twice
// returns byte-identical sweep/v3 artifacts, the second from cache (hit
// header, hit counter), and the cold run's medians match the committed
// BENCH_fig10.json baseline exactly (tolerance 0) — clean-fabric
// dispersion is degenerate, so even a 2-seed run reproduces the 16-seed
// committed medians bit for bit.
func TestCacheExactnessEndToEnd(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	req := campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 2}

	cold, coldBody := submit(t, ts, req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Spsimd-Cache"); got != "miss" {
		t.Fatalf("cold run cache header = %q, want miss", got)
	}

	warm, warmBody := submit(t, ts, req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d: %s", warm.StatusCode, warmBody)
	}
	if got := warm.Header.Get("X-Spsimd-Cache"); got != "hit" {
		t.Fatalf("warm run cache header = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("cache hit served different bytes than the cold run")
	}
	if cold.Header.Get("X-Spsimd-Digest") != warm.Header.Get("X-Spsimd-Digest") {
		t.Fatal("digests differ between cold and warm runs")
	}
	if got := metric(t, ts, "spsimd_cache_hits_total"); got != "1" {
		t.Fatalf("spsimd_cache_hits_total = %s, want 1", got)
	}
	if got := metric(t, ts, "spsimd_cache_puts_total"); got != "1" {
		t.Fatalf("spsimd_cache_puts_total = %s, want 1", got)
	}

	// The artifact is a real sweep/v3 result matching the committed
	// baseline's medians at zero tolerance.
	var got sweep.Result
	if err := json.Unmarshal(coldBody, &got); err != nil {
		t.Fatalf("artifact is not a sweep result: %v", err)
	}
	if got.Schema != sweep.SchemaV3 {
		t.Fatalf("artifact schema = %q, want %q", got.Schema, sweep.SchemaV3)
	}
	baseline, err := sweep.Load("../../../BENCH_fig10.json")
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := sweep.Compare(baseline, &got, sweep.CompareOpts{TolPct: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("comparison matched no points")
	}
	for _, d := range deltas {
		if d.Moved {
			t.Errorf("served %s/x=%d median %v differs from committed baseline %v", d.Series, d.X, d.New, d.Old)
		}
	}

	// The digest-addressed lookup serves the same bytes.
	resp, err := ts.Client().Get(ts.URL + "/v1/results/" + cold.Header.Get("X-Spsimd-Digest"))
	if err != nil {
		t.Fatal(err)
	}
	byDigest, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("results lookup: %d, %v", resp.StatusCode, err)
	}
	if !bytes.Equal(byDigest, coldBody) {
		t.Fatal("digest lookup served different bytes")
	}
}

// SIGTERM semantics at the service layer: a drain cancels the running
// campaign (its in-flight cells finish, its artifact is discarded),
// persists nothing partial, and a restarted service over the same cache
// directory picks the completed entries back up as hits.
func TestGracefulDrainAndRestart(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: drain mid-campaign. Plenty of repetitions so the job is
	// still running when the drain lands.
	svc := newTestService(t, dir)
	j, err := svc.Submit(campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 16})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() == queue.Queued {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if j.State() != queue.Canceled {
		t.Fatalf("drained job state = %s, want canceled", j.State())
	}
	if !strings.Contains(j.Err(), "draining in-flight cells") {
		t.Fatalf("drained job error %q does not describe the drain", j.Err())
	}
	if st := svc.Metrics().Cache; st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("drain persisted a partial artifact: %+v", st)
	}

	// Phase 2: a restarted service completes a small campaign and persists
	// it.
	svc2 := newTestService(t, dir)
	req := campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 2}
	j2, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if j2.State() != queue.Done || j2.Cached {
		t.Fatalf("post-restart run: state=%s cached=%v err=%q", j2.State(), j2.Cached, j2.Err())
	}
	body2, _ := j2.Body()
	if err := svc2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Phase 3: another restart resumes from the on-disk cache — the same
	// request is a hit with identical bytes, without running anything.
	svc3 := newTestService(t, dir)
	defer svc3.Drain(context.Background())
	j3, err := svc3.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Done()
	if !j3.Cached {
		t.Fatal("restarted service did not serve from the on-disk cache")
	}
	body3, _ := j3.Body()
	if !bytes.Equal(body2, body3) {
		t.Fatal("cache bytes changed across restart")
	}
}

// Contradictory or retired requests are refused before anything runs: a
// request the registry or the sweep validator cannot honour, or a kind
// other than sweep, is 422 and names the problem; a field the request type
// does not have (a typo, or a retired knob) is 400 and names the field — it
// must not digest as the default configuration.
func TestSubmitRejectsContradictions(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		status     int
		mention    string // substring the decoded error must carry
	}{
		{"negative seeds", `{"kind":"sweep","experiment":"fig10","seeds":-1}`, http.StatusUnprocessableEntity, "seeds"},
		{"retired stopping cap", `{"kind":"sweep","experiment":"fig10","seeds":16,"seedsMax":4,"relCIPct":2}`, http.StatusBadRequest, `"seedsMax"`},
		{"unknown experiment", `{"kind":"sweep","experiment":"nope"}`, http.StatusUnprocessableEntity, "nope"},
		{"unknown kind", `{"kind":"mystery"}`, http.StatusUnprocessableEntity, `the only campaign kind is "sweep"`},
		{"chaos kind", `{"kind":"chaos"}`, http.StatusUnprocessableEntity, `the only campaign kind is "sweep"`},
		{"trace kind", `{"kind":"trace","experiment":"fig10"}`, http.StatusUnprocessableEntity, `the only campaign kind is "sweep"`},
		{"typoed field", `{"kind":"sweep","experiment":"fig10","sedes":4}`, http.StatusBadRequest, `"sedes"`},
		{"chaos plans field", `{"kind":"sweep","experiment":"fig10","plans":["burst-loss"]}`, http.StatusBadRequest, `"plans"`},
		{"trace series field", `{"kind":"sweep","experiment":"fig10","series":"RAW LAPI"}`, http.StatusBadRequest, `"series"`},
		{"trace seed field", `{"kind":"sweep","experiment":"fig10","seed":2}`, http.StatusBadRequest, `"seed"`},
		{"fault plan file", `{"kind":"sweep","experiment":"fig10","faults":"@/etc/hostname"}`, http.StatusUnprocessableEntity, "@file plans are read only by the command-line tools"},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns?wait=1", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reply is not an error object: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, reply.Error)
		}
		if !strings.Contains(reply.Error, tc.mention) {
			t.Errorf("%s: error %q does not mention %s", tc.name, reply.Error, tc.mention)
		}
	}
}

// A submission body is one JSON object of bounded size: trailing bytes, a
// body over the cap and the retired "shards" knob are refused, and the same
// requests without the defect are accepted as before.
func TestSubmitRejectsHostileBodies(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	const ok = `{"kind":"sweep","experiment":"ablate-eager"}`
	padded := func(n int) string {
		return `{"kind":"sweep","experiment":"ablate-eager","faults":"` + strings.Repeat(" ", n) + `"}`
	}
	for _, tc := range []struct {
		name, body string
		status     int
		mention    string // substring the error must carry
	}{
		{"plain object", ok, http.StatusAccepted, ""},
		{"trailing whitespace", ok + " \n\t", http.StatusAccepted, ""},
		{"trailing garbage", ok + ` trailing garbage {"kind":`, http.StatusBadRequest, ""},
		{"second object", ok + ok, http.StatusBadRequest, "trailing data"},
		{"under the cap", padded(maxRequestBody / 2), http.StatusAccepted, ""},
		{"over the cap", padded(maxRequestBody), http.StatusRequestEntityTooLarge, ""},
		{"over the cap after the object", ok + strings.Repeat(" ", maxRequestBody), http.StatusRequestEntityTooLarge, ""},
		{"retired shards knob", `{"kind":"sweep","experiment":"ablate-eager","shards":2}`, http.StatusBadRequest, "shards"},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, msg)
		}
		if !strings.Contains(string(msg), tc.mention) {
			t.Errorf("%s: error %s does not mention %s", tc.name, msg, tc.mention)
		}
	}
}

// The events endpoint replays the full lifecycle as NDJSON and includes
// per-repetition progress frames from the sweep worker pool.
func TestEventStream(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	data := `{"kind":"sweep","experiment":"ring","seeds":1}`
	resp, err := ts.Client().Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var jv struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + jv.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	stream, err := io.ReadAll(resp.Body) // server closes at the terminal state
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	var states []string
	var last sweep.Progress
	progress := 0
	for i, line := range lines {
		var ev struct {
			Seq      int             `json:"seq"`
			Kind     string          `json:"kind"`
			State    string          `json:"state"`
			Progress json.RawMessage `json:"progress"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not an event: %q", i, line)
		}
		if ev.Seq != i {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
		switch ev.Kind {
		case "state":
			states = append(states, ev.State)
		case "progress":
			progress++
			// Cell 0 and repetition 0 are values, not absences: every
			// frame carries every counter.
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(ev.Progress, &keys); err != nil {
				t.Fatalf("progress frame %d: %v", i, err)
			}
			for _, key := range []string{"cell", "rep", "done", "planned"} {
				if _, ok := keys[key]; !ok {
					t.Fatalf("progress frame %d has no %q key: %s", i, key, line)
				}
			}
			if err := json.Unmarshal(ev.Progress, &last); err != nil {
				t.Fatalf("progress frame %d: %v", i, err)
			}
		}
	}
	if want := fmt.Sprint([]string{"queued", "running", "done"}); fmt.Sprint(states) != want {
		t.Fatalf("state events = %v, want %s", states, want)
	}
	e, err := bench.FindExperiment("ring")
	if err != nil {
		t.Fatal(err)
	}
	want := len(e.Cells) // × 1 seed
	if progress != want {
		t.Fatalf("%d progress frames, want cells × seeds = %d", progress, want)
	}
	if last.Done != want || last.Planned != want {
		t.Fatalf("last progress frame %+v, want done = planned = %d", last, want)
	}
}

// Two concurrent submissions of one digest share a single job while a
// distinct request gets its own.
func TestSubmitCoalescesInFlight(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())

	req := campaign.Request{Kind: campaign.Sweep, Experiment: "fig10", Seeds: 2}
	j1, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatal("identical in-flight submissions produced distinct jobs")
	}
	other, err := svc.Submit(campaign.Request{Kind: campaign.Sweep, Experiment: "ring", Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if other == j1 {
		t.Fatal("distinct requests coalesced")
	}
	<-j1.Done()
	<-other.Done()
	if j1.State() != queue.Done || other.State() != queue.Done {
		t.Fatalf("states: %s, %s", j1.State(), other.State())
	}
}

// do issues one request against the handler and returns status and body.
func do(t *testing.T, ts *httptest.Server, method, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// The job-lifecycle and registry endpoints over one settled campaign: the
// job is listed, its status reads done, its result is the digest-addressed
// artifact byte for byte, cancelling it after the fact leaves it done, an
// unknown id is 404 on every job route, and the registry lists every
// experiment.
func TestJobAndRegistryEndpoints(t *testing.T) {
	svc := newTestService(t, t.TempDir())
	defer svc.Drain(context.Background())
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	resp, artifact := submit(t, ts, campaign.Request{Kind: campaign.Sweep, Experiment: "ring", Seeds: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d: %s", resp.StatusCode, artifact)
	}
	digest := resp.Header.Get("X-Spsimd-Digest")

	status, body := do(t, ts, "GET", "/v1/campaigns")
	var listed []jobView
	if err := json.Unmarshal(body, &listed); status != http.StatusOK || err != nil {
		t.Fatalf("list: %d, %v: %s", status, err, body)
	}
	if len(listed) != 1 || listed[0].Digest != digest || listed[0].Request.Experiment != "ring" {
		t.Fatalf("list = %+v, want the one ring job at %s", listed, digest)
	}
	id := listed[0].ID

	var view jobView
	status, body = do(t, ts, "GET", "/v1/jobs/"+id)
	if err := json.Unmarshal(body, &view); status != http.StatusOK || err != nil || view.State != queue.Done {
		t.Fatalf("job status: %d, %v: %s", status, err, body)
	}

	status, byJob := do(t, ts, "GET", "/v1/jobs/"+id+"/result")
	_, byDigest := do(t, ts, "GET", "/v1/results/"+digest)
	if status != http.StatusOK || !bytes.Equal(byJob, byDigest) || !bytes.Equal(byJob, artifact) {
		t.Fatalf("job result (%d, %d bytes) is not the digest-addressed artifact (%d bytes)", status, len(byJob), len(byDigest))
	}

	status, body = do(t, ts, "POST", "/v1/jobs/"+id+"/cancel")
	if err := json.Unmarshal(body, &view); status != http.StatusOK || err != nil || view.State != queue.Done {
		t.Fatalf("cancel of a settled job: %d, %v: %s", status, err, body)
	}

	for _, route := range []struct{ method, path string }{
		{"GET", "/v1/jobs/nope"},
		{"GET", "/v1/jobs/nope/result"},
		{"POST", "/v1/jobs/nope/cancel"},
	} {
		if status, body := do(t, ts, route.method, route.path); status != http.StatusNotFound || !strings.Contains(string(body), "nope") {
			t.Errorf("%s %s = %d: %s, want 404 naming the id", route.method, route.path, status, body)
		}
	}

	status, body = do(t, ts, "GET", "/v1/experiments")
	var exps []campaign.ExperimentInfo
	if err := json.Unmarshal(body, &exps); status != http.StatusOK || err != nil {
		t.Fatalf("experiments: %d, %v: %s", status, err, body)
	}
	var ids, want []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	for _, e := range bench.Experiments() {
		want = append(want, e.ID)
	}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("experiments = %v, want the registry %v", ids, want)
	}
}
