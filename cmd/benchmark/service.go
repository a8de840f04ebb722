package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"splapi/internal/bench"
	"splapi/internal/campaign"
	"splapi/internal/campaign/server"
	"splapi/internal/sweep"
)

// tmpRoot holds every file the benchmark writes: cache directories of the
// service workloads and Chrome traces. It is relative, so it lands inside
// the checkout the benchmark was started from.
const tmpRoot = ".bench_tmp"

// codeVersion is the Git string the benchmark's service keys its cache
// with; any constant works, since each service gets a fresh cache dir.
const codeVersion = "benchmark"

// service is an in-process spsimd: server.NewService behind server.Handler
// on a real loopback listener with a throw-away cache directory.
type service struct {
	dir    string
	svc    *server.Service
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

func startService() (*service, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "cache-")
	if err != nil {
		return nil, err
	}
	svc, err := server.NewService(server.Config{Git: codeVersion, CacheDir: dir, Jobs: 1, Par: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		dir: dir, svc: svc,
		srv:    &http.Server{Handler: server.Handler(svc)},
		url:    "http://" + ln.Addr().String() + "/v1/campaigns?wait=1",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, drains the service, waits for the serve
// goroutine and removes the cache directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if derr := s.svc.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	os.Remove(tmpRoot) // succeeds only once the last user has left
	return err
}

// reply is one client-observed HTTP exchange.
type reply struct {
	status  int
	cache   string // X-Spsimd-Cache
	body    []byte
	latency time.Duration
}

// submit POSTs one campaign in synchronous mode and reads the artifact.
func (s *service) submit(req campaign.Request, rec *recorder, lane int) (reply, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return reply{}, err
	}
	sp := rec.begin("http POST /v1/campaigns", -1, rec.newOp(), lane)
	defer rec.end(sp)
	t0 := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Spsimd-Cache"), body: body, latency: time.Since(t0)}, nil
}

// checkReply judges one exchange: status, cache header, and the body —
// byte for byte against wantBody when the computed body is known, else
// against the pinned medians.
func checkReply(r reply, err error, wantCache string, exp *expected, experiment string, wantBody []byte) string {
	switch {
	case err != nil:
		return "request failed: " + err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d: %.200s", r.status, r.body)
	case r.cache != wantCache:
		return fmt.Sprintf("X-Spsimd-Cache %q, want %q", r.cache, wantCache)
	case wantBody != nil:
		if !bytes.Equal(r.body, wantBody) {
			return "cached body differs from the computed body"
		}
		return ""
	}
	return verifySweepBody(exp, experiment, r.body)
}

// verifySweepBody decodes a sweep artifact and holds every point to the
// pinned median. Clean-fabric cells are seed-invariant, so min and max must
// equal the median too, whatever baseSeed the request carried.
func verifySweepBody(exp *expected, experiment string, body []byte) string {
	var res sweep.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return "artifact does not decode: " + err.Error()
	}
	pins := exp.Campaigns[experiment]
	if res.Experiment != experiment || len(res.Points) != len(pins) || len(pins) == 0 {
		return fmt.Sprintf("artifact is %q with %d points, want %q with %d", res.Experiment, len(res.Points), experiment, len(pins))
	}
	for _, p := range res.Points {
		want, ok := pins[pointKey(p.Series, p.X)]
		if !ok || p.Stats.Median != want || p.Stats.Min != want || p.Stats.Max != want {
			return fmt.Sprintf("%s (%s, %d): median %v [%v, %v], pinned %v", experiment, p.Series, p.X, p.Stats.Median, p.Stats.Min, p.Stats.Max, want)
		}
	}
	return ""
}

// missSeeds is the seed count of a cold campaign: the 16-seed fig11 sweep
// the ROADMAP's seed-invariance item would cut.
const missSeeds = 16

func (sc scale) missSeeds() int {
	if sc.smoke {
		return 1
	}
	return missSeeds
}

func sweepRequest(experiment string, seeds int, baseSeed int64) campaign.Request {
	return campaign.Request{Kind: campaign.Sweep, Experiment: experiment, Seeds: seeds, BaseSeed: baseSeed}
}

// baseSeedFor spreads run seeds far apart so no two runs share a digest.
func baseSeedFor(seed int64, i int) int64 { return seed*1_000_000 + int64(i) + 1 }

// missRun is one set-up of campaign_service: a service that has served one
// warm-up miss.
type missRun struct {
	s     *service
	exp   *expected
	seed  int64
	seeds int // seeds per cold campaign
	next  int // next unused baseSeed index
	tally tally
	// reqs and bodies are the campaigns this service has computed: what the
	// hit phase resubmits and what the answers must equal.
	reqs   []campaign.Request
	bodies [][]byte
}

func setUpMiss(seed int64, sc scale) (*missRun, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	s, err := startService()
	if err != nil {
		return nil, err
	}
	r := &missRun{s: s, exp: exp, seed: seed, seeds: sc.missSeeds()}
	r.miss(nil)
	return r, nil
}

// miss submits one never-seen fig11 sweep and returns the client-observed
// latency in milliseconds; it then resubmits it once to see the cache
// answer with the same bytes.
func (r *missRun) miss(rec *recorder) float64 {
	req := sweepRequest("fig11", r.seeds, baseSeedFor(r.seed, r.next))
	r.next++
	cold, err := r.s.submit(req, rec, 0)
	r.tally.op(checkReply(cold, err, "miss", r.exp, "fig11", nil))
	again, err := r.s.submit(req, rec, 0)
	r.tally.op(checkReply(again, err, "hit", r.exp, "fig11", cold.body))
	r.reqs = append(r.reqs, req)
	r.bodies = append(r.bodies, cold.body)
	return ms(cold.latency)
}

// coalesce has two clients submit one fresh request at the same instant and
// returns how many times the service ran it (cache writes; must be 1).
func (r *missRun) coalesce(rec *recorder) (runs int) {
	req := sweepRequest("ablate-ctxswitch", 4, baseSeedFor(r.seed, r.next))
	r.next++
	before := r.s.svc.Metrics()
	var replies [2]reply
	var errs [2]error
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			replies[c], errs[c] = r.s.submit(req, rec, c)
		}()
	}
	close(start)
	wg.Wait()
	after := r.s.svc.Metrics()
	runs = int(after.Cache.Puts - before.Cache.Puts)
	failure := ""
	for c := range replies {
		// Whichever client lost the race was coalesced (it shares the
		// computed job: "miss") or, if it arrived after completion, cached
		// ("hit"); either way its body must be the pinned artifact.
		if f := checkReply(replies[c], errs[c], replies[c].cache, r.exp, "ablate-ctxswitch", nil); f != "" {
			failure = f
		}
	}
	if failure == "" && !bytes.Equal(replies[0].body, replies[1].body) {
		failure = "coalesced clients received different bodies"
	}
	if failure == "" && runs != 1 {
		failure = fmt.Sprintf("coalesce round ran %d times", runs)
	}
	r.tally.op(failure)
	return runs
}

// hits runs the closed loop of exact hits: clients goroutines, each with its
// own connection, each resubmitting the computed campaigns round robin
// perClient times; every answer must be the computed bytes. It returns the
// client-observed latencies in milliseconds, in order, per client.
func (r *missRun) hits(clients, perClient int, rec *recorder) [][]float64 {
	lat := make([][]float64, clients)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat[c] = make([]float64, 0, perClient)
			for i := 0; i < perClient; i++ {
				k := (i + c) % len(r.reqs)
				rep, err := r.s.submit(r.reqs[k], rec, c)
				tallies[c].op(checkReply(rep, err, "hit", r.exp, "fig11", r.bodies[k]))
				lat[c] = append(lat[c], ms(rep.latency))
			}
		}()
	}
	wg.Wait()
	for c := range tallies {
		r.tally.merge(tallies[c])
	}
	return lat
}

// campaignCounts returns the exact per-layer counters behind one cold
// fig11 campaign of the given seed count: that many times one direct sweep
// over the figure's cells, which is the same simulated work because clean
// cells are seed-invariant. The service exposes no per-layer counters.
func campaignCounts(seeds int) counts {
	var c counts
	for _, cell := range bench.Fig11Experiment().Cells {
		c.add(countsOf(cell.Run(bench.RunSpec{Seed: 1}).Trace))
	}
	return c.scaled(uint64(seeds))
}
