// Command spsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts sweep, chaos, and trace campaigns,
// schedules them over a bounded worker pool, streams per-cell progress,
// and serves every completed artifact from a content-addressed exact
// result cache — identical requests cost one simulation, ever, per code
// version.
//
// Usage:
//
//	spsimd -addr :8750 -cache .spsimd-cache            # serve HTTP
//	spsimd -jobs 2 -par 4                              # 2 concurrent campaigns, 4 workers each
//	spsimd -mcp                                        # Model Context Protocol over stdio
//	spsimd -selfsmoke -baseline BENCH_fig10.json       # self-contained smoke test
//
// SIGTERM (or Ctrl-C) drains gracefully: no new jobs are accepted,
// queued jobs are canceled, running campaigns finish their in-flight
// cells and settle without persisting partial artifacts, and the cache
// directory is left in a state a restarted server resumes from.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"syscall"
	"time"

	"splapi/internal/campaign/mcp"
	"splapi/internal/campaign/server"
	"splapi/internal/cliconf"
	"splapi/internal/sweep"
)

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so an idle or trickling client cannot hold one open.
const readHeaderTimeout = 10 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8750", "HTTP listen address")
		cacheDir  = flag.String("cache", ".spsimd-cache", "content-addressed result cache directory")
		jobs      = flag.Int("jobs", 1, "concurrent campaigns (queue worker pool size)")
		par       = flag.Int("par", 0, "per-campaign sweep worker pool (0 = GOMAXPROCS)")
		mcpMode   = flag.Bool("mcp", false, "serve the Model Context Protocol over stdio instead of HTTP")
		selfsmoke = flag.Bool("selfsmoke", false, "run the built-in smoke test against an in-process server and exit")
		baseline  = flag.String("baseline", "", "selfsmoke: compare the served fig10 artifact against this committed result at tolerance 0")
		drainWait = flag.Duration("drain-timeout", 5*time.Minute, "how long a shutdown waits for in-flight campaigns to drain")
	)
	flag.Parse()

	git := cliconf.GitDescribe()
	cfg := server.Config{Git: git, CacheDir: *cacheDir, Jobs: *jobs, Par: *par}

	if *selfsmoke {
		// The smoke test must start cold to prove the miss→hit
		// transition, so it always runs against its own throwaway cache.
		dir, err := os.MkdirTemp("", "spsimd-selfsmoke-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "spsimd:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.CacheDir = dir
		if err := runSelfsmoke(cfg, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "spsimd: selfsmoke FAILED:", err)
			return 1
		}
		fmt.Println("spsimd: selfsmoke ok")
		return 0
	}

	svc, err := server.NewService(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsimd:", err)
		return 1
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *mcpMode {
		// stdio transport: requests on stdin, responses on stdout,
		// diagnostics on stderr. EOF or a signal ends the session; either
		// way in-flight campaigns drain before exit.
		errc := make(chan error, 1)
		go func() { errc <- mcp.New(svc, git).Serve(ctx, os.Stdin, os.Stdout) }()
		var serveErr error
		select {
		case serveErr = <-errc:
		case <-ctx.Done():
		}
		drainCtx, done := context.WithTimeout(context.Background(), *drainWait)
		defer done()
		if err := svc.Drain(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "spsimd:", err)
			return 1
		}
		if serveErr != nil {
			fmt.Fprintln(os.Stderr, "spsimd:", serveErr)
			return 1
		}
		return 0
	}

	httpSrv := &http.Server{Addr: *addr, Handler: server.Handler(svc), ReadHeaderTimeout: readHeaderTimeout}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spsimd:", err)
		return 1
	}
	fmt.Printf("spsimd: serving on http://%s (cache %s, %d campaign slot(s), code %s)\n",
		ln.Addr(), cfg.CacheDir, *jobs, git)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "spsimd:", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Println("spsimd: draining (in-flight cells finish, queued jobs are canceled)")
	drainCtx, done := context.WithTimeout(context.Background(), *drainWait)
	defer done()
	drainErr := svc.Drain(drainCtx)
	shutErr := httpSrv.Shutdown(drainCtx)
	if drainErr != nil || (shutErr != nil && !errors.Is(shutErr, http.ErrServerClosed)) {
		fmt.Fprintln(os.Stderr, "spsimd: drain:", errors.Join(drainErr, shutErr))
		return 1
	}
	fmt.Println("spsimd: drained, cache is consistent, bye")
	return 0
}

// runSelfsmoke boots a real server on a loopback socket and drives the
// acceptance path through actual HTTP: a small fig10 sweep submitted
// twice must be a miss then a hit with byte-identical artifacts and a
// hit counter of exactly 1, and (with -baseline) the cold artifact's
// medians must match the committed result at zero tolerance.
func runSelfsmoke(cfg server.Config, baseline string) error {
	svc, err := server.NewService(cfg)
	if err != nil {
		return err
	}
	defer func() {
		ctx, done := context.WithTimeout(context.Background(), time.Minute)
		defer done()
		svc.Drain(ctx)
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: server.Handler(svc), ReadHeaderTimeout: readHeaderTimeout}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	submit := func() (*http.Response, []byte, error) {
		req := `{"kind":"sweep","experiment":"fig10","seeds":2}`
		resp, err := http.Post(base+"/v1/campaigns?wait=1", "application/json", bytes.NewReader([]byte(req)))
		if err != nil {
			return nil, nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, body)
		}
		return resp, body, nil
	}

	cold, coldBody, err := submit()
	if err != nil {
		return err
	}
	if h := cold.Header.Get("X-Spsimd-Cache"); h != "miss" {
		return fmt.Errorf("cold submission reported %q, want miss", h)
	}
	warm, warmBody, err := submit()
	if err != nil {
		return err
	}
	if h := warm.Header.Get("X-Spsimd-Cache"); h != "hit" {
		return fmt.Errorf("second submission reported %q, want hit", h)
	}
	if !bytes.Equal(coldBody, warmBody) {
		return fmt.Errorf("cache hit served different bytes than the cold run (%d vs %d bytes)", len(coldBody), len(warmBody))
	}
	fmt.Printf("spsimd: selfsmoke: cold run %d bytes, warm run byte-identical from cache (digest %s)\n",
		len(coldBody), cold.Header.Get("X-Spsimd-Digest"))

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	m := regexp.MustCompile(`(?m)^spsimd_cache_hits_total (\d+)$`).FindSubmatch(metrics)
	if m == nil {
		return fmt.Errorf("/metrics is missing spsimd_cache_hits_total:\n%s", metrics)
	}
	if string(m[1]) != "1" {
		return fmt.Errorf("spsimd_cache_hits_total = %s, want 1", m[1])
	}

	if baseline != "" {
		old, err := sweep.Load(baseline)
		if err != nil {
			return err
		}
		var got sweep.Result
		if err := json.Unmarshal(coldBody, &got); err != nil {
			return fmt.Errorf("served artifact is not a sweep result: %w", err)
		}
		deltas, err := sweep.Compare(old, &got, sweep.CompareOpts{TolPct: 0})
		if err != nil {
			return err
		}
		if regs := sweep.Regressions(deltas); len(regs) > 0 {
			sweep.PrintDeltas(os.Stderr, deltas, false)
			return fmt.Errorf("served artifact moved %d point(s) off the committed baseline %s", len(regs), baseline)
		}
		fmt.Printf("spsimd: selfsmoke: served medians match %s exactly (%d points, tolerance 0)\n", baseline, len(deltas))
	}
	return nil
}
