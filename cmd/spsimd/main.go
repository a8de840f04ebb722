// Command spsimd is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts sweep campaigns, schedules them over a
// bounded worker pool, streams per-cell progress, and serves every
// completed sweep/v3 artifact from a content-addressed exact result cache
// — identical requests cost one simulation, ever, per code version.
//
// Usage:
//
//	spsimd -addr :8750 -cache .spsimd-cache            # serve HTTP
//	spsimd -jobs 2 -par 4                              # 2 concurrent campaigns, 4 workers each
//	spsimd -mcp                                        # Model Context Protocol over stdio
//
// SIGTERM (or Ctrl-C) drains gracefully: no new jobs are accepted,
// queued jobs are canceled, running campaigns finish their in-flight
// cells and settle without persisting partial artifacts, and the cache
// directory is left in a state a restarted server resumes from.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"splapi/internal/campaign/mcp"
	"splapi/internal/campaign/server"
	"splapi/internal/cliconf"
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
		drainWait = flag.Duration("drain-timeout", 5*time.Minute, "how long a shutdown waits for in-flight campaigns to drain")
	)
	flag.Parse()

	git := cliconf.GitDescribe()
	cfg := server.Config{Git: git, CacheDir: *cacheDir, Jobs: *jobs, Par: *par}
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
