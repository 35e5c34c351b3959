// Command fracd is the mask fracturing daemon: an HTTP JSON service
// exposing the maskfrac solvers behind a bounded worker pool and a
// content-addressed shape cache, so congruent repeated shapes across
// requests fracture once per congruence class.
//
// Usage:
//
//	fracd [-addr :8337] [-workers N] [-queue 256] [-cache-entries 4096]
//	      [-timeout 60s] [-max-timeout 10m] [-max-shapes 4096]
//	      [-sigma 6.25] [-gamma 2] [-lmin 8]
//	      [-peers url,name=url,...]
//	      [-log-level info] [-pprof]
//
// Endpoints: POST /fracture, GET /healthz, GET /stats, GET /metrics
// (Prometheus text format), GET /debug/traces (retained request
// traces), with -peers GET /clusterz (control-plane view aggregating
// every peer's stats, quantiles and ring ownership; ?format=text for a
// terminal table) and, with -pprof, GET /debug/pprof/.
// Structured JSON logs (log/slog records) go to stderr; every request
// is logged with its X-Request-ID. -log-level takes debug, info, warn
// or error; any other value is a usage error (exit 2). SIGINT/SIGTERM
// shut the daemon down gracefully, draining in-flight requests and
// logging drained/rejected counts.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"maskfrac"
	"maskfrac/internal/cluster"
	"maskfrac/internal/fracserve"
	"maskfrac/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", ":8337", "listen address")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "solver worker pool size")
		queue       = flag.Int("queue", 256, "bounded work queue depth (overflow returns 429)")
		cacheSize   = flag.Int("cache-entries", 4096, "shape cache entry bound (negative disables the cache)")
		timeout     = flag.Duration("timeout", 60*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", 10*time.Minute, "clamp for client-supplied deadlines")
		maxShapes   = flag.Int("max-shapes", 4096, "per-request batch size limit")
		drain       = flag.Duration("drain", 2*time.Minute, "graceful shutdown drain budget")
		sigma       = flag.Float64("sigma", 6.25, "default e-beam blur sigma in nm")
		gamma       = flag.Float64("gamma", 2, "default CD tolerance in nm")
		lmin        = flag.Float64("lmin", 8, "default minimum shot size in nm")
		enablePprof = flag.Bool("pprof", false, "serve net/http/pprof on /debug/pprof/")
		peers       = flag.String("peers", "", "comma-separated peer fracd base URLs (or name=url) aggregated at GET /clusterz")
	)
	var level slog.Level
	flag.TextVar(&level, "log-level", slog.LevelInfo, "log level: debug, info, warn, error")
	flag.Parse()

	logger := telemetry.JSONLogger(os.Stderr, level).With("service", "fracd")

	params := maskfrac.DefaultParams()
	params.Sigma = *sigma
	params.Gamma = *gamma
	params.Lmin = *lmin

	srv := fracserve.New(fracserve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Params:         params,
		CacheEntries:   *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxShapes:      *maxShapes,
		Logger:         logger,
		EnablePprof:    *enablePprof,
	})

	if *peers != "" {
		// The cluster client gets its own private metrics registry
		// (Config.Metrics nil) — it must not collide with the server's
		// instrument names.
		cl := cluster.NewClient(cluster.Config{
			Logger: logger.With("component", "clusterz"),
		})
		added := 0
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			id, url := p, p
			if n, u, ok := strings.Cut(p, "="); ok && !strings.Contains(n, ":") {
				id, url = n, u
			} else {
				id = strings.TrimPrefix(strings.TrimPrefix(id, "https://"), "http://")
			}
			cl.AddNode(id, url)
			added++
		}
		srv.Handle("/clusterz", cluster.StatusHandler(cl))
		logger.Info("clusterz view enabled", "peers", added)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("serving", "addr", l.Addr().String(),
		"workers", *workers, "queue", *queue, "cache_entries", *cacheSize,
		"pprof", *enablePprof)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("signal received", "signal", s.String())
	case err := <-serveErr:
		if err != nil {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
	logger.Info("bye")
}
