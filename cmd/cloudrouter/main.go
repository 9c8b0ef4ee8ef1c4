// Command cloudrouter is the stateless cluster front for cloudcached:
// it speaks the same binary wire protocol clients already use, owns the
// shard → backend map, and fans each batch out to the backends that run
// the economy. Routing is by the same tenant/template hash the backends
// shard by, so a query decided through the router is decided by exactly
// the shard that would have decided it in a single process.
//
// The router holds no durable state. At boot it asks every backend
// which shards it owns and converges on one owner per shard (freezing
// duplicate claims — the fresh-cluster case); a router restart re-learns
// the same map from the backends.
//
// Live shard migration: POST /admin/migrate?shard=K&to=N checkpoints
// the shard on its current owner, transfers the packet, installs it on
// backend N and cuts traffic over. Queries for the shard that arrive
// during the move are parked and replayed after cutover — the reply
// stream is byte-identical to one with no migration at all. The
// response reports the blackout window in milliseconds.
//
// API (HTTP):
//
//	GET  /healthz        process liveness
//	GET  /readyz         cluster readiness (non-200 while any backend is down)
//	GET  /metrics        Prometheus text: routed queries, reroutes, migrations,
//	                     blackout windows, per-backend health and reconnects
//	GET  /v1/stats       merged cluster stats, same shape as a backend's
//	POST /admin/migrate  live shard migration (?shard=K&to=N)
//
// Usage:
//
//	cloudrouter -listen-bin :8445 [-addr :8444]
//	            -backends 127.0.0.1:8345,127.0.0.1:8355
//	            [-backend-http http://127.0.0.1:8344,http://127.0.0.1:8354]
//	            [-health-interval 500ms] [-bootstrap-timeout 10s]
//	            [-log-format text|json]
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server/wire"
)

func main() {
	addr := flag.String("addr", ":8444", "HTTP listen address (health, metrics, stats, migration admin)")
	listenBin := flag.String("listen-bin", ":8445", "binary-protocol listen address clients connect to")
	backends := flag.String("backends", "", "comma-separated backend wire addresses (required)")
	backendHTTP := flag.String("backend-http", "", "comma-separated backend HTTP base URLs, parallel to -backends (enables /readyz health probing)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "backend health probe cadence (negative disables)")
	bootstrapTimeout := flag.Duration("bootstrap-timeout", 10*time.Second, "how long to retry unreachable backends at boot")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	if err := obs.SetupLogging(*logFormat); err != nil {
		fail(err)
	}
	if *backends == "" {
		fail(errors.New("-backends is required"))
	}
	addrs := strings.Split(*backends, ",")
	var httpURLs []string
	if *backendHTTP != "" {
		httpURLs = strings.Split(*backendHTTP, ",")
		if len(httpURLs) != len(addrs) {
			fail(errors.New("-backend-http must list one URL per -backends entry"))
		}
	}
	cfgs := make([]router.BackendConfig, len(addrs))
	for i, a := range addrs {
		cfgs[i] = router.BackendConfig{Addr: strings.TrimSpace(a)}
		if httpURLs != nil {
			cfgs[i].HTTPURL = strings.TrimRight(strings.TrimSpace(httpURLs[i]), "/")
		}
	}

	r, err := router.New(router.Config{
		Backends:         cfgs,
		HealthInterval:   *healthInterval,
		BootstrapTimeout: *bootstrapTimeout,
	})
	if err != nil {
		fail(err)
	}

	errCh := make(chan error, 2)
	httpSrv := &http.Server{Addr: *addr, Handler: r.HTTPHandler()}
	go func() {
		slog.Info("cloudrouter: http serving", "addr", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	binLn, err := net.Listen("tcp", *listenBin)
	if err != nil {
		fail(err)
	}
	go func() {
		slog.Info("cloudrouter: binary protocol listening",
			"addr", *listenBin, "backends", len(cfgs), "shards", r.Shards())
		if err := wire.ServeEngine(binLn, r); err != nil {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case s := <-sig:
		slog.Info("cloudrouter: shutting down", "signal", s.String())
	}

	// The router holds no state to drain: stop accepting, close backend
	// pools, done. In-flight batches already handed to backends answer
	// on their own connections' timelines.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		slog.Error("cloudrouter: http shutdown", "err", err)
	}
	_ = binLn.Close()
	if err := r.Close(); err != nil {
		slog.Error("cloudrouter: close", "err", err)
	}
}

func fail(err error) {
	slog.Error("cloudrouter: fatal", "err", err)
	os.Exit(1)
}
