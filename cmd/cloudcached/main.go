// Command cloudcached is the online cloud-cache daemon: it serves the
// paper's self-tuned cache economy over HTTP, admitting concurrent live
// queries against N independent economy shards instead of replaying a
// synthetic stream through the offline simulator.
//
// API:
//
//	POST /v1/query      {"tenant","template","selectivity","budget":{"shape","price_usd","tmax_s"}}
//	POST /v1/batch      [QueryRequest, ...] — batched admission
//	GET  /v1/stats      live aggregate + per-shard economy metrics (?pretty=1 indents)
//	GET  /v1/structures resident structures (columns, indexes, CPU nodes)
//	GET  /healthz       liveness + headline counters
//
// With -listen-bin the daemon also serves the length-prefixed binary
// protocol (internal/server/wire) on a second port: persistent
// connections carrying query batches with no HTTP or JSON overhead —
// the high-throughput front.
//
// SIGINT/SIGTERM drain gracefully: in-flight queries are answered, tail
// rent is settled, and a final stats snapshot is printed to stdout.
//
// With -state-dir the economy state is durable: the drain writes a
// versioned, CRC-checked snapshot (accounts, regret ledgers, resident
// structures, clocks, counters) to <state-dir>/econ.snap, and the next
// boot restores it — resuming the same credit, tenants and cache instead
// of cold-starting. -checkpoint-interval adds periodic checkpoints so a
// crash loses at most one interval; the wire protocol's checkpoint
// frame (wire.MuxClient.Checkpoint) checkpoints on demand. A truncated
// or corrupt snapshot fails restore cleanly: the daemon logs it and
// boots fresh.
//
// Observability:
//
//	GET /v1/trace       sampled per-query decision traces (?tenant= ?template= ?n=)
//	GET /v1/events      economy event journal: invests and evictions, plus
//	                    running totals (settlement recoveries are counted there)
//	GET /metrics        Prometheus text exposition (economy counters, mailbox
//	                    gauges, stage-latency histograms, runtime/GC gauges)
//
// -trace-sample N samples one query in N through the decision tracer
// (0 disables sampling; the gate is a single atomic load, so the decide
// loop pays ~nothing while off). -pprof mounts net/http/pprof under
// /debug/pprof/ on the HTTP mux.
//
// Usage:
//
//	cloudcached [-addr :8344] [-listen-bin :8345] [-shards 4]
//	            [-scheme econ-cheap] [-provider altruistic|selfish]
//	            [-sf 0] [-speedup 1] [-tick 1s] [-seed 1] [-mailbox 256]
//	            [-maint-failure-factor F (default 6)]
//	            [-state-dir DIR] [-checkpoint-interval D]
//	            [-trace-sample N] [-trace-ring N] [-journal-ring N]
//	            [-pprof] [-log-format text|json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/wire"
)

func main() {
	addr := flag.String("addr", ":8344", "HTTP listen address")
	listenBin := flag.String("listen-bin", "", "binary-protocol listen address (length-prefixed wire frames); empty disables")
	shards := flag.Int("shards", 4, "independent economy shards")
	schemeName := flag.String("scheme", "econ-cheap", "caching scheme: bypass, econ-col, econ-cheap or econ-fast")
	sf := flag.Float64("sf", 0, "TPC-H scale factor for the back-end catalog (0 = the paper's 2.5 TB catalog)")
	speedup := flag.Float64("speedup", 1, "economy-time speedup: 1 serves in real time, 60 makes a wall second count as a minute of rent")
	tick := flag.Duration("tick", time.Second, "housekeeping cadence (rent accrual + build completion through idle time)")
	seed := flag.Int64("seed", 1, "per-shard RNG seed (selectivity draws for queries that omit one)")
	mailbox := flag.Int("mailbox", 256, "per-shard admission queue depth")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on shutdown")
	providerName := flag.String("provider", "altruistic", "economy accounting: altruistic (pooled account per shard) or selfish (per-tenant ledgers)")
	maintFactor := flag.Float64("maint-failure-factor", 0, "rent-vs-value ratio that evicts a structure (footnote 3); 0 keeps the default of 6")
	stateDir := flag.String("state-dir", "", "directory for durable economy state: restore <dir>/econ.snap on boot, write it on drain/checkpoint; empty disables persistence")
	checkpointInterval := flag.Duration("checkpoint-interval", 0, "periodic state checkpoint cadence (0 disables; requires -state-dir)")
	traceSample := flag.Int64("trace-sample", 0, "decision-trace sampling period: 0 off, 1 every query, N one in N (runtime cost is one atomic load per query while off)")
	traceRing := flag.Int("trace-ring", 0, "per-shard decision-trace ring capacity (0 = default; negative disables the tracer entirely)")
	journalRing := flag.Int("journal-ring", 0, "per-shard, per-type economy event journal capacity (0 = default)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the HTTP mux")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	if err := obs.SetupLogging(*logFormat); err != nil {
		fail(err)
	}

	// The HTTP front comes up before the engine exists, behind an
	// atomically-swapped handler: while a (possibly large) snapshot
	// restore runs, /healthz answers 200 (the process is alive) and
	// everything else — /readyz included — answers 503 "restoring", so
	// a router's health loop sees a booting backend, not a dead one.
	var handlerRef atomic.Value
	handlerRef.Store(http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"status":"ok","state":"restoring"}`+"\n")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"state":"restoring","ready":false}`+"\n")
	})))
	httpSrv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handlerRef.Load().(http.Handler).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	provider, err := economy.ParseProvider(*providerName)
	if err != nil {
		fail(err)
	}
	cat := catalog.Paper()
	if *sf > 0 {
		cat = catalog.TPCH(*sf)
	}
	params := scheme.DefaultParams(cat)
	params.Provider = provider
	if *maintFactor > 0 {
		params.MaintFailureFactor = *maintFactor
	}
	if *checkpointInterval > 0 && *stateDir == "" {
		fail(errors.New("-checkpoint-interval requires -state-dir"))
	}

	// Durable state: restore a previous snapshot when one exists. A
	// truncated or corrupt snapshot (CRC/decode failure) must not load
	// partial state — log it and boot fresh. A snapshot that decodes but
	// contradicts the flags (scheme, shards, provider, catalog) fails
	// startup loudly below instead: that is an operator error, and
	// silently discarding the economy's money would be worse.
	var snapshotPath string
	var restored *persist.Snapshot
	clock := server.NewWallClock(*speedup)
	if *stateDir != "" {
		if err := os.MkdirAll(*stateDir, 0o755); err != nil {
			fail(err)
		}
		snapshotPath = filepath.Join(*stateDir, "econ.snap")
		if data, err := os.ReadFile(snapshotPath); err == nil {
			t0 := time.Now()
			snap, err := persist.Decode(data)
			if err != nil {
				slog.Warn("cloudcached: snapshot unusable, starting fresh", "path", snapshotPath, "err", err)
			} else {
				restored = snap
				clock = server.NewWallClockAt(snap.Clock, *speedup)
				var q int64
				for _, sh := range snap.Shards {
					q += sh.Queries
				}
				slog.Info("cloudcached: restored snapshot",
					"path", snapshotPath, "shards", len(snap.Shards), "queries", q,
					"clock_s", snap.Clock.Seconds(), "bytes", len(data),
					"elapsed", time.Since(t0).Round(time.Millisecond))
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			fail(err)
		}
	}

	srv, err := server.New(server.Config{
		Shards:           *shards,
		Scheme:           *schemeName,
		Params:           params,
		Clock:            clock,
		Budgets:          experiments.PaperBudgetPolicy(),
		TickEvery:        *tick,
		Seed:             *seed,
		MailboxDepth:     *mailbox,
		SnapshotPath:     snapshotPath,
		CheckpointEvery:  *checkpointInterval,
		Restore:          restored,
		TraceRing:        *traceRing,
		TraceSampleEvery: *traceSample,
		JournalRing:      *journalRing,
	})
	if err != nil {
		fail(err)
	}

	handler := srv.Handler()
	if *pprofOn {
		// Opt-in profiling on the same mux the API serves: the daemon's
		// admin surface, guarded by the flag rather than a separate port.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	// Engine built: swap the boot stub out for the real API. (Wrapped
	// in HandlerFunc so both stores share one concrete type —
	// atomic.Value rejects mixed types.)
	handlerRef.Store(http.Handler(http.HandlerFunc(handler.ServeHTTP)))
	slog.Info("cloudcached: serving",
		"scheme", *schemeName, "addr", *addr, "shards", srv.ShardCount(),
		"speedup", *speedup, "trace_sample", *traceSample, "pprof", *pprofOn)

	var binLn net.Listener
	if *listenBin != "" {
		binLn, err = net.Listen("tcp", *listenBin)
		if err != nil {
			fail(err)
		}
		go func() {
			slog.Info("cloudcached: binary protocol listening", "addr", *listenBin)
			if err := wire.Serve(binLn, srv); err != nil {
				errCh <- err
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fail(err)
	case s := <-sig:
		slog.Info("cloudcached: draining", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop admitting HTTP first (bounded by -drain-timeout), then drain
	// the shards. The engine drain always terminates — decisions are
	// CPU-bound and loops exit once their mailboxes empty — so waiting
	// unbounded here guarantees the final snapshot below is post-drain,
	// with every accepted query answered and tail rent settled.
	if err := httpSrv.Shutdown(ctx); err != nil {
		slog.Error("cloudcached: http shutdown", "err", err)
	}
	if binLn != nil {
		// Stop accepting binary connections; established connections see
		// ErrServerClosed on their next frame once the drain flips, and
		// batches accepted before that are still answered.
		_ = binLn.Close()
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		slog.Error("cloudcached: drain", "err", err)
	}
	if snapshotPath != "" {
		slog.Info("cloudcached: state persisted", "path", snapshotPath)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(srv.Stats()); err != nil {
		fail(err)
	}
}

func fail(err error) {
	slog.Error("cloudcached: fatal", "err", err)
	os.Exit(1)
}
