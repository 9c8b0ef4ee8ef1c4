package cloudcache

// The benchmark harness regenerates every figure of the paper's evaluation
// (§VII) as testing.B benchmarks. Figures 4 and 5 come from the same
// simulation grid — Figure 4 reads operating cost, Figure 5 mean response —
// so each Fig4/Fig5 benchmark runs one (scheme, interval) cell and reports
// both values as custom metrics:
//
//	cost-$        total operating cost of the run (Fig. 4 bar)
//	resp-sec      mean response time in seconds (Fig. 5 bar)
//
// Benchmarks run on a reduced stream (benchQueries) so `go test -bench .`
// completes in minutes; `cmd/figures` regenerates the full-scale tables.
// The ablation benchmarks cover the design choices DESIGN.md calls out.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/router"
	"repro/internal/server/wire"
)

// benchQueries keeps one grid cell to roughly a second of wall time.
const benchQueries = 40_000

// benchSettings is the shared figure-grid configuration.
func benchSettings() Settings {
	return Settings{
		Queries: benchQueries,
		Seed:    42,
	}
}

// runCellBench runs one figure cell per benchmark iteration and reports the
// Fig. 4 / Fig. 5 values as custom metrics.
func runCellBench(b *testing.B, scheme string, interval time.Duration) {
	b.Helper()
	b.ReportAllocs()
	var lastCost, lastResp float64
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunCell(benchSettings(), scheme, interval)
		if err != nil {
			b.Fatal(err)
		}
		lastCost = cell.Cost().Dollars()
		lastResp = cell.MeanResponseSeconds()
	}
	b.ReportMetric(lastCost, "cost-$")
	b.ReportMetric(lastResp, "resp-sec")
	b.ReportMetric(float64(benchQueries)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// --- Figure 4 + Figure 5: the scheme × interval grid ---------------------

func BenchmarkFig4Fig5(b *testing.B) {
	for _, interval := range []time.Duration{time.Second, 10 * time.Second, 30 * time.Second, 60 * time.Second} {
		for _, scheme := range experiments.SchemeNames {
			b.Run(fmt.Sprintf("%s/interval=%ds", scheme, int(interval.Seconds())), func(b *testing.B) {
				runCellBench(b, scheme, interval)
			})
		}
	}
}

// --- Parallel grid engine -------------------------------------------------

// gridBenchQueries keeps one full 16-cell grid to a few seconds of wall
// time per iteration.
const gridBenchQueries = 5_000

// BenchmarkGridWorkers measures the worker-pool grid engine at several
// worker counts; combine with -cpu to sweep GOMAXPROCS too. Each run
// reports the worker count, grid throughput in queries/s, allocation
// counts, and the wall-clock speedup over the same grid at Workers: 1 —
// the perf trajectory future PRs compare against. Cell results are
// byte-identical at every worker count, so the speedup is pure dispatch.
func BenchmarkGridWorkers(b *testing.B) {
	gridSettings := func(workers int) Settings {
		return Settings{Queries: gridBenchQueries, Seed: 42, Workers: workers}
	}
	cellCount := len(experiments.SchemeNames) * len(experiments.PaperIntervals)

	// The workers=1 sub-benchmark runs first and its averaged per-op time
	// is the speedup baseline, so speedup-x is warm-vs-warm (and reads
	// exactly 1.0 at workers=1).
	var baseline time.Duration
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunGrid(gridSettings(workers)); err != nil {
					b.Fatal(err)
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			if workers == 1 {
				baseline = perOp
			}
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(float64(gridBenchQueries*cellCount)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			if baseline > 0 {
				b.ReportMetric(baseline.Seconds()/perOp.Seconds(), "speedup-x")
			}
		})
	}
}

// --- Online serving layer -------------------------------------------------

// serverBenchCell is one row of the machine-readable perf trajectory.
// Mode distinguishes the admission path: "inproc" submits single queries
// in-process (singleton Submit against the production shard loop, which
// drains its whole mailbox into one lock acquisition per wakeup),
// "batch" uses SubmitBatch, "http" goes through the JSON API over a real
// socket, "pipelined" shares ONE MuxClient between all submitters with
// their batches tagged and in flight concurrently over the binary
// protocol, and "routed" is the same pipelined load through a
// cloudrouter front: client -> router (fan-out by shard) -> backend,
// pricing the cluster tier's extra hop against "pipelined" direct.
// AllocsPerQuery is normalized per query (not per benchmark op, which is
// a whole batch in the batched modes) so cells compare across modes; the
// key is renamed from the pre-batching allocs_per_op so old and new
// trajectories cannot be silently conflated. GoMaxProcs records the
// scheduler width the cell ran at, for the multi-core sweep rows.
type serverBenchCell struct {
	Mode   string `json:"mode"`
	Shards int    `json:"shards"`
	Batch  int    `json:"batch"`
	// Trace distinguishes the tracing-overhead cells: "" is the default
	// row (no tracer at all — the pre-observability baseline), "off" has
	// the tracer installed with sampling disabled (the atomic-gate cost),
	// "1/64" samples one query in 64. scripts/checkbench gates "off"
	// against "" at 5%.
	Trace         string  `json:"trace,omitempty"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	SimRTTMs      float64 `json:"sim_rtt_ms,omitempty"`
	Queries       int64   `json:"queries"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	// P50Sec/P99Sec are the economy's promised response times on the
	// virtual clock; WallP50Ms/WallP99Ms are measured wall-clock service
	// latencies of one submission op (a whole batch in the batched and
	// binary modes), pricing the serving stack rather than the economy.
	P50Sec         float64 `json:"p50_s"`
	P99Sec         float64 `json:"p99_s"`
	WallP50Ms      float64 `json:"wall_p50_ms"`
	WallP99Ms      float64 `json:"wall_p99_ms"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
}

// serverBenchFile is the BENCH_server.json schema future PRs diff against.
type serverBenchFile struct {
	Benchmark  string            `json:"benchmark"`
	Scheme     string            `json:"scheme"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Cells      []serverBenchCell `json:"cells"`
}

// simRTT is the round-trip time simulated on the shared-socket protocol
// rows ("pipelined" and "routed"): a conservative same-zone cloud RTT.
// Loopback has essentially none, and without one a protocol's ability to
// keep batches in flight is invisible — a blocked client donates its
// core to the server, so waiting costs nothing. The delay is injected
// on reply delivery only (requests travel instantly), and the affected
// cells record it in sim_rtt_ms so they are never mistaken for
// raw-loopback rows. The nominal value is a floor: sleep granularity
// stretches the realized RTT (to ~1.4 ms on the reference container).
const simRTT = 500 * time.Microsecond

// latConn wraps a connection so inbound bytes become visible `delay`
// after they actually arrived — a one-way network delay on top of an
// otherwise zero-latency loopback socket. Bandwidth is not modeled.
type latConn struct {
	net.Conn
	pr *io.PipeReader
}

func newLatConn(c net.Conn, delay time.Duration) net.Conn {
	pr, pw := io.Pipe()
	type chunk struct {
		due time.Time
		b   []byte
	}
	ch := make(chan chunk, 1024)
	go func() {
		defer pw.Close()
		for ck := range ch {
			if d := time.Until(ck.due); d > 0 {
				time.Sleep(d)
			}
			if _, err := pw.Write(ck.b); err != nil {
				// Reader gone: keep draining so the read loop can exit.
				for range ch {
				}
				return
			}
		}
	}()
	go func() {
		defer close(ch)
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				b := make([]byte, n)
				copy(b, buf[:n])
				ch <- chunk{due: time.Now().Add(delay), b: b}
			}
			if err != nil {
				return
			}
		}
	}()
	return &latConn{Conn: c, pr: pr}
}

func (l *latConn) Read(p []byte) (int, error) { return l.pr.Read(p) }

func (l *latConn) Close() error {
	l.pr.Close()
	return l.Conn.Close()
}

// benchTemplates lists the paper template names once for all modes.
func benchTemplates() []string {
	templates := make([]string, 0, 7)
	for _, t := range PaperTemplates() {
		templates = append(templates, t.Name)
	}
	return templates
}

// benchTenants precomputes the tenant names the submitters cycle through
// so the measured loops never pay fmt.Sprintf — client-side formatting
// allocations would otherwise dominate the per-query alloc counts the
// trajectory gates on.
var benchTenants = func() [64]string {
	var t [64]string
	for i := range t {
		t[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return t
}()

// latSub is the sub-bucket resolution of latHist: each power-of-two
// decade splits into 2^latSub buckets (~6% value resolution).
const latSub = 4

// latHist is a fixed-size log-scale histogram of wall-clock submission
// latencies: concurrent submitters record without locks or allocation,
// and the cell reports its p50/p99. The virtual-clock p50_s/p99_s
// columns price the economy's promised response times; these wall
// numbers price the serving stack itself.
type latHist struct {
	buckets [64 << latSub]atomic.Int64
}

func (h *latHist) record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		ns = 1
	}
	exp := uint(bits.Len64(ns) - 1)
	var sub uint64
	if exp > latSub {
		sub = (ns >> (exp - latSub)) & (1<<latSub - 1)
	} else {
		sub = ns & (1<<latSub - 1)
	}
	h.buckets[exp<<latSub|uint(sub)].Add(1)
}

// quantile returns the q-quantile (0 < q <= 1) as the midpoint of the
// bucket the target rank lands in.
func (h *latHist) quantile(q float64) time.Duration {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			exp := uint(i) >> latSub
			sub := uint64(i) & (1<<latSub - 1)
			lo := uint64(1) << exp
			width := uint64(1)
			if exp > latSub {
				lo |= sub << (exp - latSub)
				width = uint64(1) << (exp - latSub)
			} else {
				lo |= sub
			}
			return time.Duration(lo + width/2)
		}
	}
	return 0
}

// runServerThroughput drives one (mode, shards, batch, procs) cell:
// concurrent submitters spread across tenants push queries through the
// chosen admission path, and the server's own counters price the
// result. One b.N iteration is one submission — `batch` queries in the
// batched and binary modes — so queries/s, not ns/op, is the comparable
// number. procs > 0 pins GOMAXPROCS for the cell (the multi-core sweep
// rows); 0 keeps the process default.
func runServerThroughput(b *testing.B, out *serverBenchFile, mode string, shards, batch, procs int, trace string) {
	b.Helper()
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	templates := benchTemplates()
	cat := PaperCatalog()
	cfg := ServerConfig{
		Shards:  shards,
		Scheme:  out.Scheme,
		Params:  DefaultParams(cat),
		Clock:   NewWallClock(60),
		Budgets: PaperBudgets(),
		// Default rows run without a tracer so the trajectory stays
		// comparable with the pre-observability baseline; the trace cells
		// measure what installing one costs.
		TraceRing: -1,
	}
	switch trace {
	case "":
	// "none" is the trace group's own no-tracer baseline: same config
	// as "", but a distinct cell key, so checkbench compares samples
	// taken in the same (adjacent, warm) window of the sweep rather
	// than letting a default row from the sweep's early phase stand in.
	case "none":
	case "off":
		cfg.TraceRing = 0 // tracer installed, sampling disabled
	case "1/64":
		cfg.TraceRing = 0
		cfg.TraceSampleEvery = 64
	case "all":
		cfg.TraceRing = 0
		cfg.TraceSampleEvery = 1
	default:
		b.Fatalf("unknown trace cell %q", trace)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// The network modes serve over a real loopback socket so the cell
	// pays genuine syscall, framing and (for http) JSON costs.
	var baseURL, binAddr string
	switch mode {
	case "http":
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		baseURL = ts.URL
	case "pipelined":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go wire.Serve(ln, srv)
		binAddr = ln.Addr().String()
	case "routed":
		// Backend and router on loopback; the simulated client RTT is
		// paid on the client->router socket only, like "pipelined" pays
		// it client->server, so the delta between the two cells is the
		// router hop itself.
		backendLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer backendLn.Close()
		go wire.Serve(backendLn, srv)
		rt, err := router.New(router.Config{
			Backends:       []router.BackendConfig{{Addr: backendLn.Addr().String()}},
			HealthInterval: -1,
			Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Close()
		routerLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer routerLn.Close()
		go wire.ServeEngine(routerLn, rt)
		binAddr = routerLn.Addr().String()
	}

	// The shared-connection modes dial exactly once and multiplex all
	// submitters' tagged batches over that one socket.
	var muxCl *wire.MuxClient
	switch mode {
	case "pipelined", "routed":
		raw, err := net.Dial("tcp", binAddr)
		if err != nil {
			b.Fatal(err)
		}
		conn := newLatConn(raw, simRTT)
		cl, err := wire.NewMuxClient(conn)
		if err != nil {
			conn.Close()
			b.Fatal(err)
		}
		defer cl.Close()
		muxCl = cl
	}

	// benchQueryAt shapes query i identically for every mode — the
	// cross-mode comparison only holds if all paths draw the same
	// tenant/template stream.
	benchQueryAt := func(i int64) (tenant, template string) {
		return benchTenants[i%64], templates[i%int64(len(templates))]
	}
	makeRequests := func(from int64) []ServerRequest {
		reqs := make([]ServerRequest, batch)
		for j := range reqs {
			tenant, template := benchQueryAt(from + int64(j))
			reqs[j] = ServerRequest{Tenant: tenant, Template: template}
		}
		return reqs
	}

	// Every submission path blocks on replies (a singleton Submit on its
	// shard's decision, a batch on its slowest shard group, a network
	// client on its socket round trip), so oversubscribe the submitters
	// to keep every shard loop busy — like a real daemon with more
	// connections than cores. This includes "inproc": the shard loops'
	// group commit only engages if queues actually form, and a single
	// submitter per core never leaves more than one message in a
	// mailbox. "pipelined" goes much wider — its whole point is many
	// batches in flight on one socket, and the submitter count is the
	// in-flight window: wide enough that the simulated RTT stops being
	// the bottleneck and the engine is again.
	if mode == "pipelined" || mode == "routed" {
		b.SetParallelism(64)
	} else {
		b.SetParallelism(4)
	}

	b.ReportAllocs()
	var idx atomic.Int64
	var lat latHist
	// Warm the shared-client modes before the timer: at -benchtime
	// 1000x the measured window is tens of milliseconds, so connection
	// establishment, the router's dispatcher spin-up and socket buffer
	// growth would otherwise be a mode-dependent fraction of the
	// measurement (and the 15% routed gate compares exactly these two
	// modes). The warm-up stream advances idx, so the measured window
	// continues the same query sequence.
	if mode == "pipelined" || mode == "routed" {
		var warm sync.WaitGroup
		for w := 0; w < 16; w++ {
			warm.Add(1)
			go func() {
				defer warm.Done()
				ctx := context.Background()
				qs := make([]wire.Query, batch)
				for it := 0; it < 4; it++ {
					from := idx.Add(int64(batch)) - int64(batch)
					for j := range qs {
						tenant, template := benchQueryAt(from + int64(j))
						qs[j] = wire.Query{Tenant: tenant, Template: template}
					}
					if _, err := muxCl.Submit(ctx, qs); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		warm.Wait()
	}
	// The in-process modes warm the economy before the timer for the
	// same reason: the first few hundred queries per shard are
	// investment-heavy (structure builds, ledger and cache map growth),
	// and at -benchtime 1000x that cold phase would otherwise dominate a
	// window meant to record steady-state serving. ~512 queries per
	// shard builds out the working set (each shard warms its own cache
	// from its own slice of the tenant stream, so the warm-up scales
	// with the shard count). The network fronts skip this — their
	// measured loops run orders of magnitude more queries per
	// connection cost.
	switch mode {
	case "inproc", "batch":
		ops := (shards*64 + batch - 1) / batch
		var warm sync.WaitGroup
		for w := 0; w < 8; w++ {
			warm.Add(1)
			go func() {
				defer warm.Done()
				ctx := context.Background()
				for it := 0; it < ops; it++ {
					from := idx.Add(int64(batch)) - int64(batch)
					if batch > 1 {
						if _, err := srv.SubmitBatch(ctx, makeRequests(from)); err != nil {
							b.Error(err)
							return
						}
					} else {
						tenant, template := benchQueryAt(from)
						if _, err := srv.Submit(ctx, ServerRequest{Tenant: tenant, Template: template}); err != nil {
							b.Error(err)
							return
						}
					}
				}
			}()
		}
		warm.Wait()
	}
	// Measure from here: warm-up queries are excluded from the
	// throughput window, the allocation count and the latency
	// histogram alike.
	q0 := srv.Stats().Queries
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		switch mode {
		case "inproc":
			for pb.Next() {
				tenant, template := benchQueryAt(idx.Add(1))
				t0 := time.Now()
				_, err := srv.Submit(ctx, ServerRequest{Tenant: tenant, Template: template})
				lat.record(time.Since(t0))
				if err != nil {
					b.Error(err)
					return
				}
			}
		case "batch":
			for pb.Next() {
				from := idx.Add(int64(batch)) - int64(batch)
				reqs := makeRequests(from)
				t0 := time.Now()
				items, err := srv.SubmitBatch(ctx, reqs)
				lat.record(time.Since(t0))
				if err != nil {
					b.Error(err)
					return
				}
				for k := range items {
					if items[k].Err != nil {
						b.Error(items[k].Err)
						return
					}
				}
			}
		case "http":
			client := &http.Client{}
			for pb.Next() {
				tenant, template := benchQueryAt(idx.Add(1))
				body := fmt.Sprintf(`{"tenant":"%s","template":"%s"}`, tenant, template)
				t0 := time.Now()
				resp, err := client.Post(baseURL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat.record(time.Since(t0))
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		case "pipelined", "routed":
			qs := make([]wire.Query, batch)
			for pb.Next() {
				from := idx.Add(int64(batch)) - int64(batch)
				for j := range qs {
					tenant, template := benchQueryAt(from + int64(j))
					qs[j] = wire.Query{Tenant: tenant, Template: template}
				}
				t0 := time.Now()
				replies, err := muxCl.Submit(ctx, qs)
				lat.record(time.Since(t0))
				if err != nil {
					b.Error(err)
					return
				}
				for k := range replies {
					if replies[k].Err != "" {
						b.Errorf("reply error: %s", replies[k].Err)
						return
					}
				}
			}
		default:
			b.Errorf("unknown mode %q", mode)
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	st := srv.Stats()
	measured := st.Queries - q0
	qps := float64(measured) / elapsed.Seconds()
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(measured)
	wallP50 := lat.quantile(0.50)
	wallP99 := lat.quantile(0.99)
	b.ReportMetric(float64(shards), "shards")
	b.ReportMetric(qps, "queries/s")
	b.ReportMetric(st.ResponseP50Sec, "p50-sec")
	b.ReportMetric(st.ResponseP99Sec, "p99-sec")
	b.ReportMetric(wallP50.Seconds()*1e3, "wall-p50-ms")
	b.ReportMetric(wallP99.Seconds()*1e3, "wall-p99-ms")
	var rttMs float64
	if mode == "pipelined" || mode == "routed" {
		rttMs = simRTT.Seconds() * 1e3
	}
	cell := serverBenchCell{
		Mode:           mode,
		Shards:         shards,
		Batch:          batch,
		Trace:          trace,
		GoMaxProcs:     procs,
		SimRTTMs:       rttMs,
		Queries:        measured,
		QueriesPerSec:  qps,
		P50Sec:         st.ResponseP50Sec,
		P99Sec:         st.ResponseP99Sec,
		WallP50Ms:      wallP50.Seconds() * 1e3,
		WallP99Ms:      wallP99.Seconds() * 1e3,
		AllocsPerQuery: allocs,
	}
	// The harness re-runs sub-benchmarks (calibration) and the sweep
	// itself revisits comparison cells (the tracing-overhead group runs
	// interleaved repetitions). Per cell, prefer the longest run, and
	// among equal-length runs the fastest: best-of-k is the noise-robust
	// point estimate on shared hosts, where a single short sample can
	// swing ±10% either way.
	for i := range out.Cells {
		c := &out.Cells[i]
		if c.Mode == mode && c.Shards == shards && c.Batch == batch && c.GoMaxProcs == procs && c.Trace == trace {
			if cell.Queries > c.Queries || (cell.Queries == c.Queries && cell.QueriesPerSec > c.QueriesPerSec) {
				*c = cell
			}
			return
		}
	}
	out.Cells = append(out.Cells, cell)
}

// BenchmarkServerThroughput sweeps the serving layer's admission paths:
// the in-process shard sweep (the engine's ceiling), batched admission,
// and the two network fronts — JSON/HTTP (the PR 2 baseline) and the
// length-prefixed binary protocol, direct and through a router.
// Each run reports queries/s plus the economy's promised-response
// percentiles. When the BENCH_JSON env var names a file, the sweep also
// writes the machine-readable trajectory there (the `make bench` smoke
// target sets BENCH_JSON=BENCH_server.json).
func BenchmarkServerThroughput(b *testing.B) {
	out := serverBenchFile{
		Benchmark:  "BenchmarkServerThroughput",
		Scheme:     "econ-cheap",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			runServerThroughput(b, &out, "inproc", shards, 1, 0, "")
		})
	}
	for _, batch := range []int{16, 64} {
		b.Run(fmt.Sprintf("mode=batch/shards=4/batch=%d", batch), func(b *testing.B) {
			runServerThroughput(b, &out, "batch", 4, batch, 0, "")
		})
	}
	b.Run("mode=http/shards=4", func(b *testing.B) {
		runServerThroughput(b, &out, "http", 4, 1, 0, "")
	})
	for _, batch := range []int{1, 64} {
		// The cluster tier's overhead pair: the identical pipelined load
		// direct vs through a cloudrouter front — scripts/checkbench
		// gates routed against pipelined at 15%. Like the trace group
		// below, the pair runs five interleaved repetitions with
		// rotating order (the upsert keeps each cell's best) so a single
		// noisy sample on a shared host can't flip the gate.
		pair := []string{"pipelined", "routed"}
		for rep := 0; rep < 5; rep++ {
			for i := range pair {
				mode := pair[(rep+i)%len(pair)]
				b.Run(fmt.Sprintf("mode=%s/shards=4/batch=%d", mode, batch), func(b *testing.B) {
					runServerThroughput(b, &out, mode, 4, batch, 0, "")
				})
			}
		}
	}
	// Scheduler-width sweep: the engine ceiling (inproc) and the
	// multiplexed front at 1/2/4/8 Ps. On a single-core host the >1 rows
	// measure oversubscription, not speedup — the row records its width
	// so trajectories from different hosts stay comparable.
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mode=inproc/shards=4/procs=%d", procs), func(b *testing.B) {
			runServerThroughput(b, &out, "inproc", 4, 1, procs, "")
		})
		b.Run(fmt.Sprintf("mode=pipelined/shards=4/batch=1/procs=%d", procs), func(b *testing.B) {
			runServerThroughput(b, &out, "pipelined", 4, 1, procs, "")
		})
	}
	// The batched admission path at production scheduler width: the cell
	// the "100k+ queries/s on 4 cores" roadmap target is read from.
	b.Run("mode=batch/shards=4/batch=64/procs=4", func(b *testing.B) {
		runServerThroughput(b, &out, "batch", 4, 64, 4, "")
	})
	// Tracing-overhead cells on the engine ceiling: "off" prices the
	// installed-but-idle tracer (one atomic load per query — the 5% CI
	// gate in scripts/checkbench), "1/64" the production sampling rate.
	// The "" rerun refreshes the no-tracer baseline adjacent to its two
	// comparisons, so the gate measures the tracer, not the warm-up
	// drift between the sweep's first and last cells — and the group
	// runs five interleaved repetitions (the upsert keeps each cell's
	// best) so a single noisy sample on a shared host can't flip the
	// comparison either way. The order rotates per repetition: every
	// cell gets to run first, so position-dependent effects (post-GC
	// lull, scheduler warm-up after the previous cell's teardown) hit
	// all four cells equally instead of always favoring the baseline.
	traceGroup := []string{"none", "off", "1/64", "all"}
	for rep := 0; rep < 5; rep++ {
		for i := range traceGroup {
			trace := traceGroup[(rep+i)%len(traceGroup)]
			name := "mode=inproc/shards=4/trace=" + strings.ReplaceAll(trace, "/", "-")
			b.Run(name, func(b *testing.B) {
				runServerThroughput(b, &out, "inproc", 4, 1, 0, trace)
			})
		}
	}
	if path := os.Getenv("BENCH_JSON"); path != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Logf("wrote %s (%d cells)", path, len(out.Cells))
		traj := os.Getenv("BENCH_TRAJECTORY")
		if traj == "" {
			traj = "BENCH_trajectory.json"
		}
		if err := appendTrajectory(traj, &out); err != nil {
			b.Fatal(err)
		}
		b.Logf("appended trajectory row to %s", traj)
	}
}

// benchTrajectoryRow is one dated BENCH_trajectory.json entry: the
// headline cells of a full BenchmarkServerThroughput sweep, so the perf
// history survives BENCH_server.json being overwritten by every run.
type benchTrajectoryRow struct {
	Date           string  `json:"date"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	InprocS1QPS    float64 `json:"inproc_s1_qps"`
	InprocS1Allocs float64 `json:"inproc_s1_allocs_per_query"`
	InprocS8QPS    float64 `json:"inproc_s8_qps"`
	Batch64QPS     float64 `json:"batch64_qps"`
	Batch64Allocs  float64 `json:"batch64_allocs_per_query"`
	HTTPQPS        float64 `json:"http_qps"`
	PipelinedB1QPS float64 `json:"pipelined_b1_qps"`
	InprocP4QPS    float64 `json:"inproc_s4_procs4_qps"`
}

// appendTrajectory appends one dated summary row to the trajectory file
// (a JSON array), creating it on first run.
func appendTrajectory(path string, out *serverBenchFile) error {
	find := func(mode string, shards, batch, procs int) *serverBenchCell {
		for i := range out.Cells {
			c := &out.Cells[i]
			if c.Mode == mode && c.Shards == shards && c.Batch == batch && c.Trace == "" &&
				(procs == 0 || c.GoMaxProcs == procs) {
				return c
			}
		}
		return nil
	}
	row := benchTrajectoryRow{
		Date:       time.Now().UTC().Format("2006-01-02T15:04:05Z"),
		GoMaxProcs: out.GoMaxProcs,
	}
	if c := find("inproc", 1, 1, 0); c != nil {
		row.InprocS1QPS, row.InprocS1Allocs = c.QueriesPerSec, c.AllocsPerQuery
	}
	if c := find("inproc", 8, 1, 0); c != nil {
		row.InprocS8QPS = c.QueriesPerSec
	}
	if c := find("batch", 4, 64, 0); c != nil {
		row.Batch64QPS, row.Batch64Allocs = c.QueriesPerSec, c.AllocsPerQuery
	}
	if c := find("http", 4, 1, 0); c != nil {
		row.HTTPQPS = c.QueriesPerSec
	}
	if c := find("pipelined", 4, 1, 0); c != nil {
		row.PipelinedB1QPS = c.QueriesPerSec
	}
	if c := find("inproc", 4, 1, 4); c != nil {
		row.InprocP4QPS = c.QueriesPerSec
	}
	var rows []benchTrajectoryRow
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("bench: corrupt trajectory file %s: %w", path, err)
		}
	}
	rows = append(rows, row)
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// --- Ablation A: regret fraction a (Eq. 3) -------------------------------

func BenchmarkAblationRegretFraction(b *testing.B) {
	for _, a := range []float64{0.001, 0.005, 0.05} {
		b.Run(fmt.Sprintf("a=%g", a), func(b *testing.B) {
			var lastCost, lastResp float64
			for i := 0; i < b.N; i++ {
				s := benchSettings()
				s.Params.RegretFraction = a
				cell, err := experiments.RunCell(s, "econ-cheap", time.Second)
				if err != nil {
					b.Fatal(err)
				}
				lastCost = cell.Cost().Dollars()
				lastResp = cell.MeanResponseSeconds()
			}
			b.ReportMetric(lastCost, "cost-$")
			b.ReportMetric(lastResp, "resp-sec")
		})
	}
}

// --- Ablation B: budget shapes (Fig. 1) ----------------------------------

func BenchmarkAblationBudgetShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationBudgetShape(benchSettings(), time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation C: network throughput --------------------------------------

func BenchmarkAblationNetworkThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationNetworkThroughput(benchSettings(), []float64{5, 25, 100}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation D: bypass cache fraction (30 % ideal, [14]) ----------------

func BenchmarkAblationCacheFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationCacheFraction(benchSettings(), []float64{0.15, 0.30, 0.45}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation E: amortization horizon n (Eq. 7, the paper's open problem) -

func BenchmarkAblationAmortization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.AblationAmortization(benchSettings(), []int64{10_000, 100_000}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The decision engine alone ----------------------------------------------

// decideWarmup and decideInterval shape the decision engine's measured
// state: a stationary stream (no popularity drift) at 10 s spacing, long
// enough that every structure the workload will ever want has been bought
// and built before measurement starts — the engine's steady state, where a
// query finds its structures resident, pays their shares and triggers
// nothing.
const (
	decideWarmup   = 60_000
	decideInterval = 10 * time.Second
)

// warmDecide builds one scheme, runs it through the warm-up, and returns
// it with n more queries of the same stream drawn up front: generation
// allocates (a Query and a budget per query) and is not the engine.
func warmDecide(tb testing.TB, name string, n int) (Scheme, []*Query) {
	tb.Helper()
	cat := PaperCatalog()
	sch, err := NewScheme(name, DefaultParams(cat))
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := NewWorkload(WorkloadConfig{
		Catalog:     cat,
		Seed:        1,
		Arrival:     FixedArrival(decideInterval),
		Budgets:     PaperBudgets(),
		PhaseLength: 1 << 40, // one phase: no drift, so the state settles
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < decideWarmup; i++ {
		if _, err := sch.HandleQuery(gen.Next()); err != nil {
			tb.Fatal(err)
		}
	}
	return sch, gen.Batch(n, nil)
}

// TestDecideAllocs gates the decision engine — scheme.HandleQuery, the
// per-query floor under sim.Run, a server shard and a router backend — at
// zero allocations per query on the warmed state, for every scheme. The
// engine indexes slices by structure slot; a string minted, a map grown or
// a slice made per query reads as >= 1 here, while the only allocations a
// settled state still makes (the Entry of a rare build) stay orders of
// magnitude under the gate.
func TestDecideAllocs(t *testing.T) {
	const queries, maxAllocs = 50_000, 0.005
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			sch, stream := warmDecide(t, name, queries)
			// The malloc delta, not testing.AllocsPerRun: a fraction of an
			// allocation per query must still show.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, q := range stream {
				if _, err := sch.HandleQuery(q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.Mallocs-before.Mallocs) / queries; got >= maxAllocs {
				t.Errorf("%s allocates %.4f per query (gate: 0.00); `go test -run '^$' -bench Decide/%s -memprofile mem.prof .` shows the site", name, got, name)
			}
		})
	}
}

// BenchmarkDecide times scheme.HandleQuery in-process, per scheme, on that
// warmed state.
func BenchmarkDecide(b *testing.B) {
	for _, name := range SchemeNames() {
		b.Run(name, func(b *testing.B) {
			sch, stream := warmDecide(b, name, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, q := range stream {
				if _, err := sch.HandleQuery(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks on the per-query hot path ----------------------------

// BenchmarkQueryPipeline measures the end-to-end cost of handling one query
// through the full economy (enumeration + selection + settlement + regret).
func BenchmarkQueryPipeline(b *testing.B) {
	cat := PaperCatalog()
	s, err := NewEconCheap(DefaultParams(cat))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewWorkload(WorkloadConfig{
		Catalog: cat,
		Seed:    1,
		Arrival: FixedArrival(time.Second),
		Budgets: PaperBudgets(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.HandleQuery(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGeneration measures query-stream generation alone.
func BenchmarkWorkloadGeneration(b *testing.B) {
	gen, err := NewWorkload(WorkloadConfig{
		Catalog: PaperCatalog(),
		Seed:    1,
		Arrival: FixedArrival(time.Second),
		Budgets: PaperBudgets(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next()
	}
}

// BenchmarkBudgetEval measures a budget-function evaluation.
func BenchmarkBudgetEval(b *testing.B) {
	f := ConcaveBudget(Dollars(0.01), 60*time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.At(time.Duration(i%60) * time.Second)
	}
}
