// Command workloadgen generates a query stream and replays it live against
// a running cloudcached daemon (or cloudrouter) at a target QPS, measuring
// end-to-end throughput and verifying the economy's invariants from the
// outside. -serve is required:
//
//	workloadgen -serve http://localhost:8344 [-queries N] [-qps Q]
//	            [-clients C] [-tenants T] [-batch B] [-check] ...
//	workloadgen -serve localhost:8345 -proto bin -batch 64
//	            [-stats-url http://localhost:8344] [-check] ...
//	workloadgen -serve localhost:8345 -proto bin -pipeline 32 [-check] ...
//
// With -adversary <strategy> a hostile tenant stream (internal/adversary:
// free-rider, regret-inflater, shape-bluffer, flash-crowd, shard-storm) is
// merged into the honest stream in arrival order — the daemon must keep
// every economy invariant with the liar in the books, which is exactly
// what -check verifies from outside the process boundary.
//
// Each generated query is submitted with its budget, spread across T
// synthetic tenants so the daemon exercises all its shards. With
// -proto http, batches of B ride POST /v1/query (B=1) or /v1/batch; with
// -proto bin they ride the length-prefixed binary protocol over C
// persistent multiplexed connections, each keeping -pipeline N tagged
// batches in flight (default 1) that the daemon may complete out of
// order. The client reports achieved QPS and request-latency
// percentiles, then fetches the daemon's stats — GET /v1/stats when an
// HTTP base is known, otherwise over the binary protocol itself, where
// the run also holds a server-pushed stats stream open instead of
// polling. With -check it exits non-zero if the server's query-count
// delta over the run does not match the client's acks or any shard's
// account went negative.
//
// With -dump-trace N the client also fetches up to N of the daemon's
// sampled decision traces after the run — over GET /v1/trace on the
// HTTP front, or the binary protocol's trace frame on the binary front
// — and prints them as JSON. The daemon must be sampling
// (cloudcached -trace-sample) for records to exist.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/workload"
)

func main() {
	queries := flag.Int("queries", 10_000, "queries to generate")
	skip := flag.Int("skip", 0, "generate and discard this many queries first: resume a stream from query skip+1 (e.g. after a daemon restart)")
	interval := flag.Duration("interval", time.Second, "inter-query interval")
	seed := flag.Int64("seed", 1, "stream seed")
	arrival := flag.String("arrival", "fixed", "arrival process: fixed or poisson")
	theta := flag.Float64("theta", 1.1, "Zipf skew of template popularity")
	phase := flag.Int("phase", 20_000, "queries per workload-evolution phase")
	adversaryName := flag.String("adversary", "", "merge a hostile tenant stream into the replay: free-rider, regret-inflater, shape-bluffer, flash-crowd or shard-storm (empty disables)")
	adversaryHonest := flag.Bool("adversary-honest", false, "run the -adversary strategy's honest twin instead (same intent stream, truthful declarations)")
	serve := flag.String("serve", "", "cloudcached address (required): an http://host:port base URL, or with -proto bin the binary listener's host:port")
	proto := flag.String("proto", "http", "serving protocol: http (JSON) or bin (length-prefixed wire frames)")
	batch := flag.Int("batch", 1, "queries per submission batch")
	pipeline := flag.Int("pipeline", 1, "with -proto bin: tagged batches kept in flight per connection")
	qps := flag.Float64("qps", 0, "target request rate against -serve (0 = unthrottled)")
	clients := flag.Int("clients", 8, "concurrent client connections")
	tenants := flag.Int("tenants", 16, "synthetic tenants the stream is spread across")
	tenantSkew := flag.Float64("tenant-skew", 0, "Zipf skew of tenant popularity (0 = round-robin)")
	statsURL := flag.String("stats-url", "", "HTTP base URL for /v1/stats (defaults to -serve with -proto http; -proto bin fetches stats over the wire when unset)")
	check := flag.Bool("check", false, "verify server-side invariants after the run and exit non-zero on violation")
	tolerateErrors := flag.Bool("tolerate-errors", false, "with -check: accept per-query failures (degraded-cluster runs) — conservation invariants still apply to the queries that were acked")
	dumpTrace := flag.Int("dump-trace", 0, "after the run, fetch up to N sampled decision traces from the daemon and print them as JSON (0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()
	if *serve == "" {
		fail(fmt.Errorf("-serve is required: workloadgen replays its stream against a running daemon"))
	}

	if err := obs.SetupLogging(*logFormat); err != nil {
		fail(err)
	}

	cat := catalog.Paper()
	var proc workload.ArrivalProcess
	switch *arrival {
	case "fixed":
		proc = workload.NewFixedArrival(*interval)
	case "poisson":
		proc = workload.NewPoissonArrival(*interval)
	default:
		fail(fmt.Errorf("unknown arrival process %q", *arrival))
	}
	gcfg := workload.Config{
		Catalog:     cat,
		Seed:        *seed,
		Arrival:     proc,
		Budgets:     experiments.PaperBudgetPolicy(),
		Theta:       *theta,
		PhaseLength: *phase,
	}
	if *tenantSkew > 0 {
		// Skewed tenant mixes come from the generator's own tenant
		// sampler (a dedicated RNG, so the query stream itself is
		// unchanged); skew 0 keeps the legacy round-robin spread below.
		gcfg.Tenants = *tenants
		gcfg.TenantTheta = *tenantSkew
	}
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		fail(err)
	}
	// The replay consumes any Source; with -adversary the hostile stream
	// rides along the honest one in arrival order. Its tenant tags
	// ("mallory", or mallory-0..3 for the storm) pass through the legacy
	// round-robin spread untouched, so the liar's ledger is visible in
	// the daemon's stats.
	var src workload.Source = gen
	if *adversaryName != "" {
		strat, err := adversary.Parse(*adversaryName)
		if err != nil {
			fail(err)
		}
		adv, err := adversary.New(adversary.Config{
			Strategy: strat,
			Catalog:  cat,
			Seed:     *seed + 1,
			Honest:   *adversaryHonest,
			MeanGap:  3 * *interval, // the adversary is ~1/4 of the merged stream
		})
		if err != nil {
			fail(err)
		}
		src = workload.NewMerge(gen, adv)
	}
	// Fast-forward the deterministic stream so a replay can resume where
	// an interrupted one stopped (the RNGs advance exactly as if the
	// skipped queries had been submitted).
	for i := 0; i < *skip; i++ {
		src.Next()
	}

	cfg := loadConfig{
		base:      *serve,
		proto:     *proto,
		queries:   *queries,
		skip:      *skip,
		qps:       *qps,
		clients:   *clients,
		tenants:   *tenants,
		batch:     *batch,
		pipeline:  *pipeline,
		statsURL:  *statsURL,
		check:     *check,
		tolerate:  *tolerateErrors,
		dumpTrace: *dumpTrace,
	}
	if err := serveLoad(src, cfg); err != nil {
		fail(err)
	}
}

// loadConfig parameterises one replay run.
type loadConfig struct {
	base      string
	proto     string
	queries   int
	skip      int
	qps       float64
	clients   int
	tenants   int
	batch     int
	pipeline  int
	statsURL  string
	check     bool
	tolerate  bool
	dumpTrace int
}

// genQuery is one generated query in protocol-agnostic form; the client
// runners convert it to JSON or wire records.
type genQuery struct {
	tenant      string
	template    string
	selectivity float64
	budget      server.BudgetJSON
}

// budgetJSON converts a budget function to its wire form, preserving the
// declared shape — an adversary's convex bluff must reach the daemon as a
// convex budget, not a step flattened through its t→0 price.
func budgetJSON(b budget.Func) server.BudgetJSON {
	switch v := b.(type) {
	case budget.Step:
		return server.BudgetJSON{Shape: "step", PriceUSD: v.Price.Dollars(), TmaxSec: v.TMax.Seconds()}
	case budget.Linear:
		return server.BudgetJSON{Shape: "linear", PriceUSD: v.Price.Dollars(), TmaxSec: v.TMax.Seconds()}
	case budget.Convex:
		return server.BudgetJSON{Shape: "convex", PriceUSD: v.Price.Dollars(), TmaxSec: v.TMax.Seconds(), K: v.K}
	case budget.Concave:
		return server.BudgetJSON{Shape: "concave", PriceUSD: v.Price.Dollars(), TmaxSec: v.TMax.Seconds(), K: v.K}
	default:
		// Unknown functional forms degrade to a step at the near-zero
		// price, which is how every budget used to ride the wire.
		return server.BudgetJSON{Shape: "step", PriceUSD: b.At(time.Millisecond).Dollars(), TmaxSec: b.Tmax().Seconds()}
	}
}

// runHTTPClient drains job batches over the JSON/HTTP front: singleton
// batches ride POST /v1/query, larger ones POST /v1/batch.
func runHTTPClient(client *http.Client, base string, jobs <-chan []genQuery, res *loadResult) {
	for batch := range jobs {
		var body []byte
		var err error
		single := len(batch) == 1
		if single {
			body, err = json.Marshal(httpRequestOf(batch[0]))
		} else {
			reqs := make([]server.QueryRequest, len(batch))
			for i, g := range batch {
				reqs[i] = httpRequestOf(g)
			}
			body, err = json.Marshal(reqs)
		}
		if err != nil {
			fail(err)
		}
		path := "/v1/batch"
		if single {
			path = "/v1/query"
		}
		t0 := time.Now()
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
		lat := time.Since(t0)
		if err != nil {
			res.observe(0, 0, int64(len(batch)), 0)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			res.observe(0, 0, int64(len(batch)), 0)
			continue
		}
		var ok, declined, failed int64
		decodeOK := true
		if single {
			var qr server.Response
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				failed++
				decodeOK = false
			} else {
				ok++
				if qr.Declined {
					declined++
				}
			}
		} else {
			var items []server.BatchResponseItem
			if err := json.NewDecoder(resp.Body).Decode(&items); err != nil || len(items) != len(batch) {
				failed += int64(len(batch))
				decodeOK = false
			} else {
				for _, it := range items {
					if it.Response == nil {
						failed++
						continue
					}
					ok++
					if it.Response.Declined {
						declined++
					}
				}
			}
		}
		resp.Body.Close()
		// Undecodable replies count as failures and stay out of the
		// latency percentiles, like transport errors above.
		if !decodeOK {
			lat = 0
		}
		res.observe(ok, declined, failed, lat)
	}
}

func httpRequestOf(g genQuery) server.QueryRequest {
	sel := g.selectivity
	b := g.budget
	return server.QueryRequest{
		Tenant:      g.tenant,
		Template:    g.template,
		Selectivity: &sel,
		Budget:      &b,
	}
}

// runMuxClient drains job batches over ONE binary-protocol connection,
// with `window` submitter goroutines keeping that many tagged batches in
// flight at once. The daemon completes them out of
// order as its shard groups finish; each submitter's latency clock only
// covers its own batch.
func runMuxClient(addr string, window int, jobs <-chan []genQuery, res *loadResult) {
	cl, err := wire.DialMux(addr)
	if err != nil {
		for batch := range jobs {
			res.observe(0, 0, int64(len(batch)), 0)
		}
		return
	}
	defer cl.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qs []wire.Query
			for batch := range jobs {
				qs = qs[:0]
				for _, g := range batch {
					b := g.budget
					qs = append(qs, wire.Query{
						Tenant:         g.tenant,
						Template:       g.template,
						Selectivity:    g.selectivity,
						HasSelectivity: true,
						Budget:         &b,
					})
				}
				t0 := time.Now()
				replies, err := cl.Submit(ctx, qs)
				lat := time.Since(t0)
				if err != nil {
					res.observe(0, 0, int64(len(batch)), 0)
					continue
				}
				var ok, declined, failed int64
				for i := range replies {
					if replies[i].Err != "" {
						failed++
						continue
					}
					ok++
					if replies[i].Resp.Declined {
						declined++
					}
				}
				res.observe(ok, declined, failed, lat)
			}
		}()
	}
	wg.Wait()
}

// loadResult tallies one replay run.
type loadResult struct {
	mu       sync.Mutex
	ok       int64
	declined int64
	failed   int64
	latency  *obs.Histogram
}

func (r *loadResult) observe(ok, declined, failed int64, lat time.Duration) {
	r.mu.Lock()
	r.ok += ok
	r.declined += declined
	r.failed += failed
	if lat > 0 {
		r.latency.Observe(int64(lat))
	}
	r.mu.Unlock()
}

// serveLoad replays the source's stream against a cloudcached daemon
// over the selected protocol.
func serveLoad(src workload.Source, cfg loadConfig) error {
	if cfg.clients < 1 {
		cfg.clients = 1
	}
	if cfg.tenants < 1 {
		cfg.tenants = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	if cfg.proto == "bin" && cfg.batch > wire.MaxBatch {
		// The HTTP endpoint enforces its own (server-side) batch limit.
		return fmt.Errorf("-batch %d exceeds the wire protocol limit %d", cfg.batch, wire.MaxBatch)
	}
	switch cfg.proto {
	case "http", "bin":
	default:
		return fmt.Errorf("unknown protocol %q (want http or bin)", cfg.proto)
	}
	if cfg.pipeline > 1 && cfg.proto != "bin" {
		return fmt.Errorf("-pipeline needs -proto bin (pipelining rides the binary front)")
	}
	if cfg.pipeline < 1 {
		cfg.pipeline = 1
	}
	if cfg.statsURL == "" && cfg.proto == "http" {
		cfg.statsURL = cfg.base
	}
	httpClient := &http.Client{Timeout: 30 * time.Second}

	// Stats come over HTTP when a stats URL is known; the binary front
	// fetches them over its own protocol instead — one server-pushed
	// snapshot per fetch — so a bin-only replay needs no HTTP port at all.
	wireStats := cfg.proto == "bin" && cfg.statsURL == ""
	fetch := func(st *server.Stats) error {
		return fetchStats(httpClient, cfg.statsURL, st)
	}
	if wireStats {
		fetch = func(st *server.Stats) error {
			cl, err := wire.DialMux(cfg.base)
			if err != nil {
				return err
			}
			defer cl.Close()
			*st, err = cl.Stats(context.Background())
			return err
		}
	}
	haveStats := cfg.statsURL != "" || wireStats
	if !haveStats && cfg.check {
		return fmt.Errorf("-check needs a stats source (-stats-url, or -proto bin/http)")
	}

	// The server's counters are cumulative over its lifetime; take a
	// baseline so the post-run check compares only this run's delta and
	// repeated replays against one daemon stay checkable.
	var before server.Stats
	if haveStats {
		if err := fetch(&before); err != nil {
			return fmt.Errorf("fetching baseline stats: %w", err)
		}
	}

	// The source is single-owner: one producer goroutine feeds the
	// client pool whole batches, throttled per query to the target rate.
	jobs := make(chan []genQuery, cfg.clients*2)
	go func() {
		defer close(jobs)
		var tick *time.Ticker
		if cfg.qps > 0 {
			if gap := time.Duration(float64(time.Second) / cfg.qps); gap > 0 {
				tick = time.NewTicker(gap)
				defer tick.Stop()
			}
			// Sub-nanosecond gaps degrade to unthrottled.
		}
		pending := make([]genQuery, 0, cfg.batch)
		for i := 0; i < cfg.queries; i++ {
			q := src.Next()
			if q == nil {
				break
			}
			if tick != nil {
				<-tick.C
			}
			// Skewed runs carry the generator's own tenant tag; the
			// legacy round-robin spread covers untagged streams. The
			// round-robin index counts from the stream's true position so
			// a resumed replay (-skip) tags queries exactly as the
			// uninterrupted one would.
			tenant := q.Tenant
			if tenant == "" {
				tenant = fmt.Sprintf("tenant-%03d", (cfg.skip+i)%cfg.tenants)
			}
			pending = append(pending, genQuery{
				tenant:      tenant,
				template:    q.Template.Name,
				selectivity: q.Selectivity,
				budget:      budgetJSON(q.Budget),
			})
			if len(pending) == cfg.batch {
				jobs <- pending
				pending = make([]genQuery, 0, cfg.batch)
			}
		}
		if len(pending) > 0 {
			jobs <- pending
		}
	}()

	// Runs that take their stats over the wire also hold a live stats
	// stream open for the duration: the daemon pushes a snapshot every
	// second on its own initiative, replacing the poll loop an external
	// dashboard would otherwise run.
	var statsPushes atomic.Int64
	var statsStream *wire.MuxClient
	if wireStats {
		if cl, err := wire.DialMux(cfg.base); err == nil {
			if sub, err := cl.SubscribeStats(1.0); err == nil {
				statsStream = cl
				go func() {
					for range sub.C {
						statsPushes.Add(1)
					}
				}()
			} else {
				cl.Close()
			}
		}
	}

	res := &loadResult{latency: obs.NewClientHistogram()}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch cfg.proto {
			case "http":
				runHTTPClient(httpClient, cfg.base, jobs, res)
			case "bin":
				runMuxClient(cfg.base, cfg.pipeline, jobs, res)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	protoName := cfg.proto
	if cfg.proto == "bin" {
		protoName = fmt.Sprintf("bin-pipelined/%d", cfg.pipeline)
	}
	achieved := float64(res.ok+res.failed) / elapsed.Seconds()
	fmt.Printf("replayed %d queries in %.2fs over %s (batch=%d): %d ok (%d declined), %d failed, %.0f req/s\n",
		cfg.queries, elapsed.Seconds(), protoName, cfg.batch, res.ok, res.declined, res.failed, achieved)
	if statsStream != nil {
		_ = statsStream.Close()
		fmt.Printf("stats stream: %d server-pushed snapshots during the run\n", statsPushes.Load())
	}
	fmt.Printf("request latency: p50=%.2fms p95=%.2fms p99=%.2fms\n",
		res.latency.Quantile(0.50)*1000, res.latency.Quantile(0.95)*1000, res.latency.Quantile(0.99)*1000)

	if !haveStats {
		return nil
	}
	// Pull the server's own view of the run.
	var st server.Stats
	if err := fetch(&st); err != nil {
		return fmt.Errorf("fetching stats: %w", err)
	}
	busy := 0
	for _, sh := range st.PerShard {
		if sh.Queries > 0 {
			busy++
		}
	}
	fmt.Printf("server: scheme=%s provider=%s shards=%d (%d busy) queries=%d errors=%d cache_answered=%d invests=%d cost=$%.4f revenue=$%.4f credit=$%.4f\n",
		st.Scheme, st.Provider, st.Shards, busy, st.Queries, st.Errors, st.CacheAnswered, st.Investments,
		st.OperatingCostUSD, st.RevenueUSD, st.CreditUSD)
	if n := len(st.Tenants); n > 0 {
		hot := st.Tenants[0]
		for _, ts := range st.Tenants {
			if ts.Queries > hot.Queries {
				hot = ts
			}
		}
		fmt.Printf("server: %d tenant ledgers; hottest %s: %d queries, spend=$%.4f credit=$%.4f structures=%d\n",
			n, hot.Tenant, hot.Queries, hot.SpendUSD, hot.CreditUSD, hot.StructuresCharged)
	}

	if cfg.dumpTrace > 0 {
		if err := dumpTraces(httpClient, cfg); err != nil {
			return fmt.Errorf("dumping traces: %w", err)
		}
	}

	if !cfg.check {
		return nil
	}
	// Invariants, observed from outside the process boundary: every
	// acknowledged query is accounted (as a delta over the pre-run
	// baseline), no shard's conservative account went negative, and at
	// least two shards carried load (the stream is spread across
	// tenants).
	var violations []string
	if res.failed > 0 && !cfg.tolerate {
		violations = append(violations, fmt.Sprintf("%d requests failed", res.failed))
	}
	if delta := st.Queries - before.Queries; delta != res.ok && !cfg.tolerate {
		// A tolerated run can't reconcile the counter: a merged cluster
		// view omits an unreachable backend's counters entirely.
		violations = append(violations, fmt.Sprintf("server counted %d new queries, client got %d acks", delta, res.ok))
	}
	for _, sh := range st.PerShard {
		if sh.CreditUSD < 0 {
			violations = append(violations, fmt.Sprintf("shard %d account negative: $%g", sh.Shard, sh.CreditUSD))
		}
		if sh.Declined > sh.Queries {
			violations = append(violations, fmt.Sprintf("shard %d declined %d of %d", sh.Shard, sh.Declined, sh.Queries))
		}
	}
	// With -tolerate-errors a degraded cluster is expected: a dead
	// backend's shards are holes in the merged view, not idle shards.
	if st.Shards > 1 && busy < 2 && !cfg.tolerate {
		violations = append(violations, fmt.Sprintf("only %d of %d shards saw traffic", busy, st.Shards))
	}
	// Every query the economy handled carries a tenant, so the merged
	// tenant ledgers must account the server's whole query counter.
	if len(st.Tenants) > 0 {
		var tenantQ int64
		for _, ts := range st.Tenants {
			tenantQ += ts.Queries
		}
		if tenantQ != st.Queries {
			violations = append(violations, fmt.Sprintf("tenant ledgers account %d queries, server counted %d", tenantQ, st.Queries))
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			slog.Error("workloadgen: invariant violation", "violation", v)
		}
		return fmt.Errorf("%d invariant violations", len(violations))
	}
	fmt.Println("invariants: OK")
	return nil
}

// dumpTraces fetches the daemon's sampled decision traces over whichever
// front the run used and prints them as JSON on stdout.
func dumpTraces(client *http.Client, cfg loadConfig) error {
	var view server.TraceView
	if cfg.proto == "bin" {
		cl, err := wire.DialMux(cfg.base)
		if err != nil {
			return err
		}
		defer cl.Close()
		if view, err = cl.Trace(context.Background(), "", "", cfg.dumpTrace); err != nil {
			return err
		}
	} else {
		resp, err := client.Get(strings.TrimSuffix(cfg.statsURL, "/") + fmt.Sprintf("/v1/trace?n=%d", cfg.dumpTrace))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/trace: %s", resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return err
		}
	}
	fmt.Printf("decision traces: sample_every=%d, %d records\n", view.SampleEvery, len(view.Records))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(view.Records)
}

func fetchStats(client *http.Client, base string, st *server.Stats) error {
	resp, err := client.Get(strings.TrimSuffix(base, "/") + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(st)
}

func fail(err error) {
	slog.Error("workloadgen: fatal", "err", err)
	os.Exit(1)
}
