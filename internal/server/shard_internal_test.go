package server

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/structure"
	"repro/internal/workload"
)

// declineScheme declines every query while (hostilely) reporting a
// non-zero ResponseTime — the worst case for the tail-rent window, since
// a declined query runs nothing and must not be billed as if it did.
type declineScheme struct {
	ca   *cache.Cache
	resp time.Duration
}

func (d *declineScheme) Name() string { return "decline-stub" }

func (d *declineScheme) HandleQuery(q *workload.Query) (scheme.Result, error) {
	if q.Arrival > d.ca.Clock() {
		d.ca.Advance(q.Arrival)
	}
	return scheme.Result{Declined: true, ResponseTime: d.resp}, nil
}

func (d *declineScheme) Cache() *cache.Cache { return d.ca }

// TestDeclinedQueryDoesNotExtendTailRent: a declined query performs no
// execution, so it must not widen the end-of-run window finalize charges
// storage and node rent through — the same accounting sim.Run applies.
func TestDeclinedQueryDoesNotExtendTailRent(t *testing.T) {
	cat := catalog.TPCH(20)
	clock := NewVirtualClock()
	srv, err := New(Config{
		Shards: 1,
		Scheme: "econ-cheap",
		Params: scheme.DefaultParams(cat),
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Swap in the stub with a resident column, so any spurious widening
	// of the tail window shows up as storage rent.
	ca := cache.New(0)
	st, err := structure.ColumnStructure(cat, catalog.Col("lineitem", "l_shipdate"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ca.StartBuild(st, 0, money.FromDollars(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(ca.CompleteDue()); got != 1 {
		t.Fatalf("CompleteDue = %d, want 1", got)
	}
	sh := srv.shards[0]
	sh.mu.Lock()
	sh.sch = &declineScheme{ca: ca, resp: time.Hour}
	sh.eco = nil
	sh.mu.Unlock()

	ctx := context.Background()
	resp, err := srv.Submit(ctx, Request{Template: "Q6", Selectivity: 0.0096})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Declined {
		t.Fatal("stub did not decline")
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The clock never advanced, the only query declined: the drain must
	// settle zero rent, not an hour of it.
	sh.mu.Lock()
	gbSec, nodeSec, end := sh.books.StorageGBSeconds, sh.books.NodeSeconds, sh.books.EndOfRun
	sh.mu.Unlock()
	if end != 0 {
		t.Errorf("declined query extended endOfRun to %v", end)
	}
	if gbSec != 0 || nodeSec != 0 {
		t.Errorf("declined query billed tail rent: %g GB·s, %g node·s", gbSec, nodeSec)
	}
}

// streamTenants spread a batch over every shard of a 4-shard server; the
// names exist once, so a measured loop mints no strings.
var streamTenants = []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}

// warmServer builds a server on a VirtualClock — cfg edited by adjust
// when non-nil — and warms it with 5 000 singleton Submits. next returns
// the following query of the same stream, one virtual second later: the
// stream the allocation gates and BenchmarkSubmit share.
func warmServer(tb testing.TB, shards int, adjust func(*Config)) (srv *Server, next func() Request) {
	tb.Helper()
	clock := NewVirtualClock()
	cfg := Config{Shards: shards, Params: scheme.DefaultParams(catalog.TPCH(20)), Clock: clock}
	if adjust != nil {
		adjust(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q14"}
	i := 0
	next = func() Request {
		req := Request{
			Tenant:         streamTenants[i%len(streamTenants)],
			Template:       templates[i%len(templates)],
			Selectivity:    float64(i%13) / 400,
			HasSelectivity: true,
		}
		i++
		clock.Advance(time.Second)
		return req
	}
	for i < 5000 {
		if _, err := srv.Submit(context.Background(), next()); err != nil {
			tb.Fatal(err)
		}
	}
	return srv, next
}

// traceAll turns the tracer a default config installs idle into one that
// records every query into its ring.
func traceAll(cfg *Config) { cfg.TraceSampleEvery = 1 }

// forceMailbox is a no-op DecideDelay hook: its presence alone sends
// every submission through the mailbox.
func forceMailbox(cfg *Config) { cfg.DecideDelay = func(int) {} }

// TestSubmitAllocs pins Submit at zero allocations per query on a warmed
// one-shard server, on three arms: decided inline on the caller's
// goroutine with an idle tracer; with a no-op DecideDelay, through the
// mailbox, the shard loop and a pooled reply channel; and inline with the
// tracer recording every query into its ring.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	for arm, adjust := range map[string]func(*Config){
		"inline":  nil,
		"mailbox": forceMailbox,
		"traced":  traceAll,
	} {
		t.Run(arm, func(t *testing.T) {
			srv, next := warmServer(t, 1, adjust)
			submit := func() {
				if _, err := srv.Submit(context.Background(), next()); err != nil {
					t.Fatal(err)
				}
			}
			inline := srv.shards[0].inline
			if got := testing.AllocsPerRun(1000, submit); got != 0 {
				t.Errorf("Submit allocates %.1f times per query, want 0; `make profile` lists the sites", got)
			}
			if decidedInline := srv.shards[0].inline > inline; decidedInline != (arm != "mailbox") {
				t.Errorf("%s arm: inline decisions moved %v", arm, decidedInline)
			}
			if traced := len(srv.TraceSnapshot("", "", 0)) > 0; traced != (arm == "traced") {
				t.Errorf("%s arm: tracer holds records %v", arm, traced)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates on average over runs calls, after a warm-up call, with
// GOMAXPROCS at 1 and every goroutine of the process counted. The count
// gates see objects; garbage-collection cost follows bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSubmitBatchAllocs pins SubmitBatch on a warmed 4-shard server at 4
// allocations per batch of 16 or 64 queries spread over every shard — the
// caller's wait and its copy of the lent items; the carve's buffers are
// pooled — with every group decided inline (tracer idle or sampling every
// query) and with every group sent through the mailbox alike. The count
// does not grow with the batch: a per-query allocation shows as a jump of
// 16 or 64. The bytes grow only by the copy: one BatchItem per query, plus
// 1 KiB for the wait and the allocator's size classes.
func TestSubmitBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	const maxAllocs = 4
	for arm, adjust := range map[string]func(*Config){"idle": nil, "traced": traceAll, "mailbox": forceMailbox} {
		for _, size := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", arm, size), func(t *testing.T) {
				srv, next := warmServer(t, 4, adjust)
				reqs := make([]Request, size)
				submit := func() {
					for i := range reqs {
						reqs[i] = next()
					}
					items, err := srv.SubmitBatch(context.Background(), reqs)
					if err != nil {
						t.Fatal(err)
					}
					for _, it := range items {
						if it.Err != nil {
							t.Fatal(it.Err)
						}
					}
				}
				allocs := testing.AllocsPerRun(500, submit)
				bytes := bytesPerRun(500, submit)
				t.Logf("batch=%d: %.0f allocations, %d bytes per batch", size, allocs, bytes)
				if maxBytes := uint64(size)*uint64(unsafe.Sizeof(BatchItem{})) + 1<<10; allocs > maxAllocs || bytes > maxBytes {
					t.Errorf("SubmitBatch of %d allocates %.1f times and %d bytes per batch, gates %d and %d; `make profile` lists the engine's sites, `go test -run TestSubmitBatchAllocs -memprofile mem.prof -memprofilerate 1 ./internal/server` the batch path's",
						size, allocs, bytes, maxAllocs, maxBytes)
				}
			})
		}
	}
}

// BenchmarkSubmit times singleton Submit on TestSubmitAllocs' warmed
// one-shard server: the served half of `make profile`.
func BenchmarkSubmit(b *testing.B) {
	srv, next := warmServer(b, 1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Submit(context.Background(), next()); err != nil {
			b.Fatal(err)
		}
	}
}

// warmSelfish builds the engine of the routed-batch benchmark workload on
// a VirtualClock — 4 shards of econ-cheap with per-tenant accounts, the
// paper catalog and budget policy — and warms it with 32 000 queries of
// the paper's Zipf stream over 64 tenants, one virtual second apart, in
// batches of 64. next cycles through the same stream. By then the
// tenants' ledgers carry rows of structures that failed and were rebuilt,
// whose bars the backoff has raised.
func warmSelfish(tb testing.TB) (srv *Server, next func() Request) {
	tb.Helper()
	clock := NewVirtualClock()
	cat := catalog.Paper()
	params := scheme.DefaultParams(cat)
	params.Provider = economy.ProviderSelfish
	policy := experiments.PaperBudgetPolicy()
	srv, err := New(Config{Shards: 4, Scheme: "econ-cheap", Params: params, Clock: clock, Budgets: policy})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	gen, err := workload.NewGenerator(workload.Config{
		Catalog: cat, Seed: 1, Arrival: workload.NewFixedArrival(time.Second), Budgets: policy,
		Theta: 1.1, PhaseLength: 20_000, Tenants: 64, TenantTheta: 1.0,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pool := make([]Request, 0, 32_000)
	for _, q := range gen.Generate(cap(pool)) {
		pool = append(pool, Request{Tenant: q.Tenant, Template: q.Template.Name, Selectivity: q.Selectivity, HasSelectivity: true})
	}
	i := 0
	next = func() Request {
		req := pool[i%len(pool)]
		i++
		clock.Advance(time.Second)
		return req
	}
	batch := make([]Request, 64)
	for range len(pool) / len(batch) {
		for j := range batch {
			batch[j] = next()
		}
		if _, err := srv.SubmitBatch(context.Background(), batch); err != nil {
			tb.Fatal(err)
		}
	}
	return srv, next
}

// BenchmarkSubmitBatch times a 64-query SubmitBatch spread over every
// shard of TestSubmitBatchAllocs' warmed 4-shard server, the batch path's
// half of `make profile`, in three arms: idle, where every group is
// decided on the caller's goroutine; mailbox, where a no-op DecideDelay
// sends every group through its shard's mailbox and loop; and selfish,
// warmSelfish's engine, whose ledgers carry rows with failure histories,
// so the investment scan's gates do real work.
func BenchmarkSubmitBatch(b *testing.B) {
	for _, arm := range []struct {
		name string
		warm func(testing.TB) (*Server, func() Request)
	}{
		{"idle", func(tb testing.TB) (*Server, func() Request) { return warmServer(tb, 4, nil) }},
		{"mailbox", func(tb testing.TB) (*Server, func() Request) { return warmServer(tb, 4, forceMailbox) }},
		{"selfish", warmSelfish},
	} {
		b.Run(arm.name, func(b *testing.B) {
			srv, next := arm.warm(b)
			reqs := make([]Request, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range reqs {
					reqs[j] = next()
				}
				if _, err := srv.SubmitBatch(context.Background(), reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// statsTestServer has served a fixed stream on a virtual clock over three
// shards, with response times spread over many histogram buckets.
func statsTestServer(t *testing.T) *Server {
	t.Helper()
	clock := NewVirtualClock()
	srv, err := New(Config{
		Shards: 3,
		Params: scheme.DefaultParams(catalog.TPCH(20)),
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q14"}
	for i := 0; i < 900; i++ {
		req := Request{
			Tenant:         fmt.Sprintf("t%d", i%7),
			Template:       templates[i%len(templates)],
			Selectivity:    float64(i%13) / 400,
			HasSelectivity: true,
		}
		if _, err := srv.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	return srv
}

// TestStatsPercentilesUnchanged: the percentiles /v1/stats reports are
// read off the response histograms. Each shard reports its histogram's
// counts — one per executed query — and the percentiles and exact mean
// they yield; the cluster reports the sum of those counts and the
// percentiles of that sum.
func TestStatsPercentilesUnchanged(t *testing.T) {
	srv := statsTestServer(t)
	full := srv.Stats()
	sum := obs.NewResponseHistogram()
	for i, sh := range srv.shards {
		sh.mu.Lock()
		counts, n, total := sh.response.Counts(), sh.response.Count(), sh.response.Sum()
		sh.mu.Unlock()
		sum.Add(counts, total)
		p50, p95, p99 := obs.ResponseQuantile(counts, 0.50), obs.ResponseQuantile(counts, 0.95), obs.ResponseQuantile(counts, 0.99)
		st := full.PerShard[i]
		if st.Queries == 0 || p50 == 0 || p50 == p99 {
			t.Fatalf("shard %d: %d queries, p50 %v, p99 %v: the stream exercises nothing", i, st.Queries, p50, p99)
		}
		if !reflect.DeepEqual(st.ResponseBuckets, counts) || n != st.Queries-st.Declined {
			t.Errorf("shard %d: stats report buckets %v, the histogram holds %v (%d observations, %d executed)", i, st.ResponseBuckets, counts, n, st.Queries-st.Declined)
		}
		if st.ResponseP50Sec != p50 || st.ResponseP95Sec != p95 || st.ResponseP99Sec != p99 {
			t.Errorf("shard %d: stats report p50/p95/p99 %v/%v/%v, the histogram %v/%v/%v",
				i, st.ResponseP50Sec, st.ResponseP95Sec, st.ResponseP99Sec, p50, p95, p99)
		}
		if want := float64(total) / float64(n) / 1e9; st.ResponseMeanSec != want {
			t.Errorf("shard %d: mean %v, the histogram's sum over its count %v", i, st.ResponseMeanSec, want)
		}
	}
	if !reflect.DeepEqual(full.ResponseBuckets, sum.Counts()) {
		t.Errorf("cluster buckets %v, the shards' sum %v", full.ResponseBuckets, sum.Counts())
	}
	counts := sum.Counts()
	if full.ResponseP50Sec != obs.ResponseQuantile(counts, 0.50) || full.ResponseP95Sec != obs.ResponseQuantile(counts, 0.95) ||
		full.ResponseP99Sec != obs.ResponseQuantile(counts, 0.99) {
		t.Errorf("cluster p50/p95/p99 %v/%v/%v are not the summed buckets'", full.ResponseP50Sec, full.ResponseP95Sec, full.ResponseP99Sec)
	}
	if full.ResponseP50Sec == 0 || full.ResponseP50Sec > full.ResponseP95Sec || full.ResponseP95Sec > full.ResponseP99Sec {
		t.Errorf("aggregate p50/p95/p99 = %v/%v/%v", full.ResponseP50Sec, full.ResponseP95Sec, full.ResponseP99Sec)
	}
}
