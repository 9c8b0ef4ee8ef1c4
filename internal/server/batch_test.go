package server_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSubmitBatchPositional: results align with the request slice even
// when the batch mixes shards and contains per-request failures.
func TestSubmitBatchPositional(t *testing.T) {
	srv := newTestServer(t, 4, "econ-cheap", server.NewVirtualClock())
	reqs := []server.Request{
		{Tenant: "a", Template: "Q1", Budget: testBudget()},
		{Tenant: "b", Template: "Q999"}, // unknown: per-item error
		{Tenant: "c", Template: "Q6", Budget: testBudget()},
		{Tenant: "a", Template: "Q3", Budget: testBudget()},
	}
	items, err := srv.SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(items), len(reqs))
	}
	for i, want := range []string{"Q1", "", "Q6", "Q3"} {
		if want == "" {
			if !errors.Is(items[i].Err, server.ErrUnknownTemplate) {
				t.Errorf("item %d: err = %v, want ErrUnknownTemplate", i, items[i].Err)
			}
			continue
		}
		if items[i].Err != nil {
			t.Errorf("item %d: unexpected error %v", i, items[i].Err)
			continue
		}
		if items[i].Resp.Template != want {
			t.Errorf("item %d: template %q, want %q", i, items[i].Resp.Template, want)
		}
	}
	// Same tenant, same shard.
	if items[0].Resp.Shard != items[3].Resp.Shard {
		t.Error("tenant a split across shards within one batch")
	}
	st := srv.Stats()
	if st.Queries != 3 {
		t.Errorf("Queries = %d, want 3", st.Queries)
	}
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
}

// TestSubmitBatchMatchesSequential: on a single shard, one batch must
// reproduce byte-for-byte the answers of the same requests submitted
// back-to-back at the same instant — per-query determinism across the
// two admission paths.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	reqs := func() []server.Request {
		var out []server.Request
		templates := []string{"Q1", "Q6", "Q3", "Q6", "Q10", "Q1"}
		for i, tpl := range templates {
			out = append(out, server.Request{
				Tenant:      "solo",
				Template:    tpl,
				Selectivity: 0.001 * float64(i+1),
				Budget:      testBudget(),
			})
		}
		return out
	}

	ctx := context.Background()
	seqSrv := newTestServer(t, 1, "econ-cheap", server.NewVirtualClock())
	var seq []server.Response
	for _, req := range reqs() {
		resp, err := seqSrv.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, resp)
	}

	batchSrv := newTestServer(t, 1, "econ-cheap", server.NewVirtualClock())
	items, err := batchSrv.SubmitBatch(ctx, reqs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if items[i].Err != nil {
			t.Fatalf("batch item %d: %v", i, items[i].Err)
		}
		if items[i].Resp != seq[i] {
			t.Errorf("item %d diverged:\nbatch      %+v\nsequential %+v", i, items[i].Resp, seq[i])
		}
	}
	a, b := seqSrv.Stats(), batchSrv.Stats()
	clearGauges(&a)
	clearGauges(&b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("aggregate stats diverged:\nsequential %+v\nbatch      %+v", a, b)
	}
}

// TestSubmitBatchConcurrent is the -race workhorse for the batched path:
// many goroutines submit batches across all shards concurrently and the
// totals must add up exactly, like the single-submit equivalent.
func TestSubmitBatchConcurrent(t *testing.T) {
	srv := newTestServer(t, 4, "econ-cheap", server.NewVirtualClock())
	ctx := context.Background()
	templates := []string{"Q1", "Q3", "Q5", "Q6", "Q10", "Q14", "Q18"}

	const goroutines = 12
	const batches = 25
	const batchSize = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				reqs := make([]server.Request, batchSize)
				for i := range reqs {
					reqs[i] = server.Request{
						Tenant:   fmt.Sprintf("tenant-%d", (g+b+i)%13),
						Template: templates[(g*batches+b*batchSize+i)%len(templates)],
						Budget:   testBudget(),
					}
				}
				items, err := srv.SubmitBatch(ctx, reqs)
				if err != nil {
					errs <- err
					return
				}
				for i := range items {
					if items[i].Err != nil {
						errs <- items[i].Err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	want := int64(goroutines * batches * batchSize)
	if st.Queries != want {
		t.Errorf("Queries = %d, want %d", st.Queries, want)
	}
	var perShard int64
	for _, sh := range st.PerShard {
		perShard += sh.Queries
		if sh.CreditUSD < 0 {
			t.Errorf("shard %d account went negative: %v", sh.Shard, sh.CreditUSD)
		}
	}
	if perShard != st.Queries {
		t.Errorf("shard sum %d != aggregate %d", perShard, st.Queries)
	}
}

// TestSubmitBatchAfterShutdown: a drained server rejects whole batches,
// and a batch accepted before the drain is fully answered.
func TestSubmitBatchAfterShutdown(t *testing.T) {
	srv := newTestServer(t, 2, "econ-cheap", server.NewVirtualClock())
	ctx := context.Background()
	if _, err := srv.SubmitBatch(ctx, []server.Request{{Template: "Q1", Budget: testBudget()}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitBatch(ctx, []server.Request{{Template: "Q1"}}); !errors.Is(err, server.ErrServerClosed) {
		t.Errorf("post-shutdown batch: err = %v, want ErrServerClosed", err)
	}
	if st := srv.Stats(); st.Queries != 1 {
		t.Errorf("Queries = %d, want 1", st.Queries)
	}
}

// TestSubmitBatchEmpty: a zero-length batch is a no-op, not a hang.
func TestSubmitBatchEmpty(t *testing.T) {
	srv := newTestServer(t, 2, "econ-cheap", server.NewVirtualClock())
	items, err := srv.SubmitBatch(context.Background(), nil)
	if err != nil || items != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", items, err)
	}
}

// TestExplicitZeroSelectivity: an explicitly requested selectivity of 0
// must behave like any other out-of-range value (clamp to the template's
// minimum), not silently turn into a random draw.
func TestExplicitZeroSelectivity(t *testing.T) {
	var q6 *workload.Template
	for _, tpl := range workload.PaperTemplates() {
		if tpl.Name == "Q6" {
			q6 = tpl
		}
	}
	if q6 == nil {
		t.Fatal("no Q6 template")
	}

	srv := newTestServer(t, 1, "econ-cheap", server.NewVirtualClock())
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := srv.Submit(ctx, server.Request{
			Template:       "Q6",
			Selectivity:    0,
			HasSelectivity: true,
			Budget:         testBudget(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Selectivity != q6.SelMin {
			t.Fatalf("explicit zero selectivity drew %g, want clamp to SelMin %g", resp.Selectivity, q6.SelMin)
		}
	}
	// The unset zero value still draws from the template's range.
	resp, err := srv.Submit(ctx, server.Request{Template: "Q6", Budget: testBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Selectivity < q6.SelMin || resp.Selectivity > q6.SelMax {
		t.Errorf("drawn selectivity %g outside [%g, %g]", resp.Selectivity, q6.SelMin, q6.SelMax)
	}
}

// TestErrorCounterVisible: request failures must be visible in the stats
// so an unhealthy shard does not masquerade as an idle one.
func TestErrorCounterVisible(t *testing.T) {
	srv := newTestServer(t, 4, "econ-cheap", server.NewVirtualClock())
	ctx := context.Background()
	const bad = 5
	for i := 0; i < bad; i++ {
		if _, err := srv.Submit(ctx, server.Request{Tenant: "t", Template: "Q999"}); err == nil {
			t.Fatal("unknown template accepted")
		}
	}
	if _, err := srv.Submit(ctx, server.Request{Tenant: "t", Template: "Q1", Budget: testBudget()}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Errors != bad {
		t.Errorf("aggregate Errors = %d, want %d", st.Errors, bad)
	}
	if st.Queries != 1 {
		t.Errorf("Queries = %d, want 1 (errors must not count as served)", st.Queries)
	}
	var found bool
	for _, sh := range st.PerShard {
		if sh.Errors == bad {
			found = true
		}
	}
	if !found {
		t.Errorf("no shard reports the %d errors: %+v", bad, st.PerShard)
	}
}

// TestServerMatchesSimAccounting replays the identical query stream
// through sim.Run and through a one-shard server on a virtual clock and
// demands the same books, to the last bit: queries, revenue, exec/build
// cost and — the tail-rent regression — storage and node rent through the
// same end-of-run window. Both keep them in one sim.Books, so any
// difference is in what they feed it. Both read response percentiles off
// the same histogram by the same rule, and the mean as sum / count, so
// those match to the bit as well.
func TestServerMatchesSimAccounting(t *testing.T) {
	cat := catalog.TPCH(20)
	const n = 1500
	genCfg := workload.Config{
		Catalog: cat,
		Seed:    7,
		Arrival: workload.NewFixedArrival(time.Second),
		Budgets: &workload.FixedPolicy{Shape: workload.ShapeStep, Price: money.FromDollars(0.002), TMax: time.Hour},
	}
	type run struct {
		scheme   string
		provider economy.Provider
	}
	runs := []run{{"bypass", economy.ProviderAltruistic}}
	for _, name := range []string{"econ-col", "econ-cheap", "econ-fast"} {
		runs = append(runs, run{name, economy.ProviderAltruistic}, run{name, economy.ProviderSelfish})
	}
	for _, r := range runs {
		t.Run(r.scheme+"/"+r.provider.String(), func(t *testing.T) {
			params := testParams(cat)
			params.Provider = r.provider

			// Offline reference.
			sch, err := scheme.New(r.scheme, params)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(genCfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sim.Run(sim.Config{Scheme: sch, Source: gen, Queries: n})
			if err != nil {
				t.Fatal(err)
			}

			// Online replay of the same stream.
			clock := server.NewVirtualClock()
			srv, err := server.New(server.Config{Shards: 1, Scheme: r.scheme, Params: params, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			gen2, err := workload.NewGenerator(genCfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var last time.Duration
			for i := 0; i < n; i++ {
				q := gen2.Next()
				clock.Advance(q.Arrival - last)
				last = q.Arrival
				if _, err := srv.Submit(ctx, server.Request{
					Tenant:         "replay",
					Template:       q.Template.Name,
					Selectivity:    q.Selectivity,
					HasSelectivity: true,
					Budget:         q.Budget,
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()

			if got, want := [5]int64{st.Queries, st.Declined, st.CacheAnswered, st.Investments, st.Failures},
				[5]int64{n, rep.Declined, rep.CacheAnswered, rep.Investments, rep.Failures}; got != want {
				t.Errorf("queries/declined/cache/investments/failures = %v, sim %v", got, want)
			}
			if rep.Investments == 0 && r.scheme != "bypass" {
				t.Error("the stream built nothing: rent is not exercised")
			}
			got := [6]float64{st.RevenueUSD, st.ProfitUSD, st.ExecCostUSD, st.BuildCostUSD, st.StorageCostUSD, st.NodeCostUSD}
			want := [6]float64{rep.Revenue.Dollars(), rep.Profit.Dollars(), rep.ExecCost.Dollars(),
				rep.BuildCost.Dollars(), rep.StorageCost.Dollars(), rep.NodeCost.Dollars()}
			if got != want {
				t.Errorf("revenue/profit/exec/build/storage/node = %v, sim %v", got, want)
			}
			resp := rep.Response
			if got, want := [4]float64{st.ResponseP50Sec, st.ResponseP95Sec, st.ResponseP99Sec, st.ResponseMeanSec},
				[4]float64{resp.Percentile(50), resp.Percentile(95), resp.Percentile(99), resp.Mean()}; got != want {
				t.Errorf("response p50/p95/p99/mean = %v, sim %v", got, want)
			}
		})
	}
}
