package server_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/server"
)

// testCatalog matches the scheme package's unit-test scale: small enough
// that backend prices are micro-dollars and investments trigger quickly.
func testCatalog() *catalog.Catalog { return catalog.TPCH(20) }

func testParams(cat *catalog.Catalog) scheme.Params {
	p := scheme.DefaultParams(cat)
	p.RegretFraction = 0.0001
	p.LoadFactor = 0.02
	return p
}

func newTestServer(t *testing.T, shards int, schemeName string, clock server.Clock) *server.Server {
	t.Helper()
	cat := testCatalog()
	srv, err := server.New(server.Config{
		Shards: shards,
		Scheme: schemeName,
		Params: testParams(cat),
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

func testBudget() budget.Func {
	return budget.NewStep(money.FromDollars(0.002), time.Hour)
}

// clearGauges zeroes the real-time saturation gauges before determinism
// comparisons: mailbox depth, oldest-waiter age and how many decisions
// found their shard idle measure wall-clock scheduling (and which submit
// path a replay took), not economy state, so two byte-identical replays
// may legitimately differ there.
func clearGauges(st *server.Stats) {
	for i := range st.PerShard {
		st.PerShard[i].MailboxDepth = 0
		st.PerShard[i].OldestWaitSec = 0
		st.PerShard[i].Inline = 0
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Error("server without catalog accepted")
	}
	cat := testCatalog()
	if _, err := server.New(server.Config{Params: scheme.DefaultParams(cat), Scheme: "no-such"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	srv, err := server.New(server.Config{Params: scheme.DefaultParams(cat), Clock: server.NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if srv.ShardCount() != 4 {
		t.Errorf("default shards = %d, want 4", srv.ShardCount())
	}
}

func TestUnknownTemplate(t *testing.T) {
	srv := newTestServer(t, 2, "econ-cheap", server.NewVirtualClock())
	_, err := srv.Submit(context.Background(), server.Request{Template: "Q999"})
	if !errors.Is(err, server.ErrUnknownTemplate) {
		t.Errorf("err = %v, want ErrUnknownTemplate", err)
	}
}

func TestShardRoutingByTenant(t *testing.T) {
	srv := newTestServer(t, 8, "econ-cheap", server.NewVirtualClock())
	ctx := context.Background()
	templates := []string{"Q1", "Q3", "Q6", "Q10"}
	want := -1
	for i := 0; i < 20; i++ {
		resp, err := srv.Submit(ctx, server.Request{
			Tenant:   "alice",
			Template: templates[i%len(templates)],
			Budget:   testBudget(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == -1 {
			want = resp.Shard
		}
		if resp.Shard != want {
			t.Fatalf("tenant alice landed on shard %d and %d", want, resp.Shard)
		}
	}
	// Template routing (no tenant) is stable per template too.
	a := srv.ShardIndex(server.Request{Template: "Q6"})
	b := srv.ShardIndex(server.Request{Template: "Q6"})
	if a != b {
		t.Error("template routing unstable")
	}
}

// TestConcurrentSubmitsAcrossShards is the -race workhorse: many
// goroutines hammer all shards at once, and the shard totals must add up
// exactly with the paper's account invariant (conservative providers
// never drive CR negative) intact on every shard.
func TestConcurrentSubmitsAcrossShards(t *testing.T) {
	srv := newTestServer(t, 4, "econ-cheap", server.NewVirtualClock())
	ctx := context.Background()
	templates := []string{"Q1", "Q3", "Q5", "Q6", "Q10", "Q14", "Q18"}

	const goroutines = 16
	const perG = 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := srv.Submit(ctx, server.Request{
					Tenant:   fmt.Sprintf("tenant-%d", (g+i)%11),
					Template: templates[(g*perG+i)%len(templates)],
					Budget:   testBudget(),
				})
				if err != nil {
					errs <- err
					return
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
	if st.Queries != goroutines*perG {
		t.Errorf("Queries = %d, want %d", st.Queries, goroutines*perG)
	}
	var perShard int64
	for _, sh := range st.PerShard {
		perShard += sh.Queries
		if sh.CreditUSD < 0 {
			t.Errorf("shard %d account went negative: %v", sh.Shard, sh.CreditUSD)
		}
		if sh.Declined > sh.Queries {
			t.Errorf("shard %d declined %d of %d", sh.Shard, sh.Declined, sh.Queries)
		}
	}
	if perShard != st.Queries {
		t.Errorf("shard sum %d != aggregate %d", perShard, st.Queries)
	}
	if st.RevenueUSD <= 0 {
		t.Error("no revenue collected")
	}
}

// script drives a fixed query sequence with interleaved clock advances:
// the deterministic reference workload of the accrual tests.
func script(t *testing.T, srv *server.Server, clock *server.VirtualClock, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		_, err := srv.Submit(ctx, server.Request{
			Tenant:      "acct",
			Template:    "Q6",
			Selectivity: 0.0096,
			Budget:      testBudget(),
		})
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
		if i%10 == 9 {
			srv.Housekeep()
		}
	}
}

// TestVirtualClockDeterminism: two servers fed the identical script on
// identical virtual clocks must be byte-identical in every live metric.
func TestVirtualClockDeterminism(t *testing.T) {
	run := func() server.Stats {
		clock := server.NewVirtualClock()
		srv := newTestServer(t, 2, "econ-cheap", clock)
		script(t, srv, clock, 1200)
		return srv.Stats()
	}
	a, b := run(), run()
	clearGauges(&a)
	clearGauges(&b)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical scripts diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Queries != 1200 {
		t.Errorf("Queries = %d, want 1200", a.Queries)
	}
}

// TestVirtualClockAccrual pins rent accrual to the exact integral: with
// the bypass scheme the cache deterministically loads columns, and after
// an idle advance of Δ the storage bill must grow by exactly
// DiskPerGBMonth · residentGiB · Δ/month.
func TestVirtualClockAccrual(t *testing.T) {
	clock := server.NewVirtualClock()
	srv := newTestServer(t, 1, "bypass", clock)
	ctx := context.Background()

	// Warm the yield counters until at least one column build starts,
	// then give the build time to complete.
	for i := 0; i < 4000; i++ {
		if _, err := srv.Submit(ctx, server.Request{
			Template:    "Q6",
			Selectivity: 0.0096,
		}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
		if st := srv.Stats(); st.PerShard[0].PendingBuilds > 0 || st.PerShard[0].ResidentBytes > 0 {
			break
		}
	}
	clock.Advance(24 * time.Hour)
	srv.Housekeep()
	st := srv.Stats()
	resident := st.ResidentBytes
	if resident == 0 {
		t.Fatal("bypass loaded nothing; cannot test accrual")
	}

	// Idle advance: only storage rent may change, by the exact integral.
	before := srv.Stats()
	const idle = 12 * time.Hour
	clock.Advance(idle)
	srv.Housekeep()
	after := srv.Stats()

	gbSeconds := float64(resident) / (1 << 30) * idle.Seconds()
	wantDelta := pricing.EC22008().DiskPerGBMonth.MulFloat(gbSeconds / (30 * 24 * 3600)).Dollars()
	gotDelta := after.StorageCostUSD - before.StorageCostUSD
	if math.Abs(gotDelta-wantDelta) > wantDelta*1e-6+1e-9 {
		t.Errorf("storage accrual over %v = $%g, want $%g", idle, gotDelta, wantDelta)
	}
	if after.ExecCostUSD != before.ExecCostUSD {
		t.Error("idle time changed exec cost")
	}
	if after.Queries != before.Queries {
		t.Error("idle time changed query count")
	}
}

// TestGracefulDrain: Shutdown racing a flood of Submits must answer every
// accepted query and reject the rest with ErrServerClosed — nothing
// dropped, nothing double-counted — whichever path decided them: a
// contended flood mixes mailbox and inline decisions, one submitter per
// shard is decided inline throughout.
func TestGracefulDrain(t *testing.T) {
	perShard := scratchTenants()
	floods := []struct {
		name       string
		goroutines int
		tenant     func(g int) string
		allInline  bool
	}{
		{"contended", 12, func(g int) string { return fmt.Sprintf("t%d", g) }, false},
		{"one submitter per shard", scratchShards, func(g int) string { return perShard[g][0] }, true},
	}
	for _, flood := range floods {
		t.Run(flood.name, func(t *testing.T) {
			cat := testCatalog()
			srv, err := server.New(server.Config{
				Shards: scratchShards,
				Scheme: "econ-cheap",
				Params: testParams(cat),
				Clock:  server.NewVirtualClock(),
			})
			if err != nil {
				t.Fatal(err)
			}

			// Every goroutine floods until the drain turns it away; the drain
			// begins once letThrough queries have been answered.
			const letThrough = 200
			ctx := context.Background()
			var submitted, accepted, rejected int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			through := make(chan struct{})
			for g := 0; g < flood.goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						_, err := srv.Submit(ctx, server.Request{
							Tenant:   flood.tenant(g),
							Template: "Q1",
							Budget:   testBudget(),
						})
						mu.Lock()
						submitted++
						switch {
						case err == nil:
							if accepted++; accepted == letThrough {
								close(through)
							}
							mu.Unlock()
						case errors.Is(err, server.ErrServerClosed):
							rejected++
							mu.Unlock()
							return
						default:
							mu.Unlock()
							t.Errorf("unexpected error: %v", err)
							return
						}
					}
				}(g)
			}
			flooded := make(chan struct{})
			go func() { wg.Wait(); close(flooded) }()
			select {
			case <-through:
			case <-flooded: // every goroutine failed; reported above
			}
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			<-flooded

			if accepted+rejected != submitted || rejected != int64(flood.goroutines) {
				t.Errorf("accepted %d + rejected %d of %d submitted by %d goroutines", accepted, rejected, submitted, flood.goroutines)
			}
			st := srv.Stats()
			if st.Queries != accepted {
				t.Errorf("server handled %d queries but %d submissions were accepted", st.Queries, accepted)
			}
			var inline int64
			for _, sh := range st.PerShard {
				inline += sh.Inline
			}
			if inline > accepted || (flood.allInline && inline != accepted) {
				t.Errorf("%d of %d accepted queries decided inline (all inline expected: %v)", inline, accepted, flood.allInline)
			}
			if !st.Draining {
				t.Error("stats must report draining after shutdown")
			}

			// The server stays closed and Shutdown stays idempotent.
			if _, err := srv.Submit(ctx, server.Request{Template: "Q1"}); !errors.Is(err, server.ErrServerClosed) {
				t.Errorf("post-shutdown submit: err = %v, want ErrServerClosed", err)
			}
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("second shutdown: %v", err)
			}
		})
	}
}

// TestDrainSettlesTailRent: rent must be charged through the last promised
// completion, like sim.Run's end-of-run accounting, not silently stop at
// the last arrival. Runs at paper scale so the tail window (resident GiB ×
// in-flight seconds) is large enough to register in fixed-point money.
func TestDrainSettlesTailRent(t *testing.T) {
	clock := server.NewVirtualClock()
	cat := catalog.Paper()
	srv, err := server.New(server.Config{
		Shards: 1,
		Scheme: "bypass",
		Params: testParams(cat),
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8000; i++ {
		if _, err := srv.Submit(ctx, server.Request{Template: "Q6", Selectivity: 0.0096}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
		if i%100 == 99 {
			if st := srv.Stats(); st.PerShard[0].PendingBuilds > 0 || st.PerShard[0].ResidentBytes > 0 {
				break
			}
		}
	}
	clock.Advance(7 * 24 * time.Hour)
	srv.Housekeep()
	before := srv.Stats()
	if before.ResidentBytes == 0 {
		t.Fatal("bypass loaded nothing; recalibrate the warm-up")
	}
	// One more query whose promised response extends past "now", then an
	// immediate drain: the tail window must still be billed.
	resp, err := srv.Submit(ctx, server.Request{Template: "Q6", Selectivity: 0.0096})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if resp.ResponseTimeSec > 0 && after.StorageCostUSD <= before.StorageCostUSD {
		t.Errorf("drain did not settle tail rent: %g -> %g", before.StorageCostUSD, after.StorageCostUSD)
	}
}

// TestShutdownTimeoutThenRetry: a cancelled ctx abandons only the wait —
// the drain still completes in the background, and a retry with a live
// ctx observes it. The one query is held in its shard's mailbox drain
// until the cancelled call has returned, so the drain cannot finish
// first.
func TestShutdownTimeoutThenRetry(t *testing.T) {
	held, release := make(chan struct{}, 1), make(chan struct{})
	srv, err := server.New(server.Config{
		Shards: 2,
		Scheme: "econ-cheap",
		Params: testParams(testCatalog()),
		Clock:  server.NewVirtualClock(),
		DecideDelay: func(int) {
			select {
			case held <- struct{}{}:
			default:
			}
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), server.Request{Template: "Q1", Budget: testBudget()})
		answered <- err
	}()
	<-held
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("shutdown with dead ctx: err = %v, want Canceled", err)
	}
	close(release)
	if err := <-answered; err != nil {
		t.Fatalf("query admitted before the drain: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("retry shutdown: %v", err)
	}
	if st := srv.Stats(); st.Queries != 1 || !st.Draining {
		t.Errorf("post-drain stats = %+v", st)
	}
}

func TestWallClockSpeedup(t *testing.T) {
	c := server.NewWallClock(1000)
	// Wall time is what a WallClock reads: only real time passing tests it.
	time.Sleep(2 * time.Millisecond)
	if got := c.Now(); got < time.Second {
		t.Errorf("speedup 1000 over 2ms = %v, want >= 1s", got)
	}
	v := server.NewVirtualClock()
	v.Advance(-time.Hour)
	if v.Now() != 0 {
		t.Error("virtual clock moved backwards")
	}
	v.Advance(time.Minute)
	if v.Now() != time.Minute {
		t.Errorf("virtual now = %v, want 1m", v.Now())
	}
}

func TestSelectivityClamped(t *testing.T) {
	srv := newTestServer(t, 1, "econ-cheap", server.NewVirtualClock())
	resp, err := srv.Submit(context.Background(), server.Request{
		Template:    "Q6",
		Selectivity: 99, // far beyond SelMax
		Budget:      testBudget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Selectivity > 1 {
		t.Errorf("selectivity not clamped: %g", resp.Selectivity)
	}
}
