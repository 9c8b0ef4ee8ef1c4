package sim

import (
	"context"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/structure"
	"repro/internal/workload"
)

// rentScheme is a stub that executes every query at the back end with a
// fixed response time while holding a fixed cache population, so rent
// integration can be checked against hand arithmetic.
type rentScheme struct {
	ca   *cache.Cache
	resp time.Duration
}

func (s *rentScheme) Name() string        { return "rent-stub" }
func (s *rentScheme) Cache() *cache.Cache { return s.ca }

func (s *rentScheme) HandleQuery(q *workload.Query) (scheme.Result, error) {
	if q.Arrival >= s.ca.Clock() {
		s.ca.Advance(q.Arrival)
	}
	s.ca.CompleteDue()
	return scheme.Result{
		ResponseTime: s.resp,
		Location:     plan.Backend,
		Charged:      money.FromDollars(0.001),
	}, nil
}

// TestTailRentCharged is the regression test for the tail gap: rent must
// keep accruing between the final arrival and the final completion, not
// stop at the last arrival.
func TestTailRentCharged(t *testing.T) {
	ca := cache.New(0)
	if err := ca.StartBuild(structure.CPUNode(2), 0, money.FromDollars(1)); err != nil {
		t.Fatal(err)
	}
	ca.CompleteDue()
	if ca.NodeCount() != 1 {
		t.Fatalf("node not resident: %d", ca.NodeCount())
	}

	cat := catalog.TPCH(5)
	const queries = 10
	const resp = 30 * time.Second
	rep, err := Run(Config{
		Scheme:  &rentScheme{ca: ca, resp: resp},
		Source:  testGen(t, cat, time.Second, 7),
		Queries: queries,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Arrivals at 1..10 s, each answered in 30 s: the run ends when the
	// last execution completes at 40 s, and the node rents for all of it.
	wantEnd := 10*time.Second + resp
	if rep.EndOfRun != wantEnd {
		t.Errorf("EndOfRun = %v, want %v", rep.EndOfRun, wantEnd)
	}
	want := pricing.EC22008().CPUPerHour.MulFloat(wantEnd.Seconds() / 3600)
	if diff := rep.NodeCost.Sub(want).Abs(); diff > money.Amount(1) {
		t.Errorf("NodeCost = %v, want %v (tail rent dropped?)", rep.NodeCost, want)
	}
	// The pre-fix accounting stopped at the last arrival (10 s); make the
	// regression explicit.
	preFix := pricing.EC22008().CPUPerHour.MulFloat(10.0 / 3600)
	if rep.NodeCost <= preFix {
		t.Errorf("NodeCost = %v does not include the tail beyond %v", rep.NodeCost, preFix)
	}
}

// oneAtATime serves Batch from Next: every query freshly allocated, none
// recycled, whatever buffer comes back.
type oneAtATime struct{ *workload.Generator }

func (s oneAtATime) Batch(n int, buf []*workload.Query) []*workload.Query {
	for ; n > 0; n-- {
		buf = append(buf, s.Next())
	}
	return buf
}

// TestBatchInvariance pins Source.Batch against Next: the loop hands its
// one batch buffer back for every refill and the generator overwrites the
// queries in it, and that must yield the report of a stream drawn one
// fresh query at a time.
func TestBatchInvariance(t *testing.T) {
	cat := catalog.TPCH(5)
	run := func(wrap func(*workload.Generator) workload.Source) *Report {
		rep, err := Run(Config{
			Scheme:  testScheme(t, cat),
			Source:  wrap(testGen(t, cat, time.Second, 9)),
			Queries: 2000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a := run(func(g *workload.Generator) workload.Source { return oneAtATime{g} })
	b := run(func(g *workload.Generator) workload.Source { return g })
	if a.OperatingCost != b.OperatingCost || a.Revenue != b.Revenue ||
		a.Declined != b.Declined || a.CacheAnswered != b.CacheAnswered ||
		a.Response.Mean() != b.Response.Mean() || a.EndOfRun != b.EndOfRun {
		t.Errorf("batching changed results:\n%v\nvs\n%v", a, b)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	cat := catalog.TPCH(5)
	mk := func(seed int64) Config {
		return Config{Scheme: testScheme(t, cat), Source: testGen(t, cat, time.Second, seed), Queries: 500}
	}
	seeds := []int64{1, 2, 3, 4}

	var want []*Report
	for _, s := range seeds {
		rep, err := Run(mk(s))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep)
	}

	cfgs := make([]Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = mk(s)
	}
	var doneCalls int
	got, err := runAll(context.Background(), cfgs, Pool{
		Workers: 4,
		OnDone:  func(int, *Report) { doneCalls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || doneCalls != len(want) {
		t.Fatalf("got %d reports, %d OnDone calls", len(got), doneCalls)
	}
	for i := range want {
		if got[i].OperatingCost != want[i].OperatingCost ||
			got[i].Revenue != want[i].Revenue ||
			got[i].Response.Mean() != want[i].Response.Mean() {
			t.Errorf("report %d differs from sequential run", i)
		}
	}
}

func TestRunParallelFirstError(t *testing.T) {
	cat := catalog.TPCH(5)
	good := Config{Scheme: testScheme(t, cat), Source: testGen(t, cat, time.Second, 1), Queries: 100}
	bad := Config{Source: testGen(t, cat, time.Second, 2), Queries: 100} // no scheme
	if _, err := runAll(context.Background(), []Config{good, bad}, Pool{Workers: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cat := catalog.TPCH(5)
	cfg := Config{Scheme: testScheme(t, cat), Source: testGen(t, cat, time.Second, 1), Queries: 100}
	if _, err := runAll(ctx, []Config{cfg}, Pool{Workers: 1}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestRunParallelEmpty(t *testing.T) {
	reports, err := runAll(context.Background(), nil, Pool{})
	if err != nil || len(reports) != 0 {
		t.Errorf("empty run: %v, %v", reports, err)
	}
}

// runAll runs ready-made configs through RunParallelFunc.
func runAll(ctx context.Context, cfgs []Config, pool Pool) ([]*Report, error) {
	return RunParallelFunc(ctx, len(cfgs), func(i int) (Config, error) { return cfgs[i], nil }, pool)
}
