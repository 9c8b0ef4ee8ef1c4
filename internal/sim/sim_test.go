package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/workload"
)

func testGen(t *testing.T, cat *catalog.Catalog, gap time.Duration, seed int64) *workload.Generator {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{
		Catalog: cat,
		Seed:    seed,
		Arrival: workload.NewFixedArrival(gap),
		Budgets: &workload.FixedPolicy{Shape: workload.ShapeStep, Price: money.FromDollars(0.002), TMax: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testScheme(t *testing.T, cat *catalog.Catalog) scheme.Scheme {
	t.Helper()
	p := scheme.DefaultParams(cat)
	p.RegretFraction = 0.0001
	s, err := scheme.NewEconCheap(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	cat := catalog.TPCH(5)
	s := testScheme(t, cat)
	g := testGen(t, cat, time.Second, 1)
	cases := []Config{
		{Source: g, Queries: 10},           // no scheme
		{Scheme: s, Queries: 10},           // no source
		{Scheme: s, Source: g, Queries: 0}, // no queries
		{Scheme: s, Source: g, Queries: 10, Accounting: &pricing.Schedule{}}, // invalid schedule
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestRunBasicReport(t *testing.T) {
	cat := catalog.TPCH(5)
	s := testScheme(t, cat)
	g := testGen(t, cat, time.Second, 2)
	rep, err := Run(Config{Scheme: s, Source: g, Queries: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemeName != "econ-cheap" || rep.Queries != 500 {
		t.Errorf("header wrong: %+v", rep)
	}
	if rep.Response.N() != 500-rep.Declined {
		t.Errorf("response samples = %d", rep.Response.N())
	}
	if !rep.ExecCost.IsPositive() {
		t.Error("exec cost empty")
	}
	if rep.OperatingCost != money.Sum(rep.ExecCost, rep.BuildCost, rep.StorageCost, rep.NodeCost) {
		t.Error("operating cost is not the sum of its parts")
	}
	if rep.Elapsed != 499*time.Second {
		t.Errorf("elapsed = %v, want 499s", rep.Elapsed)
	}
	if !rep.Revenue.IsPositive() {
		t.Error("no revenue")
	}
	if rep.Response.Mean() <= 0 {
		t.Error("mean response not positive")
	}
	if rep.String() == "" {
		t.Error("empty String()")
	}
}

// TestResponsesExact: count, mean and max are exact over a known stream —
// the mean is the nanosecond sum over the count, not a running estimate —
// and the percentiles are the response histogram's.
func TestResponsesExact(t *testing.T) {
	r := &Responses{hist: obs.NewResponseHistogram()}
	if r.N() != 0 || r.Mean() != 0 || r.Max() != 0 || r.Percentile(50) != 0 {
		t.Fatalf("empty: n %d mean %v max %v p50 %v", r.N(), r.Mean(), r.Max(), r.Percentile(50))
	}
	want := obs.NewResponseHistogram()
	for i := 100; i >= 1; i-- { // i² ms: sum 338 350 ms, max 10 s
		d := time.Duration(i*i) * time.Millisecond
		r.observe(d)
		want.Observe(int64(d))
	}
	if r.N() != 100 || r.Mean() != 3.3835 || r.Max() != 10 {
		t.Errorf("n %d mean %v max %v, want 100, 3.3835, 10", r.N(), r.Mean(), r.Max())
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := r.Percentile(p); got != want.Quantile(p/100) {
			t.Errorf("p%g = %v, histogram reads %v", p, got, want.Quantile(p/100))
		}
	}
}

func TestStorageCostGrowsWithInterarrival(t *testing.T) {
	// The same query count over a longer wall clock must cost more in
	// storage rent once anything is cached (Fig. 4 trend).
	cat := catalog.TPCH(5)
	run := func(gap time.Duration) *Report {
		p := scheme.DefaultParams(cat)
		p.RegretFraction = 0.00005
		s, err := scheme.NewEconCol(p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{Scheme: s, Source: testGen(t, cat, gap, 3), Queries: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	short := run(time.Second)
	long := run(30 * time.Second)
	if short.StorageCost >= long.StorageCost {
		t.Errorf("storage: 1s=%v should be < 30s=%v", short.StorageCost, long.StorageCost)
	}
}

func TestProgressCallback(t *testing.T) {
	cat := catalog.TPCH(5)
	s := testScheme(t, cat)
	g := testGen(t, cat, time.Second, 4)
	var calls []int
	_, err := Run(Config{
		Scheme: s, Source: g, Queries: 100,
		OnProgress: func(done int) { calls = append(calls, done) }, ProgressEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 || calls[0] != 25 || calls[3] != 100 {
		t.Errorf("progress calls = %v", calls)
	}
}

func TestBypassVsEconShareAccounting(t *testing.T) {
	// Both schemes are accounted with the same schedule, so a bypass run
	// must report CPU expenditure even though its own deciding schedule
	// prices CPU at zero.
	cat := catalog.TPCH(5)
	b, err := scheme.NewBypass(scheme.DefaultParams(cat))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Scheme: b, Source: testGen(t, cat, time.Second, 5), Queries: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExecCost.IsPositive() {
		t.Error("bypass execution must cost real dollars under true accounting")
	}
	if rep.Revenue.IsPositive() {
		t.Error("bypass has no payment model; revenue must be zero")
	}
}

// TestRunAllocsPerQuery gates the offline path's allocation count (the
// count, not the clock: it repeats on any machine). One query costs the
// boxed budget.Step its generator hands it and nothing else — queries are
// refilled in place, plans and their structure lists live in the
// optimizer's tables, the economy decides out of scratch — plus a trickle
// from builds, evictions and growing tables (1.05 here); it was 2.07
// before the query stream recycled.
func TestRunAllocsPerQuery(t *testing.T) {
	cat := catalog.TPCH(5)
	sch, err := scheme.NewEconCheap(scheme.DefaultParams(cat))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{Catalog: cat, Seed: 3, Arrival: workload.NewFixedArrival(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 20_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(Config{Scheme: sch, Source: gen, Queries: queries})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Investments == 0 || rep.CacheAnswered == 0 {
		t.Fatalf("run built nothing or never answered in the cache: %v", rep)
	}
	perQuery := float64(after.Mallocs-before.Mallocs) / queries
	t.Logf("%.3f allocations per query", perQuery)
	if perQuery > 1.1 {
		t.Errorf("sim.Run allocated %.3f objects per query, want <= 1.1 (the boxed budget plus a trickle)", perQuery)
	}
}
