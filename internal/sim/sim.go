// Package sim runs a caching scheme against a query stream on a discrete
// event clock and accounts the cloud's true operating cost (Fig. 4) and
// response times (Fig. 5).
//
// Accounting is deliberately separate from the scheme's own deciding
// prices: the bypass baseline decides as if only network mattered, but its
// true expenditure — CPU, I/O, network, storage rent, node uptime — is
// still measured with the real schedule, so Figure 4 compares all schemes
// in the same dollars.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// Config parameterises one simulation run.
type Config struct {
	// Scheme under test. Required.
	Scheme scheme.Scheme
	// Source produces the query stream: a *workload.Generator, an
	// adversary strategy, a merged multi-source stream. Required. A
	// source that runs dry before Queries fails the run.
	Source workload.Source
	// Queries is the stream length. Required.
	Queries int
	// Accounting prices the true expenditure; defaults to EC22008.
	Accounting *pricing.Schedule
	// OnProgress, if set, is invoked every ProgressEvery queries with
	// the number handled so far.
	OnProgress    func(done int)
	ProgressEvery int
}

// batchSize is how many queries the loop asks its source for at a time.
// The one batch buffer is handed back to the source for every refill, so
// a source that recycles (workload.Generator) allocates batchSize queries
// per run, not one per query.
const batchSize = 256

// Report is the outcome of one run.
type Report struct {
	// SchemeName labels the run.
	SchemeName string
	// Queries is the number of queries offered.
	Queries int
	// Declined counts queries the user walked away from.
	Declined int64
	// CacheAnswered counts queries answered in the cache.
	CacheAnswered int64
	// Investments and Failures count structure builds and
	// maintenance-failure evictions.
	Investments int64
	Failures    int64

	// Response aggregates response times of executed queries (seconds).
	Response *Responses

	// True expenditure, priced with the accounting schedule.
	ExecCost    money.Amount // query execution (CPU + I/O + result WAN)
	BuildCost   money.Amount // structure construction
	StorageCost money.Amount // disk rent over resident bytes × time
	NodeCost    money.Amount // extra CPU-node uptime rent
	// OperatingCost is the Fig. 4 total: Exec + Build + Storage + Node.
	OperatingCost money.Amount

	// Revenue and Profit are the user-payment side.
	Revenue money.Amount
	Profit  money.Amount

	// Elapsed is the simulated wall-clock span (first to last arrival).
	Elapsed time.Duration
	// EndOfRun is when the last execution completed (the latest
	// arrival plus response of an executed query; a decline runs
	// nothing and never widens it); rent is charged through it.
	EndOfRun time.Duration
	// FinalResidentBytes is the cache footprint at the end.
	FinalResidentBytes int64

	// Tenants holds the per-tenant sections, sorted by tenant name. Nil
	// when the stream carried no tenant tags (the paper's single-tenant
	// figures).
	Tenants []TenantReport
}

// Responses summarises the response times of a run's executed queries:
// exact count, mean (nanosecond sum / count) and max, and percentiles read
// off an obs response histogram — the layout and the rule a served shard's
// stats use, so a simulation and a server fed the same stream report the
// same figures.
//
// One goroutine runs a simulation, so observe records into plain counts
// in hist's layout, the response layout — no atomics — and the readers
// fold them into hist first; Run folds before it returns the report.
type Responses struct {
	hist *obs.Histogram
	max  time.Duration

	// counts, sum and n tally the observations not yet folded into hist.
	counts [obs.ResponseBuckets]int64
	sum, n int64
}

func (r *Responses) observe(d time.Duration) {
	ns := max(int64(d), 0)
	r.counts[r.hist.Bucket(ns)]++
	r.sum += ns
	r.n++
	r.max = max(r.max, d)
}

// folded returns hist with every observation folded in.
func (r *Responses) folded() *obs.Histogram {
	if r.n > 0 {
		r.hist.Add(r.counts[:], r.sum)
		r.counts, r.sum, r.n = [obs.ResponseBuckets]int64{}, 0, 0
	}
	return r.hist
}

// N returns the number of response times observed.
func (r *Responses) N() int64 { return r.folded().Count() }

// Mean returns the exact mean response time in seconds (0 with none).
func (r *Responses) Mean() float64 { return r.folded().Mean() }

// Max returns the longest response time in seconds.
func (r *Responses) Max() float64 { return r.max.Seconds() }

// Percentile estimates the p-th percentile (0 ≤ p ≤ 100) in seconds.
func (r *Responses) Percentile(p float64) float64 { return r.folded().Quantile(p / 100) }

// MarshalJSON reports the headline statistics in seconds, which golden
// tests pin.
func (r *Responses) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N       int64   `json:"n"`
		MeanSec float64 `json:"mean_s"`
		P50Sec  float64 `json:"p50_s"`
		P95Sec  float64 `json:"p95_s"`
		P99Sec  float64 `json:"p99_s"`
		MaxSec  float64 `json:"max_s"`
	}{r.N(), r.Mean(), r.Percentile(50), r.Percentile(95), r.Percentile(99), r.Max()})
}

// TenantReport is one tenant's slice of the run: traffic and payment
// attribution from the stream, plus the tenant's ledger state when the
// scheme runs an economy (zero-valued for the bypass baseline).
type TenantReport struct {
	// Tenant is the tenant name ("" for untagged queries in a mixed
	// stream).
	Tenant string
	// Traffic.
	Queries       int64
	Declined      int64
	CacheAnswered int64
	// Payments.
	Revenue money.Amount
	Profit  money.Amount
	// Response time over the tenant's executed queries.
	ResponseSum time.Duration
	// Ledger state at end of run (economy schemes only). Credit and
	// StructuresCharged are zero under the altruistic provider, whose
	// account is communal.
	Credit            money.Amount
	Spend             money.Amount
	RegretAccrued     money.Amount
	Invested          money.Amount
	StructuresCharged int64
}

// MeanResponseSeconds returns the tenant's mean response time in seconds.
func (t TenantReport) MeanResponseSeconds() float64 {
	if n := t.Queries - t.Declined; n > 0 {
		return t.ResponseSum.Seconds() / float64(n)
	}
	return 0
}

// Run executes the simulation.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes the simulation, aborting between batches when ctx is
// cancelled. The stream is drawn a batch at a time on the calling
// goroutine; every finished batch goes back to the source as the next
// call's buffer, which is what lets a recycling source overwrite its
// queries — nothing here keeps a *Query past the batch it came in.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("sim: Scheme is required")
	}
	src := cfg.Source
	if src == nil {
		return nil, fmt.Errorf("sim: Source is required")
	}
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("sim: Queries must be positive")
	}
	if cfg.Accounting == nil {
		cfg.Accounting = pricing.EC22008()
	}
	if err := cfg.Accounting.Validate(); err != nil {
		return nil, err
	}

	rep := &Report{
		SchemeName: cfg.Scheme.Name(),
		Queries:    cfg.Queries,
		Response:   &Responses{hist: obs.NewResponseHistogram()},
	}

	ca := cfg.Scheme.Cache()
	books := Books{LastAccrual: ca.Clock()}
	var firstArrival, lastArrival time.Duration

	// Per-tenant attribution. Consecutive queries mostly share a tenant
	// (the paper's streams are untagged; tagged ones are Zipf-skewed), so
	// the previous query's section is tried before the map.
	tenantReps := make(map[string]*TenantReport)
	var lastTenant *TenantReport
	tenantOf := func(name string) *TenantReport {
		if lastTenant != nil && lastTenant.Tenant == name {
			return lastTenant
		}
		tr, ok := tenantReps[name]
		if !ok {
			tr = &TenantReport{Tenant: name}
			tenantReps[name] = tr
		}
		lastTenant = tr
		return tr
	}

	i := 0
	batch := make([]*workload.Query, 0, min(batchSize, cfg.Queries))
	for i < cfg.Queries {
		want := min(batchSize, cfg.Queries-i)
		batch = src.Batch(want, batch[:0])
		for _, q := range batch {
			if i == 0 {
				firstArrival = q.Arrival
			}
			lastArrival = q.Arrival

			// Rent over the idle gap, before this arrival mutates the cache.
			books.Accrue(q.Arrival, ca)
			r, err := cfg.Scheme.HandleQuery(q)
			if err != nil {
				return nil, fmt.Errorf("sim: query %d: %w", q.ID, err)
			}
			books.Record(q.Arrival, &r)
			tr := tenantOf(q.Tenant)
			tr.Queries++
			tr.Revenue = tr.Revenue.Add(r.Charged)
			tr.Profit = tr.Profit.Add(r.Profit)
			if r.Declined {
				tr.Declined++
			} else {
				rep.Response.observe(r.ResponseTime)
				tr.ResponseSum += r.ResponseTime
				if r.Location == plan.Cache {
					tr.CacheAnswered++
				}
			}

			i++
			if cfg.OnProgress != nil && cfg.ProgressEvery > 0 && i%cfg.ProgressEvery == 0 {
				cfg.OnProgress(i)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(batch) < want {
			// The source ran dry (only finite Sources do; the Generator
			// never does).
			return nil, fmt.Errorf("sim: source produced %d of %d queries", i, cfg.Queries)
		}
	}

	rep.Response.folded()
	// Rent keeps accruing while the final queries execute, so a run's
	// storage and node costs do not silently drop the closing window.
	books.Close(lastArrival, ca)
	c := books.Costs(cfg.Accounting)
	rep.Declined, rep.CacheAnswered = books.Declined, books.CacheAnswered
	rep.Investments, rep.Failures = books.Investments, books.Failures
	rep.ExecCost, rep.BuildCost, rep.StorageCost, rep.NodeCost = c.Exec, c.Build, c.Storage, c.Node
	rep.OperatingCost = c.Operating
	rep.Revenue, rep.Profit = books.Revenue, books.Profit
	rep.Elapsed = lastArrival - firstArrival
	rep.EndOfRun = books.EndOfRun
	rep.FinalResidentBytes = ca.ResidentBytes()

	// Per-tenant sections: only for tagged streams, so the classic
	// single-tenant reports keep their shape.
	_, untaggedOnly := tenantReps[""]
	if len(tenantReps) > 1 || !untaggedOnly {
		// Enrich with end-of-run ledger state when the scheme runs an
		// economy.
		if ec, ok := cfg.Scheme.(interface{ Economy() *economy.Economy }); ok {
			for _, ts := range ec.Economy().TenantStats() {
				if tr, ok := tenantReps[ts.Tenant]; ok {
					tr.Credit = ts.Credit
					tr.Spend = ts.Spend
					tr.RegretAccrued = ts.RegretAccrued
					tr.Invested = ts.Invested
					tr.StructuresCharged = ts.InvestCount
				}
			}
		}
		rep.Tenants = make([]TenantReport, 0, len(tenantReps))
		for _, tr := range tenantReps {
			rep.Tenants = append(rep.Tenants, *tr)
		}
		sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	}
	return rep, nil
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: n=%d cost=%s resp=%.2fs cacheHits=%d invests=%d failures=%d",
		r.SchemeName, r.Queries, r.OperatingCost, r.Response.Mean(),
		r.CacheAnswered, r.Investments, r.Failures)
}
