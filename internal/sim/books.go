package sim

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/scheme"
)

// Books is one cache's operating account (Fig. 4): the resources its
// queries and builds consumed, the storage and node rent integrated over
// its residency, and the traffic and payment tallies. Run keeps one per
// simulation, every server shard keeps one per shard, and a shard
// snapshot persists it as is — the arithmetic below is the only copy, so
// the offline and the served books cannot disagree.
type Books struct {
	// LastAccrual is the point up to which storage and node rent have
	// been integrated.
	LastAccrual time.Duration
	// EndOfRun is when the latest-finishing execution completes; Close
	// charges rent through it.
	EndOfRun time.Duration

	// Accrued rent integrals: resident GiB × seconds and extra-node
	// uptime in seconds.
	StorageGBSeconds float64
	NodeSeconds      float64

	// Tallies over the recorded queries.
	Queries       int64
	Declined      int64
	CacheAnswered int64
	Investments   int64
	Failures      int64
	Revenue       money.Amount
	Profit        money.Amount
	ExecUsage     cost.Usage
	BuildUsage    cost.Usage
}

// Accrue integrates storage and node rent over [LastAccrual, now) using
// the residency in force over that window: call it before whatever
// prompted it mutates the cache. A now at or before the watermark is a
// no-op.
func (b *Books) Accrue(now time.Duration, ca *cache.Cache) {
	if now <= b.LastAccrual {
		return
	}
	dt := (now - b.LastAccrual).Seconds()
	b.StorageGBSeconds += float64(ca.ResidentBytes()) / (1 << 30) * dt
	b.NodeSeconds += float64(ca.NodeCount()) * dt
	b.LastAccrual = now
}

// Record tallies one decided query that arrived at arrival. Only an
// execution widens EndOfRun: a declined query runs nothing, so it must
// not stretch the window Close bills rent through.
func (b *Books) Record(arrival time.Duration, r *scheme.Result) {
	b.Queries++
	b.ExecUsage.Add(r.ExecUsage)
	b.BuildUsage.Add(r.BuildUsage)
	b.Revenue = b.Revenue.Add(r.Charged)
	b.Profit = b.Profit.Add(r.Profit)
	b.Investments += int64(r.Investments)
	b.Failures += int64(r.Failures)
	if r.Declined {
		b.Declined++
		return
	}
	if r.Location == plan.Cache {
		b.CacheAnswered++
	}
	if done := arrival + r.ResponseTime; done > b.EndOfRun {
		b.EndOfRun = done
	}
}

// Close integrates the tail: rent keeps accruing while the last
// executions run, so it is charged through max(now, EndOfRun).
func (b *Books) Close(now time.Duration, ca *cache.Cache) {
	b.Accrue(max(now, b.EndOfRun), ca)
}

// Costs is the books priced with an accounting schedule.
type Costs struct {
	Exec    money.Amount // query execution (CPU + I/O + result WAN)
	Build   money.Amount // structure construction
	Storage money.Amount // disk rent over resident bytes × time
	Node    money.Amount // extra CPU-node uptime rent
	// Operating is the Fig. 4 total: Exec + Build + Storage + Node.
	Operating money.Amount
}

// Costs prices the books with acct.
func (b *Books) Costs(acct *pricing.Schedule) Costs {
	c := Costs{
		Exec:    cost.Price(acct, b.ExecUsage),
		Build:   cost.Price(acct, b.BuildUsage),
		Storage: acct.StorageRent(b.StorageGBSeconds),
		Node:    acct.NodeRent(b.NodeSeconds),
	}
	c.Operating = money.Sum(c.Exec, c.Build, c.Storage, c.Node)
	return c
}
