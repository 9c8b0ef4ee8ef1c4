package server

// Snapshot types: the JSON-serialisable view of the engine's live state
// that GET /v1/stats and GET /v1/structures report. All monetary values
// are dollars, all times seconds, so dashboards and the workloadgen
// checker read them without knowing the internal fixed-point encoding.

// ShardStats is the live view of one shard's economy.
type ShardStats struct {
	Shard  int    `json:"shard"`
	Scheme string `json:"scheme"`
	// Owned is false while this shard's key space is served by another
	// backend (frozen for migration, or never owned in a cluster
	// partition); a disowned shard rejects queries with "shard not owned
	// here" and its counters stop moving.
	Owned bool `json:"owned"`
	// ClockSec is the shard's economy time (seconds since server start).
	ClockSec float64 `json:"clock_s"`

	// Traffic counters. Inline counts the queries among Queries that
	// found the shard idle and were decided on their caller's goroutine;
	// the rest waited in the mailbox for the shard's loop. It restarts
	// from zero with the process (snapshots do not carry it). Errors
	// counts requests the shard could not decide (unknown template, sizing
	// or scheme failures): an unhealthy shard is visibly erroring, not
	// idle.
	Queries       int64 `json:"queries"`
	Inline        int64 `json:"inline"`
	Declined      int64 `json:"declined"`
	CacheAnswered int64 `json:"cache_answered"`
	Investments   int64 `json:"investments"`
	Failures      int64 `json:"failures"`
	Errors        int64 `json:"errors"`

	// Saturation gauges. MailboxDepth is the admission queue's length at
	// snapshot time; OldestWaitSec is the queue wait of the shard's most
	// recent decision (real seconds, not economy time): the head
	// message's wait at a mailbox drain, 0 when the decision was made
	// inline — together they show a shard falling behind before response
	// times do.
	MailboxDepth  int     `json:"mailbox_depth"`
	OldestWaitSec float64 `json:"oldest_wait_s"`

	// Response-time statistics over executed queries (seconds). The mean
	// is the histogram's exact sum over its count; the percentiles are
	// read off ResponseBuckets, the histogram's counts in obs's response
	// layout (trailing empty buckets trimmed).
	ResponseMeanSec float64 `json:"response_mean_s"`
	ResponseP50Sec  float64 `json:"response_p50_s"`
	ResponseP95Sec  float64 `json:"response_p95_s"`
	ResponseP99Sec  float64 `json:"response_p99_s"`
	ResponseBuckets []int64 `json:"response_buckets,omitempty"`

	// True expenditure by resource, priced with the accounting schedule
	// (the Fig. 4 decomposition, live).
	ExecCostUSD      float64 `json:"exec_cost_usd"`
	BuildCostUSD     float64 `json:"build_cost_usd"`
	StorageCostUSD   float64 `json:"storage_cost_usd"`
	NodeCostUSD      float64 `json:"node_cost_usd"`
	OperatingCostUSD float64 `json:"operating_cost_usd"`

	// User-payment side.
	RevenueUSD float64 `json:"revenue_usd"`
	ProfitUSD  float64 `json:"profit_usd"`

	// Cache residency.
	ResidentBytes      int64 `json:"resident_bytes"`
	ResidentStructures int   `json:"resident_structures"`
	PendingBuilds      int   `json:"pending_builds"`
	Nodes              int   `json:"nodes"`

	// Economy account (zero for the bypass baseline, which has none).
	CreditUSD    float64 `json:"credit_usd"`
	InvestedUSD  float64 `json:"invested_usd"`
	RecoveredUSD float64 `json:"recovered_usd"`
	LedgerSize   int     `json:"ledger_size"`

	// Tenants are the shard's per-tenant ledgers, sorted by tenant name
	// (economy schemes only; nil for the bypass baseline).
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// TenantStats is the live view of one tenant's economy ledger. Under the
// altruistic provider the account fields (credit, invested,
// structures_charged, ledger_size) are zero — the account is communal —
// while spend, profit, regret and traffic still attribute per tenant.
type TenantStats struct {
	Tenant string `json:"tenant"`

	Queries       int64 `json:"queries"`
	Declined      int64 `json:"declined"`
	CacheAnswered int64 `json:"cache_answered"`
	// HitRate is CacheAnswered over executed (non-declined) queries.
	HitRate float64 `json:"hit_rate"`

	CreditUSD    float64 `json:"credit_usd"`
	SpendUSD     float64 `json:"spend_usd"`
	ProfitUSD    float64 `json:"profit_usd"`
	RegretUSD    float64 `json:"regret_usd"`
	InvestedUSD  float64 `json:"invested_usd"`
	RecoveredUSD float64 `json:"recovered_usd"`

	// StructuresCharged counts builds financed by this tenant's ledger.
	StructuresCharged int64 `json:"structures_charged"`
	LedgerSize        int   `json:"ledger_size"`
}

// Stats is the aggregate view across all shards plus the per-shard detail.
type Stats struct {
	Scheme   string  `json:"scheme"`
	Provider string  `json:"provider"`
	Shards   int     `json:"shards"`
	ClockSec float64 `json:"clock_s"`
	Draining bool    `json:"draining"`

	Queries       int64 `json:"queries"`
	Declined      int64 `json:"declined"`
	CacheAnswered int64 `json:"cache_answered"`
	Investments   int64 `json:"investments"`
	Failures      int64 `json:"failures"`
	Errors        int64 `json:"errors"`

	// Cluster response statistics. ResponseBuckets sums the per-shard
	// histograms — the histogram of every executed query — and the
	// percentiles are read off it.
	ResponseMeanSec float64 `json:"response_mean_s"`
	ResponseP50Sec  float64 `json:"response_p50_s"`
	ResponseP95Sec  float64 `json:"response_p95_s"`
	ResponseP99Sec  float64 `json:"response_p99_s"`
	ResponseBuckets []int64 `json:"response_buckets,omitempty"`

	ExecCostUSD      float64 `json:"exec_cost_usd"`
	BuildCostUSD     float64 `json:"build_cost_usd"`
	StorageCostUSD   float64 `json:"storage_cost_usd"`
	NodeCostUSD      float64 `json:"node_cost_usd"`
	OperatingCostUSD float64 `json:"operating_cost_usd"`

	RevenueUSD float64 `json:"revenue_usd"`
	ProfitUSD  float64 `json:"profit_usd"`

	ResidentBytes int64   `json:"resident_bytes"`
	CreditUSD     float64 `json:"credit_usd"`

	// Tenants merges the per-shard tenant ledgers, sorted by tenant
	// name. Tenant-routed queries keep each tenant on one shard, but
	// untagged (template-routed) traffic lands a "" tenant on several
	// shards; the merge sums either way, so the section is deterministic
	// for a given engine state.
	Tenants []TenantStats `json:"tenants,omitempty"`

	PerShard []ShardStats `json:"per_shard"`
}

// StructureInfo is the live view of one resident structure.
type StructureInfo struct {
	Shard             int     `json:"shard"`
	ID                string  `json:"id"`
	Kind              string  `json:"kind"`
	Bytes             int64   `json:"bytes"`
	BuiltAtSec        float64 `json:"built_at_s"`
	LastUsedSec       float64 `json:"last_used_s"`
	Uses              int64   `json:"uses"`
	BuildPriceUSD     float64 `json:"build_price_usd"`
	AmortRemainingUSD float64 `json:"amort_remaining_usd"`
	UnpaidMaintUSD    float64 `json:"unpaid_maint_usd"`
	EarnedValueUSD    float64 `json:"earned_value_usd"`
}
