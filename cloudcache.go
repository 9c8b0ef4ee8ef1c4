// Package cloudcache reproduces "An economic model for self-tuned cloud
// caching" (Dash, Kantere, Ailamaki — ICDE 2009): a cloud cache for large
// scientific databases whose caching decisions are driven by an economy.
//
// Users attach a descending budget function B_Q(t) to each query; the cloud
// enumerates candidate plans (back-end execution, cache column scans, index
// probes, parallel variants), prices them with an all-resource cost model
// (CPU, disk I/O, disk rent, network), picks a plan within the budget,
// accumulates regret for the plans it could not run because a structure was
// missing, and invests in building columns, indexes and CPU nodes when
// regret crosses a fraction of its account. Build costs amortize over
// future queries; structures whose rent outweighs their measured value are
// evicted.
//
// The package is a facade over the internal implementation:
//
//   - NewBypass / NewEconCol / NewEconCheap / NewEconFast construct the four
//     caching schemes evaluated in the paper's §VII.
//   - NewWorkload builds the TPC-H/SDSS-like query stream generator.
//   - Run drives a scheme over a stream and reports operating cost and
//     response times (Figures 4 and 5 read directly off the Report).
//   - ReproduceFigures regenerates the paper's figures end to end.
//
// See examples/ for runnable walkthroughs and EXPERIMENTS.md for the
// paper-versus-measured record.
package cloudcache

import (
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Core re-exported types. Aliases keep the public API thin while the
// implementation lives in internal packages.
type (
	// Amount is a fixed-point monetary value (micro-dollars).
	Amount = money.Amount
	// Catalog is the relational schema of the back-end database.
	Catalog = catalog.Catalog
	// Schedule is a resource price list plus physical WAN parameters.
	Schedule = pricing.Schedule
	// BudgetFunc is a user budget function B_Q(t) (§IV-C, Fig. 1).
	BudgetFunc = budget.Func
	// Query is one request in the stream.
	Query = workload.Query
	// Template is a parameterised query shape.
	Template = workload.Template
	// Generator produces a deterministic query stream.
	Generator = workload.Generator
	// WorkloadConfig parameterises a Generator.
	WorkloadConfig = workload.Config
	// Scheme is a caching policy (bypass, econ-col, econ-cheap, econ-fast).
	Scheme = scheme.Scheme
	// SchemeParams are the tuning knobs shared by the scheme constructors.
	SchemeParams = scheme.Params
	// Report is the outcome of one simulation run.
	Report = sim.Report
	// Table is a rendered result table.
	Table = experiments.Table
	// Cell is one (scheme, interval) measurement of the figure grid.
	Cell = experiments.Cell
	// Settings parameterise figure reproduction.
	Settings = experiments.Settings
	// Location says where a plan executed.
	Location = plan.Location
)

// LocationCache marks in-cache execution.
const LocationCache = plan.Cache

// Dollars converts a float dollar value into an Amount.
func Dollars(d float64) Amount { return money.FromDollars(d) }

// TPCH returns the TPC-H catalog at the given scale factor.
func TPCH(sf float64) *Catalog { return catalog.TPCH(sf) }

// PaperCatalog returns the paper's 2.5 TB back-end catalog (§VII-A).
func PaperCatalog() *Catalog { return catalog.Paper() }

// EC2Pricing returns the Amazon EC2/S3 2008 price schedule the paper
// imports, including its calibration factors (fcpu=0.014, 25 Mbps WAN).
func EC2Pricing() *Schedule { return pricing.EC22008() }

// NetOnlyPricing returns the bypass baseline's schedule: network bandwidth
// is the only priced resource.
func NetOnlyPricing() *Schedule { return pricing.NetOnly() }

// PaperTemplates returns the seven TPC-H query templates of §VII-A.
func PaperTemplates() []*Template { return workload.PaperTemplates() }

// DefaultParams returns the scheme calibration used for the paper figures.
func DefaultParams(cat *Catalog) SchemeParams { return scheme.DefaultParams(cat) }

// NewBypass constructs the bypass-yield baseline [14]: a 30 %-of-database
// cache that loads columns by byte-yield break-even and prices only the
// network.
func NewBypass(p SchemeParams) (Scheme, error) { return scheme.NewBypass(p) }

// NewEconCol constructs the economy restricted to column structures with
// cheapest-plan selection.
func NewEconCol(p SchemeParams) (Scheme, error) { return scheme.NewEconCol(p) }

// NewEconCheap constructs the full economy (columns + indexes + CPU nodes)
// with cheapest-plan selection.
func NewEconCheap(p SchemeParams) (Scheme, error) { return scheme.NewEconCheap(p) }

// NewEconFast constructs the full economy with fastest-affordable-plan
// selection.
func NewEconFast(p SchemeParams) (Scheme, error) { return scheme.NewEconFast(p) }

// NewScheme constructs a scheme by its paper name: "bypass", "econ-col",
// "econ-cheap" or "econ-fast".
func NewScheme(name string, p SchemeParams) (Scheme, error) {
	return experiments.NewScheme(name, p)
}

// SchemeNames lists the four schemes in canonical paper order.
func SchemeNames() []string {
	out := make([]string, len(experiments.SchemeNames))
	copy(out, experiments.SchemeNames)
	return out
}

// NewWorkload builds a deterministic query-stream generator.
func NewWorkload(cfg WorkloadConfig) (*Generator, error) {
	return workload.NewGenerator(cfg)
}

// FixedArrival returns an arrival process with a constant gap, the regime
// of the paper's figures (1/10/30/60 s).
func FixedArrival(gap time.Duration) workload.ArrivalProcess {
	return workload.NewFixedArrival(gap)
}

// StepBudget returns the §VII-A user preference: pay `price` for completion
// within tmax and nothing later.
func StepBudget(price Amount, tmax time.Duration) BudgetFunc {
	return budget.NewStep(price, tmax)
}

// LinearBudget, ConvexBudget and ConcaveBudget return the other Fig. 1
// budget shapes.
func LinearBudget(price Amount, tmax time.Duration) BudgetFunc {
	return budget.NewLinear(price, tmax)
}

// ConvexBudget returns an impatient user's budget (Fig. 1b).
func ConvexBudget(price Amount, tmax time.Duration) BudgetFunc {
	return budget.NewConvex(price, tmax, 2)
}

// ConcaveBudget returns a deadline user's budget (Fig. 1c).
func ConcaveBudget(price Amount, tmax time.Duration) BudgetFunc {
	return budget.NewConcave(price, tmax, 2)
}

// PaperBudgets returns the budget policy of the paper-figure experiments:
// step budgets sized a few times the typical back-end price.
func PaperBudgets() workload.BudgetPolicy { return experiments.PaperBudgetPolicy() }

// SimConfig parameterises Run.
type SimConfig struct {
	// Scheme under test. Required.
	Scheme Scheme
	// Workload generator. Required.
	Workload *Generator
	// Queries is the stream length. Required.
	Queries int
	// Accounting prices the true expenditure (default: EC2Pricing).
	Accounting *Schedule
}

// Run drives the scheme over the stream and reports cost and response
// statistics. Figure 4 is Report.OperatingCost; Figure 5 is
// Report.Response.Mean().
func Run(cfg SimConfig) (*Report, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("cloudcache: Workload is required")
	}
	return sim.Run(sim.Config{
		Scheme:     cfg.Scheme,
		Source:     cfg.Workload,
		Queries:    cfg.Queries,
		Accounting: cfg.Accounting,
	})
}

// ReproduceFigures runs the full scheme × interval grid behind Figures 4
// and 5 and returns the cells plus both rendered tables.
func ReproduceFigures(s Settings) (cells []Cell, fig4, fig5 *Table, err error) {
	cells, err = experiments.RunGrid(s)
	if err != nil {
		return nil, nil, nil, err
	}
	return cells, experiments.Fig4Table(cells), experiments.Fig5Table(cells), nil
}

// PaperIntervals returns the inter-query intervals of Figures 4 and 5.
func PaperIntervals() []time.Duration {
	out := make([]time.Duration, len(experiments.PaperIntervals))
	copy(out, experiments.PaperIntervals)
	return out
}
