// Package experiments reproduces the paper's evaluation (§VII): Figure 4
// (operating cost of the four caching schemes at 1/10/30/60 s inter-query
// intervals) and Figure 5 (average response time at the same points), plus
// the ablations listed in DESIGN.md.
//
// One simulation run per (scheme, interval) cell produces both figures:
// Fig. 4 reads the cost column, Fig. 5 the response column — exactly like
// the paper, where both figures describe the same runs.
package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"time"

	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SchemeNames in canonical paper order.
var SchemeNames = scheme.Names

// PaperIntervals are the inter-query intervals of Figures 4 and 5.
var PaperIntervals = []time.Duration{1 * time.Second, 10 * time.Second, 30 * time.Second, 60 * time.Second}

// Settings parameterise an experiment grid.
type Settings struct {
	// Catalog defaults to the paper's 2.5 TB TPC-H catalog.
	Catalog *catalog.Catalog
	// Queries per run. The paper simulates a million-query evolution;
	// the default keeps full-grid regeneration to a few minutes while
	// preserving every reported shape. Raise it for closer runs.
	Queries int
	// Seed for the workload stream.
	Seed int64
	// Intervals defaults to PaperIntervals.
	Intervals []time.Duration
	// Schemes defaults to SchemeNames.
	Schemes []string
	// Params is the base scheme calibration; zero fields default.
	Params scheme.Params
	// Budget policy; defaults to PaperBudgetPolicy().
	Budgets workload.BudgetPolicy
	// Theta is the Zipf skew (default 1.1); PhaseLength the evolution
	// phase (default 20k queries).
	Theta       float64
	PhaseLength int
	// Tenants spreads the stream across synthetic tenants with Zipf skew
	// TenantTheta (see workload.Config); 0 leaves the stream untagged,
	// the regime of the paper's figures.
	Tenants     int
	TenantTheta float64
	// Accounting is the true-dollar schedule (default EC22008).
	Accounting *pricing.Schedule
	// Workers bounds how many grid cells simulate concurrently. Each
	// cell owns its entire state (scheme, cache, economy, generator) and
	// seeds its workload from CellSeed, so results are byte-identical
	// for any worker count. Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// OnProgress, if set, receives a line per completed cell, always in
	// grid order regardless of Workers.
	OnProgress func(line string)
}

// PaperBudgetPolicy returns the §VII-A user model: step budgets sized a few
// times the typical back-end execution price, so most queries land in case
// B/C and the economy earns the credit it invests.
func PaperBudgetPolicy() workload.BudgetPolicy {
	return &workload.ScaledPolicy{
		Shape:        workload.ShapeStep,
		Base:         money.FromDollars(0.001),
		PerGBScanned: money.FromDollars(0.01),
		PerGBResult:  money.FromDollars(0.50),
		TMax:         120 * time.Second,
	}
}

// withDefaults normalizes settings.
func (s Settings) withDefaults() Settings {
	if s.Catalog == nil {
		s.Catalog = catalog.Paper()
	}
	if s.Queries == 0 {
		s.Queries = 100_000
	}
	if len(s.Intervals) == 0 {
		s.Intervals = PaperIntervals
	}
	if len(s.Schemes) == 0 {
		s.Schemes = SchemeNames
	}
	if s.Params.Catalog == nil {
		s.Params = paperParams(s.Catalog, s.Params)
	}
	if s.Budgets == nil {
		s.Budgets = PaperBudgetPolicy()
	}
	if s.Theta == 0 {
		s.Theta = 1.1
	}
	if s.PhaseLength == 0 {
		s.PhaseLength = 20_000
	}
	if s.Accounting == nil {
		s.Accounting = pricing.EC22008()
	}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	return s
}

// paperParams merges user overrides into the paper calibration.
func paperParams(cat *catalog.Catalog, over scheme.Params) scheme.Params {
	p := scheme.DefaultParams(cat)
	// Provider's zero value is the default (altruistic), so it always
	// copies through.
	p.Provider = over.Provider
	if over.RegretFraction != 0 {
		p.RegretFraction = over.RegretFraction
	}
	if over.AmortN != 0 {
		p.AmortN = over.AmortN
	}
	if over.InitialCredit != 0 {
		p.InitialCredit = over.InitialCredit
	}
	if over.CacheFraction != 0 {
		p.CacheFraction = over.CacheFraction
	}
	if over.LoadFactor != 0 {
		p.LoadFactor = over.LoadFactor
	}
	if over.MaintFailureFactor != 0 {
		p.MaintFailureFactor = over.MaintFailureFactor
	}
	if over.Schedule != nil {
		p.Schedule = over.Schedule
	}
	if over.Tunables != (p.Tunables) && over.Tunables.MaxNodes != 0 {
		p.Tunables = over.Tunables
	}
	return p
}

// Cell is one (scheme, interval) measurement.
type Cell struct {
	Scheme   string
	Interval time.Duration
	Report   *sim.Report
}

// Cost returns the Fig. 4 value.
func (c Cell) Cost() money.Amount { return c.Report.OperatingCost }

// MeanResponseSeconds returns the Fig. 5 value.
func (c Cell) MeanResponseSeconds() float64 { return c.Report.Response.Mean() }

// NewScheme constructs a scheme by its paper name.
func NewScheme(name string, p scheme.Params) (scheme.Scheme, error) {
	return scheme.New(name, p)
}

// CellSeed derives the workload seed of one (scheme, interval) cell from
// the base seed. Deriving per-cell seeds — rather than handing every cell
// the base seed raw — decorrelates the streams across the grid and, more
// importantly, makes each cell's stream a pure function of its coordinates,
// so dispatch order and worker count cannot influence results.
func CellSeed(base int64, schemeName string, interval time.Duration) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(schemeName))
	binary.LittleEndian.PutUint64(b[:], uint64(interval))
	h.Write(b[:])
	return int64(h.Sum64())
}

// cellConfig assembles the self-contained simulation of one cell. Settings
// must already have defaults applied.
func (s Settings) cellConfig(schemeName string, interval time.Duration) (sim.Config, error) {
	sch, err := NewScheme(schemeName, s.Params)
	if err != nil {
		return sim.Config{}, err
	}
	gen, err := workload.NewGenerator(workload.Config{
		Catalog:     s.Catalog,
		Seed:        CellSeed(s.Seed, schemeName, interval),
		Arrival:     workload.NewFixedArrival(interval),
		Budgets:     s.Budgets,
		Theta:       s.Theta,
		PhaseLength: s.PhaseLength,
		Tenants:     s.Tenants,
		TenantTheta: s.TenantTheta,
	})
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Scheme:     sch,
		Source:     gen,
		Queries:    s.Queries,
		Accounting: s.Accounting,
	}, nil
}

// RunCell executes one (scheme, interval) simulation.
func RunCell(s Settings, schemeName string, interval time.Duration) (Cell, error) {
	s = s.withDefaults()
	cfg, err := s.cellConfig(schemeName, interval)
	if err != nil {
		return Cell{}, err
	}
	rep, err := sim.Run(cfg)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Scheme: schemeName, Interval: interval, Report: rep}, nil
}

// cellJob names one simulation of a grid: the (possibly variant) settings
// plus the cell coordinates.
type cellJob struct {
	settings Settings
	scheme   string
	interval time.Duration
}

// runCellJobs executes the jobs on a bounded worker pool sized by
// base.Workers, handing them out longest first (dispatchOrder), and
// returns the cells in job order. Every job owns its whole simulation
// state, built lazily inside the worker that runs it so at most Workers
// cells are live at once; results match a sequential run exactly.
// Progress lines are buffered and released in job order, keeping the full
// observable output byte-identical for any worker count.
func runCellJobs(ctx context.Context, base Settings, jobs []cellJob) ([]Cell, error) {
	mkCell := func(i int, rep *sim.Report) Cell {
		return Cell{Scheme: jobs[i].scheme, Interval: jobs[i].interval, Report: rep}
	}
	order := dispatchOrder(jobs)
	pool := sim.Pool{Workers: base.Workers}
	if base.OnProgress != nil {
		// Cells complete in any order; emit their lines in grid order.
		done := make([]*sim.Report, len(jobs))
		next := 0
		pool.OnDone = func(k int, rep *sim.Report) {
			done[order[k]] = rep
			for next < len(jobs) && done[next] != nil {
				c := mkCell(next, done[next])
				base.OnProgress(fmt.Sprintf("%-10s interval=%-4s cost=%-12s resp=%.2fs",
					c.Scheme, c.Interval, c.Cost(), c.MeanResponseSeconds()))
				next++
			}
		}
	}

	reports, err := sim.RunParallelFunc(ctx, len(jobs), func(k int) (sim.Config, error) {
		j := &jobs[order[k]]
		return j.settings.cellConfig(j.scheme, j.interval)
	}, pool)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(jobs))
	for k, rep := range reports {
		cells[order[k]] = mkCell(order[k], rep)
	}
	return cells, nil
}

// dispatchOrder lists the job indices longest first: scheme-major in
// reverse paper order — econ-fast, econ-cheap, econ-col, then bypass, the
// order of how many plans each scheme prices per query — and in job order
// within a scheme. A bounded pool handed its longest cells first does not
// end on one long cell running alone.
func dispatchOrder(jobs []cellJob) []int {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return slices.Index(SchemeNames, jobs[b].scheme) - slices.Index(SchemeNames, jobs[a].scheme)
	})
	return order
}

// RunGrid executes the full scheme × interval grid that backs Figures 4
// and 5.
func RunGrid(s Settings) ([]Cell, error) {
	return RunGridContext(context.Background(), s)
}

// RunGridContext is RunGrid with first-error cancellation: ctx cancellation
// or the first failing cell stops the remaining cells.
func RunGridContext(ctx context.Context, s Settings) ([]Cell, error) {
	s = s.withDefaults()
	jobs := make([]cellJob, 0, len(s.Intervals)*len(s.Schemes))
	for _, interval := range s.Intervals {
		for _, name := range s.Schemes {
			jobs = append(jobs, cellJob{settings: s, scheme: name, interval: interval})
		}
	}
	return runCellJobs(ctx, s, jobs)
}

// Fig4Table renders the operating-cost table of Figure 4: one row per
// inter-query interval, one column per scheme.
func Fig4Table(cells []Cell) *Table {
	return pivot(cells, "cost ($)", func(c Cell) string {
		return fmt.Sprintf("%.2f", c.Cost().Dollars())
	})
}

// Fig5Table renders the average-response-time table of Figure 5.
func Fig5Table(cells []Cell) *Table {
	return pivot(cells, "response (s)", func(c Cell) string {
		return fmt.Sprintf("%.2f", c.MeanResponseSeconds())
	})
}

// pivot arranges cells into interval rows × scheme columns.
func pivot(cells []Cell, label string, value func(Cell) string) *Table {
	// Collect orders.
	var intervals []time.Duration
	var schemes []string
	seenI := map[time.Duration]bool{}
	seenS := map[string]bool{}
	for _, c := range cells {
		if !seenI[c.Interval] {
			seenI[c.Interval] = true
			intervals = append(intervals, c.Interval)
		}
		if !seenS[c.Scheme] {
			seenS[c.Scheme] = true
			schemes = append(schemes, c.Scheme)
		}
	}
	header := []string{"interval \\ " + label}
	header = append(header, schemes...)
	t := NewTable(header...)
	for _, iv := range intervals {
		row := []string{fmt.Sprintf("%ds", int(iv.Seconds()))}
		for _, sn := range schemes {
			cellVal := ""
			for _, c := range cells {
				if c.Interval == iv && c.Scheme == sn {
					cellVal = value(c)
					break
				}
			}
			row = append(row, cellVal)
		}
		t.AddRow(row...)
	}
	return t
}
