package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/economy"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// AblationRegretFraction sweeps the Eq. 3 fraction `a` for the econ-cheap
// scheme at the given interval: smaller `a` invests sooner (Abl. A in
// DESIGN.md).
func AblationRegretFraction(s Settings, fractions []float64, interval time.Duration) (*Table, []Cell, error) {
	s = s.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.001, 0.005, 0.02, 0.1, 0.5}
	}
	jobs := make([]cellJob, len(fractions))
	for i, a := range fractions {
		s2 := s
		s2.Params.RegretFraction = a
		jobs[i] = cellJob{settings: s2, scheme: "econ-cheap", interval: interval}
	}
	cells, err := runCellJobs(context.Background(), s, jobs)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("regret fraction a", "cost ($)", "response (s)", "investments")
	for i, cell := range cells {
		t.AddRow(
			fmt.Sprintf("%g", fractions[i]),
			fmt.Sprintf("%.2f", cell.Cost().Dollars()),
			fmt.Sprintf("%.2f", cell.MeanResponseSeconds()),
			fmt.Sprintf("%d", cell.Report.Investments),
		)
	}
	return t, cells, nil
}

// AblationBudgetShape sweeps the user budget shape (Fig. 1) for econ-cheap:
// convex users pay premiums only for fast answers, concave users hold their
// price until a hard deadline (Abl. B).
func AblationBudgetShape(s Settings, interval time.Duration) (*Table, []Cell, error) {
	s = s.withDefaults()
	base, ok := s.Budgets.(*workload.ScaledPolicy)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: budget-shape ablation needs a ScaledPolicy")
	}
	shapes := []workload.Shape{workload.ShapeStep, workload.ShapeLinear, workload.ShapeConvex, workload.ShapeConcave}
	jobs := make([]cellJob, len(shapes))
	for i, shape := range shapes {
		pol := *base
		pol.Shape = shape
		s2 := s
		s2.Budgets = &pol
		jobs[i] = cellJob{settings: s2, scheme: "econ-cheap", interval: interval}
	}
	cells, err := runCellJobs(context.Background(), s, jobs)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("budget shape", "cost ($)", "response (s)", "revenue ($)", "declined")
	for i, cell := range cells {
		t.AddRow(
			shapes[i].String(),
			fmt.Sprintf("%.2f", cell.Cost().Dollars()),
			fmt.Sprintf("%.2f", cell.MeanResponseSeconds()),
			fmt.Sprintf("%.2f", cell.Report.Revenue.Dollars()),
			fmt.Sprintf("%d", cell.Report.Declined),
		)
	}
	return t, cells, nil
}

// AblationNetworkThroughput sweeps the WAN throughput, which governs both
// back-end response times and structure build times (Abl. C).
func AblationNetworkThroughput(s Settings, mbps []float64, interval time.Duration) (*Table, []Cell, error) {
	s = s.withDefaults()
	if len(mbps) == 0 {
		mbps = []float64{5, 25, 100, 200}
	}
	jobs := make([]cellJob, len(mbps))
	for i, m := range mbps {
		sched := pricing.EC22008()
		sched.NetworkThroughput = m * 1e6 / 8
		s2 := s
		s2.Params.Schedule = sched
		s2.Accounting = sched
		jobs[i] = cellJob{settings: s2, scheme: "econ-cheap", interval: interval}
	}
	cells, err := runCellJobs(context.Background(), s, jobs)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("throughput (Mbps)", "cost ($)", "response (s)", "cache answered")
	for i, cell := range cells {
		t.AddRow(
			fmt.Sprintf("%g", mbps[i]),
			fmt.Sprintf("%.2f", cell.Cost().Dollars()),
			fmt.Sprintf("%.2f", cell.MeanResponseSeconds()),
			fmt.Sprintf("%d", cell.Report.CacheAnswered),
		)
	}
	return t, cells, nil
}

// AblationCacheFraction sweeps the bypass cache cap around the 30 % the
// paper cites as ideal for net-only [14] (Abl. D).
func AblationCacheFraction(s Settings, fractions []float64, interval time.Duration) (*Table, []Cell, error) {
	s = s.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{0.10, 0.20, 0.30, 0.45, 0.60}
	}
	jobs := make([]cellJob, len(fractions))
	for i, f := range fractions {
		s2 := s
		s2.Params.CacheFraction = f
		jobs[i] = cellJob{settings: s2, scheme: "bypass", interval: interval}
	}
	cells, err := runCellJobs(context.Background(), s, jobs)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("cache fraction", "cost ($)", "response (s)", "cache answered")
	for i, cell := range cells {
		t.AddRow(
			fmt.Sprintf("%.0f%%", fractions[i]*100),
			fmt.Sprintf("%.2f", cell.Cost().Dollars()),
			fmt.Sprintf("%.2f", cell.MeanResponseSeconds()),
			fmt.Sprintf("%d", cell.Report.CacheAnswered),
		)
	}
	return t, cells, nil
}

// AblationProvider measures the §IV altruistic-vs-selfish provider
// discussion as a figure: the same two-tenant skewed stream runs once
// against the pooled communal account and once against per-tenant
// ledgers. The run rows carry the Fig. 4/5 values; the tenant rows show
// how the selfish provider redistributes spend, credit and structure
// financing that the altruistic pool blends together.
func AblationProvider(s Settings, interval time.Duration) (*Table, []Cell, error) {
	s = s.withDefaults()
	if s.Tenants == 0 {
		s.Tenants = 2
	}
	if s.TenantTheta == 0 {
		s.TenantTheta = 1.1
	}
	providers := []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish}
	jobs := make([]cellJob, len(providers))
	for i, p := range providers {
		s2 := s
		s2.Params.Provider = p
		jobs[i] = cellJob{settings: s2, scheme: "econ-cheap", interval: interval}
	}
	cells, err := runCellJobs(context.Background(), s, jobs)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("provider", "tenant", "queries", "cost ($)", "response (s)",
		"investments", "spend ($)", "credit ($)", "structures charged")
	for i, cell := range cells {
		t.AddRow(
			providers[i].String(), "(run)",
			fmt.Sprintf("%d", cell.Report.Queries),
			fmt.Sprintf("%.2f", cell.Cost().Dollars()),
			fmt.Sprintf("%.2f", cell.MeanResponseSeconds()),
			fmt.Sprintf("%d", cell.Report.Investments),
			"", "", "",
		)
		for _, tr := range cell.Report.Tenants {
			t.AddRow(
				providers[i].String(), tr.Tenant,
				fmt.Sprintf("%d", tr.Queries),
				"",
				fmt.Sprintf("%.2f", tr.MeanResponseSeconds()),
				"",
				fmt.Sprintf("%.2f", tr.Spend.Dollars()),
				fmt.Sprintf("%.2f", tr.Credit.Dollars()),
				fmt.Sprintf("%d", tr.StructuresCharged),
			)
		}
	}
	return t, cells, nil
}

// AblationAmortization sweeps the Eq. 7 horizon n, the open problem the
// paper defers ("Selecting n is a challenging problem in itself", §IV-D).
func AblationAmortization(s Settings, horizons []int64, interval time.Duration) (*Table, []Cell, error) {
	s = s.withDefaults()
	if len(horizons) == 0 {
		horizons = []int64{1_000, 10_000, 100_000, 1_000_000}
	}
	jobs := make([]cellJob, len(horizons))
	for i, n := range horizons {
		s2 := s
		s2.Params.AmortN = n
		jobs[i] = cellJob{settings: s2, scheme: "econ-cheap", interval: interval}
	}
	cells, err := runCellJobs(context.Background(), s, jobs)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable("amortization n", "cost ($)", "response (s)", "cache answered")
	for i, cell := range cells {
		t.AddRow(
			fmt.Sprintf("%d", horizons[i]),
			fmt.Sprintf("%.2f", cell.Cost().Dollars()),
			fmt.Sprintf("%.2f", cell.MeanResponseSeconds()),
			fmt.Sprintf("%d", cell.Report.CacheAnswered),
		)
	}
	return t, cells, nil
}
