package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AdversaryComparison measures how much each hostile strategy actually
// pays: every strategy runs head-to-head against its honest twin — the
// same intent stream with truthful declarations and undistorted timing —
// merged into the same honest Zipf background, under both providers. The
// "lying gain" column is the exploitability headline: how many dollars
// the adversary kept by lying (honest-twin spend minus lying spend),
// next to what the lie did to the service it received and to the
// provider's investment behavior. A strategy only "beats" a provider
// policy if its gain is positive without a matching service collapse.
func AdversaryComparison(s Settings, strategies []adversary.Strategy, interval time.Duration) (*Table, error) {
	s = s.withDefaults()
	if len(strategies) == 0 {
		strategies = adversary.All()
	}
	providers := []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish}

	type variant struct {
		strategy adversary.Strategy
		provider economy.Provider
		honest   bool
	}
	var variants []variant
	for _, strat := range strategies {
		for _, p := range providers {
			variants = append(variants, variant{strat, p, false}, variant{strat, p, true})
		}
	}

	// advNames is keyed per variant so each result knows which ledgers
	// belong to the adversary. The sources are built inside the worker
	// that runs the cell; only the name list is needed up front.
	mkConfig := func(i int) (sim.Config, error) {
		v := variants[i]
		params := s.Params
		params.Provider = v.provider
		sch, err := NewScheme("econ-cheap", params)
		if err != nil {
			return sim.Config{}, err
		}
		seed := CellSeed(s.Seed, string(v.strategy), interval)
		gen, err := workload.NewGenerator(workload.Config{
			Catalog:     s.Catalog,
			Seed:        seed,
			Arrival:     workload.NewFixedArrival(interval),
			Budgets:     s.Budgets,
			Theta:       s.Theta,
			PhaseLength: s.PhaseLength,
			Tenants:     2,
			TenantTheta: 1.1,
		})
		if err != nil {
			return sim.Config{}, err
		}
		adv, err := adversary.New(adversary.Config{
			Strategy: v.strategy,
			Catalog:  s.Catalog,
			Seed:     seed + 1,
			Honest:   v.honest,
			MeanGap:  3 * interval, // the adversary is ~1/4 of the merged stream
		})
		if err != nil {
			return sim.Config{}, err
		}
		return sim.Config{
			Scheme:     sch,
			Source:     workload.NewMerge(gen, adv),
			Queries:    s.Queries,
			Accounting: s.Accounting,
		}, nil
	}

	reports, err := sim.RunParallelFunc(context.Background(), len(variants), mkConfig, sim.Pool{Workers: s.Workers})
	if err != nil {
		return nil, err
	}

	// Aggregate the adversary's ledgers out of each report.
	type outcome struct {
		queries  int64
		declined int64
		spend    money.Amount
		credit   money.Amount
		respSum  time.Duration
		invests  int64
		cost     money.Amount
	}
	sum := func(v variant, rep *sim.Report) outcome {
		names := map[string]bool{}
		probe, err := adversary.New(adversary.Config{Strategy: v.strategy, Catalog: s.Catalog})
		if err == nil {
			for _, n := range probe.Tenants() {
				names[n] = true
			}
		}
		var o outcome
		o.invests = rep.Investments
		o.cost = rep.OperatingCost
		for _, tr := range rep.Tenants {
			if !names[tr.Tenant] {
				continue
			}
			o.queries += tr.Queries
			o.declined += tr.Declined
			o.spend = o.spend.Add(tr.Spend)
			o.credit = o.credit.Add(tr.Credit)
			o.respSum += tr.ResponseSum
		}
		return o
	}
	meanResp := func(o outcome) float64 {
		if n := o.queries - o.declined; n > 0 {
			return o.respSum.Seconds() / float64(n)
		}
		return 0
	}

	t := NewTable("strategy", "provider", "lying spend ($)", "honest spend ($)",
		"lying gain ($)", "lying resp (s)", "honest resp (s)", "invests lie/honest", "run cost Δ ($)")
	for i := 0; i < len(variants); i += 2 {
		lie, twin := variants[i], variants[i+1]
		lo, ho := sum(lie, reports[i]), sum(twin, reports[i+1])
		gain := ho.spend.Sub(lo.spend)
		t.AddRow(
			lie.strategy.String(),
			lie.provider.String(),
			fmt.Sprintf("%.4f", lo.spend.Dollars()),
			fmt.Sprintf("%.4f", ho.spend.Dollars()),
			fmt.Sprintf("%+.4f", gain.Dollars()),
			fmt.Sprintf("%.2f", meanResp(lo)),
			fmt.Sprintf("%.2f", meanResp(ho)),
			fmt.Sprintf("%d/%d", lo.invests, ho.invests),
			fmt.Sprintf("%+.4f", reports[i].OperatingCost.Sub(reports[i+1].OperatingCost).Dollars()),
		)
	}
	return t, nil
}
