package economy

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/optimizer"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// TestTenantLedgerReconciliation is the e2e ledger-sum check promoted to
// a fast in-process property test: across random query streams and both
// providers, the tenant ledgers must reconcile exactly with the market's
// spend and recovery flows. The conservation laws under test:
//
//   - traffic: Σ tenant queries/declines == the economy's totals;
//   - payments: Σ tenant spend == Σ charged, Σ tenant profit == total;
//   - money: every dollar of credit is traceable —
//     altruistic: pool credit == seed + Σ(charged − exec) − invested;
//     selfish:    Σ credit == seeds + Σ profit + Σ recovered − invested
//     (recovery reimburses owners from collected amort + maintenance);
//   - sanity: no conservative account ever goes negative, mirrors carry
//     no credit under the altruistic provider.
func TestTenantLedgerReconciliation(t *testing.T) {
	tenants := []string{"", "alice", "bob", "carol", "dave", "erin"}
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4200 + int64(provider)))
			cat := catalog.TPCH(20)
			model, err := cost.NewModel(cat, pricing.EC22008(), cost.DefaultTunables())
			if err != nil {
				t.Fatal(err)
			}
			ca := cache.New(0)
			opt, err := optimizer.New(optimizer.Config{Model: model, AmortN: 5000, AllowIndexes: true, AllowNodes: true})
			if err != nil {
				t.Fatal(err)
			}
			initial := money.FromDollars(25)
			econ, err := New(Config{
				Model:              model,
				Cache:              ca,
				Optimizer:          opt,
				Criterion:          SelectCheapest,
				Provider:           provider,
				RegretFraction:     0.0002,
				AmortN:             5000,
				InitialCredit:      initial,
				Conservative:       true,
				MaintFailureFactor: DefaultMaintFailureFactor,
				NeverUsedFloor:     money.FromDollars(0.5),
				InvestBackoff:      2,
			})
			if err != nil {
				t.Fatal(err)
			}

			tpls := workload.PaperTemplates()
			for _, tpl := range tpls {
				if err := tpl.Validate(cat); err != nil {
					t.Fatal(err)
				}
			}

			var chargedTotal, execTotal, maintTotal money.Amount
			var queries, declined int64
			const n = 3000

			reconcile := func() {
				t.Helper()
				s := econ.Stats()
				ts := econ.TenantStats()

				var sumQ, sumDecl, sumInvestCount int64
				var sumSpend, sumProfit, sumCredit, sumInvested, sumRecovered money.Amount
				for _, l := range ts {
					sumQ += l.Queries
					sumDecl += l.Declined
					sumInvestCount += l.InvestCount
					sumSpend = sumSpend.Add(l.Spend)
					sumProfit = sumProfit.Add(l.Profit)
					sumCredit = sumCredit.Add(l.Credit)
					sumInvested = sumInvested.Add(l.Invested)
					sumRecovered = sumRecovered.Add(l.Recovered)
					if l.Credit.IsNegative() {
						t.Fatalf("tenant %q account negative: %v", l.Tenant, l.Credit)
					}
					if provider == ProviderAltruistic && (l.Credit != 0 || l.Invested != 0 || l.InvestCount != 0) {
						t.Fatalf("altruistic mirror %q carries account state: %+v", l.Tenant, l)
					}
					if l.Declined > l.Queries {
						t.Fatalf("tenant %q declined %d of %d", l.Tenant, l.Declined, l.Queries)
					}
				}
				if sumQ != queries {
					t.Fatalf("tenant ledgers account %d of %d queries", sumQ, queries)
				}
				if sumDecl != declined || s.DeclinedCount != declined {
					t.Fatalf("declines: tenants %d, stats %d, stream %d", sumDecl, s.DeclinedCount, declined)
				}
				if sumSpend != chargedTotal {
					t.Fatalf("tenant spend sums to %v, users were charged %v", sumSpend, chargedTotal)
				}
				if sumProfit != s.ProfitTotal {
					t.Fatalf("tenant profit sums to %v, stats says %v", sumProfit, s.ProfitTotal)
				}

				switch provider {
				case ProviderAltruistic:
					// One communal account: seed + margins − investments.
					want := initial.Add(chargedTotal).Sub(execTotal).Sub(s.Invested)
					if got := econ.Credit(); got != want {
						t.Fatalf("pool credit %v != seed %v + charged %v − exec %v − invested %v (= %v)",
							got, initial, chargedTotal, execTotal, s.Invested, want)
					}
				case ProviderSelfish:
					// Per-tenant accounts: every ledger opened with the
					// seed; profit stays with the payer, recovery flows to
					// owners, builds deduct from financiers.
					seeds := initial.MulInt(int64(len(ts)))
					want := seeds.Add(sumProfit).Add(sumRecovered).Sub(sumInvested)
					if got := econ.Credit(); got != want {
						t.Fatalf("Σ credit %v != seeds %v + profit %v + recovered %v − invested %v (= %v)",
							got, seeds, sumProfit, sumRecovered, sumInvested, want)
					}
					if sumInvested != s.Invested || sumRecovered != s.Recovered || sumInvestCount != s.InvestCount {
						t.Fatalf("tenant invest/recover sums (%v/%v/%d) != stats (%v/%v/%d)",
							sumInvested, sumRecovered, sumInvestCount, s.Invested, s.Recovered, s.InvestCount)
					}
					// Recovery reimburses owners for exactly the amortized
					// shares (inside Price, Eq. 4) plus the maintenance
					// arrears (priced alongside, footnote 3) of the chosen
					// plans; it can fall short only by the components of a
					// structure the same query's failure sweep evicted
					// after enumeration.
					if margin := chargedTotal.Sub(execTotal).Sub(sumProfit).Add(maintTotal); sumRecovered > margin {
						t.Fatalf("recovered %v exceeds collected amort+maint margin %v", sumRecovered, margin)
					}
				}
			}

			for i := 0; i < n; i++ {
				tpl := tpls[rng.Intn(len(tpls))]
				q := &workload.Query{
					ID:          int64(i + 1),
					Tenant:      tenants[rng.Intn(len(tenants))],
					Template:    tpl,
					Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
					Arrival:     ca.Clock() + time.Duration(1+rng.Intn(9_000))*time.Millisecond,
					Budget: budget.NewStep(
						money.FromDollars(rng.Float64()*0.02),
						time.Duration(1+rng.Intn(60))*time.Second),
				}
				ca.Advance(q.Arrival)
				ca.CompleteDue()
				plans, err := opt.Enumerate(q, ca)
				if err != nil {
					t.Fatal(err)
				}
				d, err := econ.HandleQuery(q, plans)
				if err != nil {
					t.Fatal(err)
				}
				queries++
				if d.Declined {
					declined++
				}
				if d.Chosen != nil {
					chargedTotal = chargedTotal.Add(d.Charged)
					execTotal = execTotal.Add(d.Chosen.ExecPrice)
					maintTotal = maintTotal.Add(d.Chosen.MaintPrice)
				}
				if i%97 == 0 {
					reconcile()
				}
			}
			reconcile()

			// The run must have exercised the interesting paths.
			s := econ.Stats()
			if s.InvestCount == 0 {
				t.Error("no investments in the random stream")
			}
			if declined == 0 {
				t.Error("no declines in the random stream (budgets too generous to exercise case A)")
			}
			if len(econ.TenantStats()) != len(tenants) {
				t.Errorf("%d tenant ledgers, want %d", len(econ.TenantStats()), len(tenants))
			}
		})
	}
}
