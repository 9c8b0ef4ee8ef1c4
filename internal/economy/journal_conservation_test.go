package economy

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// TestJournalEventConservation: with an obs.Journal installed as the
// economy's event sink, the journal's exact totals must reconcile with
// the ledger totals for both providers — every invested and evicted
// dollar appears in exactly one event. Settlements are counted, not
// journaled: the journal carries no recover totals, and Stats' recovered
// dollars are Σ Ledger.Recovered over the accounts that finance builds
// (the pool when altruistic, whose tenants recover nothing). The journal rings are deliberately tiny so rotation is
// exercised: retention is bounded, the running totals are not.
func TestJournalEventConservation(t *testing.T) {
	const ringCap = 8
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7700 + int64(provider)))
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
			econ, err := New(Config{
				Model:              model,
				Cache:              ca,
				Optimizer:          opt,
				Criterion:          SelectCheapest,
				Provider:           provider,
				RegretFraction:     0.0002,
				AmortN:             5000,
				InitialCredit:      money.FromDollars(25),
				Conservative:       true,
				MaintFailureFactor: DefaultMaintFailureFactor,
				NeverUsedFloor:     money.FromDollars(0.5),
				InvestBackoff:      2,
			})
			if err != nil {
				t.Fatal(err)
			}

			var seq atomic.Int64
			journal := obs.NewJournal(3, ringCap, &seq)
			var raw []obs.Event
			econ.SetEvents(func(e obs.Event) {
				journal.Emit(e)
				raw = append(raw, e)
			})

			tenants := []string{"", "alice", "bob", "carol"}
			tpls := workload.PaperTemplates()
			const n = 1500
			for i := 0; i < n; i++ {
				tpl := tpls[rng.Intn(len(tpls))]
				gap := time.Duration(1+rng.Intn(9_000)) * time.Millisecond
				if rng.Intn(50) == 0 {
					// An idle stretch long enough for rent to outweigh
					// value, so failures fire at the shipped factor.
					gap = time.Duration(1+rng.Intn(6)) * time.Hour
				}
				q := &workload.Query{
					ID:          int64(i + 1),
					Tenant:      tenants[rng.Intn(len(tenants))],
					Template:    tpl,
					Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
					Arrival:     ca.Clock() + gap,
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
				if _, err := econ.HandleQuery(q, plans); err != nil {
					t.Fatal(err)
				}
			}

			s := econ.Stats()
			tot := journal.Totals()

			// Dollar conservation: the journal's lifetime sums equal the
			// ledgers', exactly, in micro-dollars.
			if tot.Invested != s.Invested {
				t.Errorf("journal invested %v, ledgers say %v", tot.Invested, s.Invested)
			}
			recovers := econ.Recoveries()
			var sumRecovered money.Amount
			for _, l := range ledgersOf(econ) {
				sumRecovered = sumRecovered.Add(l.Recovered)
			}
			if sumRecovered != s.Recovered || !s.Recovered.IsPositive() {
				t.Errorf("Σ Ledger.Recovered %v, Stats %v", sumRecovered, s.Recovered)
			}
			if tot.Recovers != 0 || tot.Recovered != 0 {
				t.Errorf("journal holds recover totals %d / %v; settlements are not events", tot.Recovers, tot.Recovered)
			}
			// Every maintenance-failure eviction is journaled.
			if tot.Evicts != s.FailureCount {
				t.Errorf("journal evicts %d, economy failed %d structures", tot.Evicts, s.FailureCount)
			}
			// Prerequisite column builds emit their own invest events but
			// count as part of the index's single investment, so events can
			// only outnumber InvestCount.
			if tot.Invests < s.InvestCount {
				t.Errorf("journal invests %d < economy invest count %d", tot.Invests, s.InvestCount)
			}
			if s.InvestCount == 0 || s.FailureCount == 0 || recovers == 0 {
				t.Fatalf("stream too tame to test conservation: invests %d, evicts %d, recovers %d",
					s.InvestCount, s.FailureCount, recovers)
			}

			// The raw stream agrees with the journal's totals: Emit dropped
			// nothing and double-counted nothing.
			var rawTot obs.Totals
			perTenantInvest := map[string]money.Amount{}
			for _, e := range raw {
				switch e.Type {
				case obs.EventInvest:
					rawTot.Invests++
					rawTot.Invested = rawTot.Invested.Add(e.Amount)
					perTenantInvest[e.Tenant] = perTenantInvest[e.Tenant].Add(e.Amount)
				case obs.EventEvict:
					rawTot.Evicts++
					rawTot.Evicted = rawTot.Evicted.Add(e.Amount)
				default:
					t.Fatalf("unknown event type %q", e.Type)
				}
			}
			if rawTot != tot {
				t.Errorf("raw stream totals %+v != journal totals %+v", rawTot, tot)
			}

			// Under the selfish provider every event names its account, and
			// the per-tenant event sums match the per-tenant ledgers.
			if provider == ProviderSelfish {
				for _, l := range econ.TenantStats() {
					if got := perTenantInvest[l.Tenant]; got != l.Invested {
						t.Errorf("tenant %q: invest events sum to %v, ledger invested %v", l.Tenant, got, l.Invested)
					}
				}
			}

			// Retention is bounded per type; sequence numbers are unique,
			// increasing, and stamped with the journal's shard.
			for _, typ := range []string{obs.EventInvest, obs.EventEvict} {
				events := journal.Snapshot(typ, "")
				if len(events) > ringCap {
					t.Errorf("%s ring retains %d events, cap %d", typ, len(events), ringCap)
				}
				var last int64
				for _, e := range events {
					if e.Seq <= last {
						t.Errorf("%s events out of order: seq %d after %d", typ, e.Seq, last)
					}
					last = e.Seq
					if e.Shard != 3 {
						t.Errorf("event carries shard %d, journal owns shard 3", e.Shard)
					}
					if e.AmountUSD != e.Amount.Dollars() {
						t.Errorf("event USD view %v diverges from exact amount %v", e.AmountUSD, e.Amount)
					}
				}
			}
		})
	}
}
