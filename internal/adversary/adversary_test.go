package adversary

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/optimizer"
	"repro/internal/pricing"
	"repro/internal/workload"
)

// testRig is one economy under attack: the adversary stream merged with
// an honest multi-tenant Zipf background, settled query by query.
type testRig struct {
	econ *economy.Economy
	opt  *optimizer.Optimizer
	ca   *cache.Cache
	src  workload.Source
	adv  *Source
}

func newRig(t *testing.T, strat Strategy, provider economy.Provider, honest bool, seed int64) *testRig {
	t.Helper()
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
	econ, err := economy.New(economy.Config{
		Model:                 model,
		Cache:                 ca,
		Optimizer:             opt,
		Criterion:             economy.SelectCheapest,
		Provider:              provider,
		RegretFraction:        0.0002,
		AmortN:                5000,
		InitialCredit:         money.FromDollars(25),
		Conservative:          true,
		UserAcceptsOverBudget: true,
		MaintFailureFactor:    economy.DefaultMaintFailureFactor,
		NeverUsedFloor:        money.FromDollars(0.5),
		InvestBackoff:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{
		Catalog: cat,
		Seed:    seed,
		Tenants: 3,
		Arrival: workload.NewFixedArrival(8 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := New(Config{
		Strategy: strat,
		Catalog:  cat,
		Seed:     seed + 1,
		Honest:   honest,
		MeanGap:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{econ: econ, opt: opt, ca: ca, src: workload.NewMerge(gen, adv), adv: adv}
}

// step settles the next merged query and returns it with its decision.
func (r *testRig) step(t *testing.T) (*workload.Query, economy.Decision, economy.QuoteResult) {
	t.Helper()
	q := r.src.Next()
	r.ca.Advance(q.Arrival)
	r.ca.CompleteDue()
	plans, err := r.opt.Enumerate(q, r.ca)
	if err != nil {
		t.Fatal(err)
	}
	var truthQuote economy.QuoteResult
	if q.Truth != nil {
		truthQuote = r.econ.Quote(plans, q.Truth)
	}
	d, err := r.econ.HandleQuery(q, plans)
	if err != nil {
		t.Fatal(err)
	}
	return q, d, truthQuote
}

// TestAdversaryStreamsHoldInvariants is the deterministic long-stream
// property test behind the fuzzer: every strategy, under both providers,
// merged with honest background traffic, must leave the economy's
// conservation laws intact at every audit point — and the free-rider's
// underbids must never beat their own honest counterfactual on the same
// decision (the "no tenant profits from lying" theorem for step-budget
// underbidding).
func TestAdversaryStreamsHoldInvariants(t *testing.T) {
	const n = 2000
	for _, strat := range All() {
		for _, provider := range []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish} {
			t.Run(fmt.Sprintf("%s/%s", strat, provider), func(t *testing.T) {
				rig := newRig(t, strat, provider, false, 1234)
				advTenants := map[string]bool{}
				for _, name := range rig.adv.Tenants() {
					advTenants[name] = true
				}
				var advQueries int
				for i := 0; i < n; i++ {
					q, d, truth := rig.step(t)
					if advTenants[q.Tenant] {
						advQueries++
						if strat == FreeRider && q.Truth != nil {
							// Underbid dominance, per decision: on the very
							// same market state, honesty would have been
							// charged at least as much and profited the
							// provider at least as much. A lie that beats
							// this is an economy bug, not an adversary win.
							if d.Charged > truth.Charged {
								t.Fatalf("query %d: underbid charged %v, honest declaration would pay %v",
									q.ID, d.Charged, truth.Charged)
							}
							if d.Profit > truth.Profit {
								t.Fatalf("query %d: underbid yielded provider profit %v, honesty %v — lying must not look better to settle",
									q.ID, d.Profit, truth.Profit)
							}
						}
					}
					if i%151 == 0 {
						if err := rig.econ.CheckInvariants(); err != nil {
							t.Fatalf("after %d queries: %v", i+1, err)
						}
					}
				}
				if err := rig.econ.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if advQueries == 0 {
					t.Fatal("merged stream carried no adversary queries")
				}
				seen := 0
				for _, ts := range rig.econ.TenantStats() {
					if advTenants[ts.Tenant] {
						seen++
						if ts.Queries == 0 {
							t.Errorf("adversary ledger %q settled no queries", ts.Tenant)
						}
					}
				}
				if seen == 0 {
					t.Fatal("no adversary ledger opened")
				}
			})
		}
	}
}

// TestHonestTwinSharesIntentStream pins the head-to-head methodology:
// a strategy and its honest twin must request the same work — same
// templates, same selectivities, same tenants — so any outcome delta is
// attributable to the lie, not to a different workload.
func TestHonestTwinSharesIntentStream(t *testing.T) {
	cat := catalog.TPCH(20)
	for _, strat := range All() {
		t.Run(string(strat), func(t *testing.T) {
			mk := func(honest bool) *Source {
				s, err := New(Config{Strategy: strat, Catalog: cat, Seed: 42, Honest: honest})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			lying, twin := mk(false), mk(true)
			declarationDiffers := false
			for i := 0; i < 600; i++ {
				a, b := lying.Next(), twin.Next()
				if strat != ShardStorm {
					// The storm twin deliberately re-spreads templates.
					if a.Template.Name != b.Template.Name {
						t.Fatalf("query %d: adversary requests %s, twin %s", i, a.Template.Name, b.Template.Name)
					}
					if a.Selectivity != b.Selectivity {
						t.Fatalf("query %d: selectivity %v vs %v", i, a.Selectivity, b.Selectivity)
					}
				}
				if a.Tenant != b.Tenant {
					t.Fatalf("query %d: tenant %q vs %q", i, a.Tenant, b.Tenant)
				}
				if a.Truth == nil || b.Truth == nil {
					t.Fatalf("query %d: adversary streams must carry the truthful budget", i)
				}
				if fmt.Sprint(a.Budget) != fmt.Sprint(b.Budget) {
					declarationDiffers = true
				}
				if fmt.Sprint(b.Budget) != fmt.Sprint(b.Truth) {
					t.Fatalf("query %d: honest twin declares %v but its truth is %v", i, b.Budget, b.Truth)
				}
			}
			switch strat {
			case FreeRider, RegretInflater, ShapeBluffer:
				if !declarationDiffers {
					t.Error("declaration strategy never declared anything different from the truth")
				}
			}
		})
	}
}

// TestSourceDeterminism pins reproducibility: the same seed yields the
// same stream.
func TestSourceDeterminism(t *testing.T) {
	cat := catalog.TPCH(20)
	for _, strat := range All() {
		mk := func() []*workload.Query {
			s, err := New(Config{Strategy: strat, Catalog: cat, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return s.Batch(200, nil)
		}
		a, b := mk(), mk()
		for i := range a {
			if a[i].Template.Name != b[i].Template.Name || a[i].Arrival != b[i].Arrival ||
				a[i].Selectivity != b[i].Selectivity || a[i].Tenant != b[i].Tenant {
				t.Fatalf("%s: query %d differs across identical seeds", strat, i)
			}
		}
	}
}

// TestSourcesKeepTheirQueries pins the adversary side of the batch
// ownership rule (workload.Source.Batch): a consumer that hands its batch
// buffer back gets, from every strategy and its honest twin, the stream a
// fresh draw gets — and no query changes after it was emitted, because an
// adversary source never recycles what it finds in the buffer.
func TestSourcesKeepTheirQueries(t *testing.T) {
	cat := catalog.TPCH(20)
	for _, strat := range All() {
		for _, honest := range []bool{false, true} {
			mk := func() *Source {
				s, err := New(Config{Strategy: strat, Catalog: cat, Seed: 11, Honest: honest})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			fresh, recycling := mk(), mk()
			var emitted, buf []*workload.Query
			for len(emitted) < 400 {
				buf = recycling.Batch(29, buf[:0])
				emitted = append(emitted, buf...)
			}
			for i, q := range emitted {
				if want := fresh.Next(); !reflect.DeepEqual(*q, *want) {
					t.Fatalf("%s (honest=%v) query %d: %+v with a recycled buffer, %+v fresh", strat, honest, i, *q, *want)
				}
			}
		}
	}
}
