package economy

import (
	"bytes"
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

// FuzzEconomyAdversarial is the tenant-ledger property test turned loose:
// the fuzz input is decoded into an interleaved multi-tenant query stream
// with one designated liar ("mallory") who underbids her truthful step
// budget by a fuzzer-chosen fraction. Both providers settle the stream
// while the harness holds every law the economy must keep against a
// hostile tenant:
//
//   - credit conservation: every micro-dollar of account credit is
//     traceable to seeds, margins, recovery and investment;
//   - regret ledgers never go negative, never exceed their cap, and
//     live + dropped regret never exceeds what was accrued;
//   - journal/ledger reconciliation: the event stream's invest and
//     recover totals equal the ledger sums exactly;
//   - underbid dominance: on every decision, mallory's lie is charged no
//     more and yields the provider no more profit than the honest
//     declaration would have on the very same market state (the
//     counterfactual Quote) — "no tenant profits from lying", checked
//     per decision rather than per run so investment-history divergence
//     cannot blur the comparison.
//
// Violations of these laws found while building this fuzzer — the
// inverted-LRU ledger insertion, cap evictions losing regret, and the
// regret minted by round-half-away division in distribute — are pinned
// individually in adversarial_regression_test.go.
func FuzzEconomyAdversarial(f *testing.F) {
	// A round-robin of tenants and templates with rising budgets.
	rr := make([]byte, 0, 256)
	for i := 0; i < 64; i++ {
		rr = append(rr, byte(i), byte(i*3), byte(255-i*4), byte(i*4))
	}
	f.Add(rr)
	// Mallory-heavy: the liar dominates the stream, alternating steep
	// underbids with near-truthful bids on a hot template.
	mh := make([]byte, 0, 256)
	for i := 0; i < 64; i++ {
		mh = append(mh, 4, 2, byte(i*2), 200)
	}
	f.Add(mh)
	// Budget edge cases: zero budgets, max budgets, zero selectivity.
	f.Add(bytes.Repeat([]byte{4, 0, 0, 0}, 32))
	f.Add(bytes.Repeat([]byte{0, 5, 255, 255}, 32))

	// Shared read-only pricing state; everything mutable is rebuilt per
	// iteration.
	cat := catalog.TPCH(20)
	model, err := cost.NewModel(cat, pricing.EC22008(), cost.DefaultTunables())
	if err != nil {
		f.Fatal(err)
	}
	tpls := workload.PaperTemplates()
	for _, tpl := range tpls {
		if err := tpl.Validate(cat); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
			fuzzAdversarialStream(t, provider, cat, model, tpls, data)
		}
	})
}

// fuzzAdversarialStream decodes data into a query stream and settles it
// against a fresh economy, asserting the adversarial invariants.
func fuzzAdversarialStream(t *testing.T, provider Provider, cat *catalog.Catalog, model *cost.Model, tpls []*workload.Template, data []byte) {
	tenants := []string{"", "alice", "bob", "carol", "mallory"}
	const liar = "mallory"

	ca := cache.New(0)
	opt, err := optimizer.New(optimizer.Config{Model: model, AmortN: 5000, AllowIndexes: true, AllowNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	initial := money.FromDollars(25)
	econ, err := New(Config{
		Model:                 model,
		Cache:                 ca,
		Optimizer:             opt,
		Criterion:             SelectCheapest,
		Provider:              provider,
		RegretFraction:        0.0002,
		AmortN:                5000,
		InitialCredit:         initial,
		Conservative:          true,
		UserAcceptsOverBudget: true,
		MaintFailureFactor:    DefaultMaintFailureFactor,
		NeverUsedFloor:        money.FromDollars(0.5),
		InvestBackoff:         2,
		LedgerCap:             64, // small cap so fuzzed streams exercise eviction
	})
	if err != nil {
		t.Fatal(err)
	}

	var evInvested money.Amount
	econ.SetEvents(func(ev obs.Event) {
		if ev.Type == obs.EventInvest {
			evInvested = evInvested.Add(ev.Amount)
		}
	})

	var chargedTotal, execTotal, maintTotal money.Amount
	// Instrumented plan enumeration + settlement costs ~1 ms per query;
	// the cap keeps one fuzz exec well under a second so a 10 s CI run
	// still explores mutations.
	const maxQueries = 128
	n := len(data) / 4
	if n > maxQueries {
		n = maxQueries
	}
	for i := 0; i < n; i++ {
		c := data[4*i : 4*i+4]
		tenant := tenants[int(c[0])%len(tenants)]
		tpl := tpls[int(c[1])%len(tpls)]
		sel := tpl.SelMin + float64(c[2])/255*(tpl.SelMax-tpl.SelMin)
		truthPrice := money.FromDollars(float64(c[3]) / 255 * 0.02)
		tmax := time.Duration(1+int(c[0])%60) * time.Second
		gap := time.Duration(1+int(c[1])%97) * 100 * time.Millisecond

		q := &workload.Query{
			ID:          int64(i + 1),
			Tenant:      tenant,
			Template:    tpl,
			Selectivity: sel,
			Arrival:     ca.Clock() + gap,
		}
		truth := budget.NewStep(truthPrice, tmax)
		if tenant == liar {
			// The lie: a step of the same shape and deadline scaled down
			// to a fuzzer-chosen fraction of the truthful valuation.
			lie := truthPrice.MulFloat(float64(int(c[2])%16) / 16)
			q.Budget = budget.NewStep(lie, tmax)
			q.Truth = truth
		} else {
			q.Budget = truth
		}

		ca.Advance(q.Arrival)
		ca.CompleteDue()
		plans, err := opt.Enumerate(q, ca)
		if err != nil {
			t.Fatal(err)
		}
		var truthQuote QuoteResult
		if q.Truth != nil {
			truthQuote = econ.Quote(plans, q.Truth)
		}
		d, err := econ.HandleQuery(q, plans)
		if err != nil {
			t.Fatal(err)
		}
		if q.Truth != nil {
			if d.Charged > truthQuote.Charged {
				t.Fatalf("%v query %d: underbid charged %v, honest declaration would pay %v",
					provider, q.ID, d.Charged, truthQuote.Charged)
			}
			if d.Profit > truthQuote.Profit {
				t.Fatalf("%v query %d: underbid profit %v beats honest %v — tenant profited from lying",
					provider, q.ID, d.Profit, truthQuote.Profit)
			}
		}
		if d.Chosen != nil {
			chargedTotal = chargedTotal.Add(d.Charged)
			execTotal = execTotal.Add(d.Chosen.ExecPrice)
			maintTotal = maintTotal.Add(d.Chosen.MaintPrice)
		}
		if i%8 == 0 {
			if err := econ.CheckInvariants(); err != nil {
				t.Fatalf("%v after query %d: %v", provider, q.ID, err)
			}
		}
	}
	if err := econ.CheckInvariants(); err != nil {
		t.Fatalf("%v at end of stream: %v", provider, err)
	}

	// Credit conservation and exact journal/ledger reconciliation.
	s := econ.Stats()
	ts := econ.TenantStats()
	var sumProfit, sumCredit, sumInvested, sumRecovered money.Amount
	for _, l := range ts {
		sumProfit = sumProfit.Add(l.Profit)
		sumCredit = sumCredit.Add(l.Credit)
		sumInvested = sumInvested.Add(l.Invested)
		sumRecovered = sumRecovered.Add(l.Recovered)
	}
	switch provider {
	case ProviderAltruistic:
		want := initial.Add(chargedTotal).Sub(execTotal).Sub(s.Invested)
		if got := econ.Credit(); got != want {
			t.Fatalf("altruistic pool credit %v != seed %v + charged %v − exec %v − invested %v",
				got, initial, chargedTotal, execTotal, s.Invested)
		}
	case ProviderSelfish:
		seeds := initial.MulInt(int64(len(ts)))
		want := seeds.Add(sumProfit).Add(sumRecovered).Sub(sumInvested)
		if got := econ.Credit(); got != want {
			t.Fatalf("selfish Σ credit %v != seeds %v + profit %v + recovered %v − invested %v",
				got, seeds, sumProfit, sumRecovered, sumInvested)
		}
		if margin := chargedTotal.Sub(execTotal).Sub(sumProfit).Add(maintTotal); sumRecovered > margin {
			t.Fatalf("selfish recovered %v exceeds collected amort+maint margin %v", sumRecovered, margin)
		}
	}
	if evInvested != s.Invested {
		t.Fatalf("%v journal invest events total %v, ledgers say %v", provider, evInvested, s.Invested)
	}
	if (econ.Recoveries() == 0) != (s.Recovered == 0) {
		t.Fatalf("%v counted %d settlement recoveries, ledgers recovered %v", provider, econ.Recoveries(), s.Recovered)
	}
}
