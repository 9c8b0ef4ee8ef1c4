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

// invariantRig drives a random-but-seeded query mix through a full economy
// and checks the accounting identities after every step. This is the
// economy's conservation law: every dollar in the account is traceable to
// the initial seed, collected margins, and investments.
type invariantRig struct {
	t       *testing.T
	model   *cost.Model
	cache   *cache.Cache
	opt     *optimizer.Optimizer
	econ    *Economy
	gen     *workload.Generator
	initial money.Amount

	chargedTotal money.Amount
	execTotal    money.Amount
}

func newInvariantRig(t *testing.T, seed int64, criterion Criterion) *invariantRig {
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
	initial := money.FromDollars(25)
	econ, err := New(Config{
		Model:                 model,
		Cache:                 ca,
		Optimizer:             opt,
		Criterion:             criterion,
		RegretFraction:        0.0002,
		AmortN:                5000,
		InitialCredit:         initial,
		Conservative:          true,
		UserAcceptsOverBudget: true,
		MaintFailureFactor:    DefaultMaintFailureFactor,
		NeverUsedFloor:        money.FromDollars(0.5),
		InvestBackoff:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(workload.Config{
		Catalog: cat,
		Seed:    seed,
		Arrival: workload.NewFixedArrival(2 * time.Second),
		Budgets: &workload.ScaledPolicy{
			Shape:        workload.ShapeStep,
			Base:         money.FromDollars(0.0001),
			PerGBScanned: money.FromDollars(0.005),
			PerGBResult:  money.FromDollars(0.2),
			TMax:         time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &invariantRig{
		t: t, model: model, cache: ca, opt: opt, econ: econ, gen: gen, initial: initial,
	}
}

// step handles one query and re-checks every invariant.
func (r *invariantRig) step() {
	t := r.t
	q := r.gen.Next()
	if q.Arrival > r.cache.Clock() {
		r.cache.Advance(q.Arrival)
	}
	r.cache.CompleteDue()
	plans, err := r.opt.Enumerate(q, r.cache)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.econ.HandleQuery(q, plans)
	if err != nil {
		t.Fatal(err)
	}

	if d.Chosen != nil {
		r.chargedTotal = r.chargedTotal.Add(d.Charged)
		r.execTotal = r.execTotal.Add(d.Chosen.ExecPrice)
		// A chosen plan must always be runnable and non-negative.
		if !d.Chosen.Runnable() {
			t.Fatal("chosen plan is not runnable")
		}
		if d.Charged.IsNegative() || d.Profit.IsNegative() {
			t.Fatalf("negative settlement: charged=%v profit=%v", d.Charged, d.Profit)
		}
		// The user never pays more than max(budget, price).
		price := d.Chosen.Price()
		budgetAt := q.Budget.At(d.Chosen.Time())
		max := price
		if budgetAt > max {
			max = budgetAt
		}
		if d.Charged > max {
			t.Fatalf("overcharge: %v > max(%v,%v)", d.Charged, price, budgetAt)
		}
	}

	// Conservation: credit == initial + Σ(charged − exec) − invested.
	s := r.econ.Stats()
	want := r.initial.Add(r.chargedTotal).Sub(r.execTotal).Sub(s.Invested)
	if got := r.econ.Credit(); got != want {
		t.Fatalf("credit %v != initial %v + charged %v - exec %v - invested %v (= %v)",
			got, r.initial, r.chargedTotal, r.execTotal, s.Invested, want)
	}

	// Cache residency accounting: resident bytes equals the sum of
	// entries' footprints.
	var sum int64
	r.cache.ForEach(func(e *cache.Entry) { sum += e.S.Bytes })
	if sum != r.cache.ResidentBytes() {
		t.Fatalf("resident bytes %d != entry sum %d", r.cache.ResidentBytes(), sum)
	}

	// Amortization never goes negative.
	r.cache.ForEach(func(e *cache.Entry) {
		if e.AmortRemaining.IsNegative() {
			t.Fatalf("%s over-amortized: %v", e.S.ID, e.AmortRemaining)
		}
		if e.EarnedValue.IsNegative() {
			t.Fatalf("%s negative earned value", e.S.ID)
		}
	})
}

func TestEconomyInvariantsCheapest(t *testing.T) {
	r := newInvariantRig(t, 21, SelectCheapest)
	for i := 0; i < 6000; i++ {
		r.step()
	}
	// The run must have done something interesting.
	s := r.econ.Stats()
	if s.InvestCount == 0 {
		t.Error("no investments in 6000 queries")
	}
}

func TestEconomyInvariantsFastest(t *testing.T) {
	r := newInvariantRig(t, 22, SelectFastest)
	for i := 0; i < 4000; i++ {
		r.step()
	}
}

func TestEconomyInvariantsMinProfit(t *testing.T) {
	r := newInvariantRig(t, 23, SelectMinProfit)
	for i := 0; i < 4000; i++ {
		r.step()
	}
}

// TestRegretLedgerNeverNegative fuzzes random budgets against one economy:
// regret entries must stay non-negative whatever the plan/budget geometry.
func TestRegretLedgerNeverNegative(t *testing.T) {
	r := newInvariantRig(t, 24, SelectCheapest)
	rng := rand.New(rand.NewSource(99))
	cat := r.model.Catalog()
	tpls := workload.PaperTemplates()
	for i := 0; i < 2000; i++ {
		tpl := tpls[rng.Intn(len(tpls))]
		if err := tpl.Validate(cat); err != nil {
			t.Fatal(err)
		}
		sel := tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin)
		price := money.FromDollars(rng.Float64() * 0.01)
		q := &workload.Query{
			ID: int64(i), Template: tpl, Selectivity: sel,
			Arrival: r.cache.Clock() + time.Second,
			Budget:  budget.NewStep(price, time.Duration(1+rng.Intn(60))*time.Second),
		}
		r.cache.Advance(q.Arrival)
		r.cache.CompleteDue()
		plans, err := r.opt.Enumerate(q, r.cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.econ.HandleQuery(q, plans); err != nil {
			t.Fatal(err)
		}
		// Spot-check ledger non-negativity on this query's structures.
		for _, p := range plans {
			for _, st := range p.Missing {
				if r.econ.Regret(st.ID).IsNegative() {
					t.Fatalf("negative regret for %s", st.ID)
				}
			}
		}
	}
}

// TestInvestmentsAlwaysAffordable pins the conservative-provider rule under
// stress: after any step, lifetime investments never exceed initial credit
// plus collected margins.
func TestInvestmentsAlwaysAffordable(t *testing.T) {
	r := newInvariantRig(t, 25, SelectCheapest)
	for i := 0; i < 5000; i++ {
		r.step()
		s := r.econ.Stats()
		ceiling := r.initial.Add(r.chargedTotal).Sub(r.execTotal)
		if s.Invested > ceiling {
			t.Fatalf("invested %v beyond affordable %v", s.Invested, ceiling)
		}
		if r.econ.Credit().IsNegative() {
			t.Fatalf("conservative provider went into debt: %v", r.econ.Credit())
		}
	}
}

// TestFailedStructuresLeaveNoResidue ensures eviction fully detaches a
// structure: not resident, not building, and re-investable later.
func TestFailedStructuresLeaveNoResidue(t *testing.T) {
	r := newInvariantRig(t, 26, SelectCheapest)
	seenFail := false
	for i := 0; i < 8000 && !seenFail; i++ {
		q := r.gen.Next()
		if q.Arrival > r.cache.Clock() {
			r.cache.Advance(q.Arrival)
		}
		r.cache.CompleteDue()
		plans, err := r.opt.Enumerate(q, r.cache)
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.econ.HandleQuery(q, plans)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range d.Failures {
			seenFail = true
			if r.cache.Has(id) {
				t.Fatalf("failed structure %s still resident", id)
			}
			if _, ok := r.cache.Get(id); ok {
				t.Fatalf("failed structure %s still fetchable", id)
			}
		}
	}
	if !seenFail {
		t.Skip("no failure occurred in this configuration; covered elsewhere")
	}
}
