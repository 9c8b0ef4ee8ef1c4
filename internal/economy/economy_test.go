package economy

import (
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/structure"
	"repro/internal/workload"
)

// rig bundles a full economy test fixture.
type rig struct {
	model *cost.Model
	cache *cache.Cache
	opt   *optimizer.Optimizer
	econ  *Economy
}

func newRig(t *testing.T, mut func(*Config)) *rig {
	t.Helper()
	m, err := cost.NewModel(catalog.TPCH(10), pricing.EC22008(), cost.DefaultTunables())
	if err != nil {
		t.Fatal(err)
	}
	ca := cache.New(0)
	opt, err := optimizer.New(optimizer.Config{Model: m, AmortN: 1000, AllowIndexes: true, AllowNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:                 m,
		Cache:                 ca,
		Optimizer:             opt,
		Criterion:             SelectCheapest,
		RegretFraction:        0.1,
		AmortN:                1000,
		InitialCredit:         money.FromDollars(100),
		Conservative:          true,
		UserAcceptsOverBudget: true,
		MaintFailureFactor:    DefaultMaintFailureFactor,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{model: m, cache: ca, opt: opt, econ: e}
}

// query builds a Q6 query with the given budget.
func (r *rig) query(t *testing.T, sel float64, b budget.Func) *workload.Query {
	t.Helper()
	tpl := workload.PaperTemplates()[3]
	return &workload.Query{ID: 1, Template: tpl, Selectivity: sel, Budget: b}
}

func (r *rig) handle(t *testing.T, q *workload.Query) Decision {
	t.Helper()
	plans, err := r.opt.Enumerate(q, r.cache)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.econ.HandleQuery(q, plans)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	m, _ := cost.NewModel(catalog.TPCH(1), pricing.EC22008(), cost.DefaultTunables())
	ca := cache.New(0)
	opt, _ := optimizer.New(optimizer.Config{Model: m, AmortN: 10})
	ok := Config{Model: m, Cache: ca, Optimizer: opt, RegretFraction: 0.5, AmortN: 10}
	cases := []func(*Config){
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.Cache = nil },
		func(c *Config) { c.Optimizer = nil },
		func(c *Config) { c.RegretFraction = 0 },
		func(c *Config) { c.RegretFraction = 1 },
		func(c *Config) { c.AmortN = 0 },
		func(c *Config) { c.MaintFailureFactor = -1 },
		func(c *Config) { c.LedgerCap = -1 },
	}
	for i, mut := range cases {
		bad := ok
		mut(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := New(ok); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestCaseBGenerousBudget(t *testing.T) {
	r := newRig(t, nil)
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	d := r.handle(t, q)
	if d.Case != CaseB {
		t.Errorf("case = %v, want B", d.Case)
	}
	if d.Chosen == nil || d.Declined {
		t.Fatal("generous budget must yield a chosen plan")
	}
	// Cold cache: the chosen plan must be the backend plan.
	if d.Chosen.Location != plan.Backend {
		t.Errorf("cold cache chose %v", d.Chosen)
	}
	// Profit = budget - price, credited.
	if !d.Profit.IsPositive() {
		t.Error("case B with a fat budget must profit")
	}
	// Credit = initial + charged - exec cost - whatever was invested
	// during the same handling step.
	wantCredit := money.FromDollars(100).
		Add(d.Charged.Sub(d.Chosen.ExecPrice)).
		Sub(r.econ.Stats().Invested)
	if got := r.econ.Credit(); got != wantCredit {
		t.Errorf("credit = %v, want %v", got, wantCredit)
	}
}

func TestCaseAZeroBudget(t *testing.T) {
	r := newRig(t, nil)
	q := r.query(t, 5e-4, budget.Zero{TMax: time.Hour})
	d := r.handle(t, q)
	if d.Case != CaseA {
		t.Errorf("case = %v, want A", d.Case)
	}
	// User accepts the cheapest runnable plan (§VII-A).
	if d.Chosen == nil {
		t.Fatal("accepting user must get a plan")
	}
	if d.Profit.IsPositive() {
		t.Error("case A cannot profit")
	}
	if d.Charged != d.Chosen.Price() {
		t.Errorf("case A charge = %v, want plan price %v", d.Charged, d.Chosen.Price())
	}
}

func TestCaseADeclinedWhenUserWalks(t *testing.T) {
	r := newRig(t, func(c *Config) { c.UserAcceptsOverBudget = false })
	q := r.query(t, 5e-4, budget.Zero{TMax: time.Hour})
	d := r.handle(t, q)
	if !d.Declined || d.Chosen != nil {
		t.Error("user should have walked")
	}
	if d.Charged != 0 || d.Profit != 0 {
		t.Error("declined query must not charge")
	}
	if r.econ.Stats().DeclinedCount != 1 {
		t.Error("declined counter wrong")
	}
}

func TestCaseCPartialBudget(t *testing.T) {
	r := newRig(t, nil)
	// Budget above the cheap cache plans but below the backend price:
	// enumerate cold plans to find a budget strictly between the
	// cheapest and the dearest price.
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	plans, err := r.opt.Enumerate(q, r.cache)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := money.Max, money.Amount(0)
	for _, p := range plans {
		if pr := p.Price(); pr < lo {
			lo = pr
		}
		if pr := p.Price(); pr > hi {
			hi = pr
		}
	}
	if lo >= hi {
		t.Skip("degenerate plan prices")
	}
	mid := lo.Add(hi.Sub(lo).DivInt(2))
	q2 := r.query(t, 5e-4, budget.NewStep(mid, time.Hour))
	d := r.handle(t, q2)
	if d.Case != CaseC {
		t.Errorf("case = %v, want C (budget %v in [%v,%v])", d.Case, mid, lo, hi)
	}
}

func TestRegretAccumulatesOnMissingStructures(t *testing.T) {
	r := newRig(t, func(c *Config) {
		// High threshold so no investment fires during the test.
		c.RegretFraction = 0.99
		c.InitialCredit = money.FromDollars(1e6)
	})
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	r.handle(t, q)
	// The column structures of Q6 should carry regret now.
	colID := structure.ColumnID(catalog.Col("lineitem", "l_shipdate"))
	if !r.econ.Regret(colID).IsPositive() {
		t.Errorf("no regret accrued for %s", colID)
	}
	// Repeating the query grows regret.
	before := r.econ.Regret(colID)
	r.handle(t, q)
	if r.econ.Regret(colID) <= before {
		t.Error("regret did not accumulate")
	}
}

func TestInvestmentTriggersAndBuilds(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.RegretFraction = 0.0001 // hair trigger
		c.InitialCredit = money.FromDollars(10000)
	})
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	var invested []structure.ID
	for i := 0; i < 50 && len(invested) == 0; i++ {
		d := r.handle(t, q)
		invested = d.Investments
	}
	if len(invested) == 0 {
		t.Fatal("no investment after 50 hot queries with a hair trigger")
	}
	if r.cache.PendingCount() == 0 && r.cache.Len() == 0 {
		t.Error("investment did not reach the cache")
	}
	// Credit decreased by the build price.
	if r.econ.Stats().Invested.IsZero() {
		t.Error("invested counter empty")
	}
	// Builds complete and get used.
	r.cache.Advance(r.cache.Clock() + 100*time.Hour)
	r.cache.CompleteDue()
	if r.cache.Len() == 0 {
		t.Error("builds never completed")
	}
}

func TestConservativeProviderSkipsUnaffordableBuilds(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.RegretFraction = 0.0001
		c.InitialCredit = money.FromMicros(10) // nearly broke
	})
	// Zero budget keeps profit at zero, so the account stays broke and
	// no build is ever affordable.
	q := r.query(t, 5e-4, budget.Zero{TMax: time.Hour})
	for i := 0; i < 30; i++ {
		d := r.handle(t, q)
		if len(d.Investments) != 0 {
			t.Fatal("broke conservative provider invested anyway")
		}
	}
}

func TestEconColInvestsOnlyInColumns(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.RegretFraction = 0.0001
		c.InitialCredit = money.FromDollars(10000)
		c.InvestKinds = map[structure.Kind]bool{structure.KindColumn: true}
	})
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	for i := 0; i < 100; i++ {
		d := r.handle(t, q)
		for _, id := range d.Investments {
			if structure.KindOf(id) != structure.KindColumn {
				t.Fatalf("econ-col built %s", id)
			}
		}
	}
}

func TestIndexInvestmentBuildsMissingColumnsFirst(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.RegretFraction = 0.0001
		c.InitialCredit = money.FromDollars(100000)
		// Only indexes allowed: exercises the Eq. 14 composite path.
		c.InvestKinds = map[structure.Kind]bool{structure.KindIndex: true}
	})
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	var builtIndex bool
	for i := 0; i < 200 && !builtIndex; i++ {
		d := r.handle(t, q)
		for _, id := range d.Investments {
			if structure.KindOf(id) == structure.KindIndex {
				builtIndex = true
			}
		}
	}
	if !builtIndex {
		t.Fatal("index never invested")
	}
	// The index's key columns must be pending too (built via Eq. 14).
	idxDef := q.Template.IndexCandidates[0]
	for _, ref := range idxDef.Refs() {
		colID := structure.ColumnID(ref)
		if !r.cache.Building(colID) && !r.cache.Has(colID) {
			t.Errorf("index key column %s not scheduled", colID)
		}
	}
}

func TestSettleCollectsAmortizationAndMaintenance(t *testing.T) {
	r := newRig(t, nil)
	// Install Q6 columns with a small build price so the amortized share
	// does not push the cache plan above the backend plan.
	buildPrice := money.FromDollars(0.001)
	tpl := workload.PaperTemplates()[3]
	for _, ref := range tpl.Columns {
		st, _ := structure.ColumnStructure(r.model.Catalog(), ref)
		r.cache.StartBuild(st, 0, buildPrice)
	}
	r.cache.CompleteDue()
	r.cache.Advance(time.Minute) // let a little rent accrue

	q := r.query(t, 5e-3, budget.NewStep(money.FromDollars(1000), time.Hour))
	d := r.handle(t, q)
	if d.Chosen == nil || d.Chosen.Location != plan.Cache {
		t.Fatalf("expected cache plan, got %v", d.Chosen)
	}
	if !d.Chosen.AmortPrice.IsPositive() {
		t.Error("no amortization collected")
	}
	if !d.Chosen.MaintPrice.IsPositive() {
		t.Error("no maintenance collected")
	}
	// Entry state updated.
	e, _ := r.cache.Get(structure.ColumnID(tpl.Columns[0]))
	if e.AmortRemaining == buildPrice {
		t.Error("AmortRemaining not reduced")
	}
	if e.MaintPaidUntil != r.cache.Clock() || !e.UnpaidMaint.IsZero() {
		t.Error("maintenance not marked paid")
	}
	if e.Uses != 1 {
		t.Error("use not recorded")
	}
	// Second query pays no maintenance (just paid) but amortizes again.
	d2 := r.handle(t, q)
	if d2.Chosen.MaintPrice.IsPositive() {
		t.Error("maintenance charged twice at the same instant")
	}
}

func TestMaintenanceFailureEvicts(t *testing.T) {
	r := newRig(t, func(c *Config) { c.NeverUsedFloor = money.FromMicros(1) })
	// A column with a microscopic build price: a month of rent is far more
	// than the factor's worth of build prices.
	ref := catalog.Col("lineitem", "l_comment")
	st, _ := structure.ColumnStructure(r.model.Catalog(), ref)
	r.cache.StartBuild(st, 0, money.FromMicros(1))
	r.cache.CompleteDue()
	r.cache.Advance(30 * 24 * time.Hour)

	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	d := r.handle(t, q)
	found := false
	for _, id := range d.Failures {
		if id == st.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("structure with month-long arrears did not fail: %v", d.Failures)
	}
	if r.cache.Has(st.ID) {
		t.Error("failed structure still resident")
	}
	if r.econ.Stats().FailureCount != 1 {
		t.Error("failure counter wrong")
	}
}

func TestNeverUsedFloorProtectsCheapStructures(t *testing.T) {
	r := newRig(t, func(c *Config) { c.NeverUsedFloor = money.FromDollars(100) })
	st, _ := structure.ColumnStructure(r.model.Catalog(), catalog.Col("lineitem", "l_tax"))
	r.cache.StartBuild(st, 0, money.FromMicros(1))
	r.cache.CompleteDue()
	r.cache.Advance(time.Hour)

	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	d := r.handle(t, q)
	if len(d.Failures) != 0 {
		t.Error("floor did not protect the structure")
	}
}

// TestFailingBoundaries pins both arms of footnote 3's failure rule at the
// shipped factor F, with one row on each boundary:
//   - a never-used structure fails iff its arrears exceed
//     max(NeverUsedFloor, F × build price);
//   - a used structure fails iff, past its one-hour grace window, its
//     hourly rent exceeds F × its value per hour since first use.
func TestFailingBoundaries(t *testing.T) {
	const F = DefaultMaintFailureFactor
	micro := money.FromMicros(1)
	build := money.FromDollars(1)
	h := func(n float64) time.Duration { return time.Duration(n * float64(time.Hour)) }
	for _, tc := range []struct {
		name  string
		floor money.Amount  // NeverUsedFloor
		due   money.Amount  // never used: arrears at the verdict
		used  time.Duration // used: time since first use (0 = never used)
		value func(rent money.Amount) money.Amount
		fails bool
	}{
		{name: "never used, arrears past one build price (a factor of 1 would evict)", floor: build.DivInt(2), due: build.MulFloat(1.5)},
		{name: "never used, arrears on F × build", floor: build.DivInt(2), due: build.MulFloat(F)},
		{name: "never used, arrears past F × build", floor: build.DivInt(2), due: build.MulFloat(F).Add(micro), fails: true},
		{name: "never used, arrears on the floor above F × build", floor: build.MulFloat(10), due: build.MulFloat(10)},
		{name: "never used, arrears past the floor above F × build", floor: build.MulFloat(10), due: build.MulFloat(10).Add(micro), fails: true},
		{name: "used, worthless, inside the grace hour", used: time.Hour - 1, value: func(money.Amount) money.Amount { return 0 }},
		{name: "used, worthless, grace hour over", used: time.Hour, value: func(money.Amount) money.Amount { return 0 }, fails: true},
		{name: "used, value rate half the rent (a factor of 1 would evict)", used: h(2), value: func(r money.Amount) money.Amount { return r }},
		{name: "used, rent on F × value rate", used: h(F), value: func(r money.Amount) money.Amount { return r }},
		{name: "used, rent past F × value rate", used: h(F), value: func(r money.Amount) money.Amount { return r.Sub(micro) }, fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, func(c *Config) { c.NeverUsedFloor = tc.floor })
			if r.econ.market.cfg.MaintFailureFactor != F {
				t.Fatalf("rig runs factor %g, want the shipped %g", r.econ.market.cfg.MaintFailureFactor, F)
			}
			st, _ := structure.ColumnStructure(r.model.Catalog(), catalog.Col("lineitem", "l_tax"))
			r.cache.StartBuild(st, 0, build)
			r.cache.CompleteDue()
			now := 10 * time.Hour
			r.cache.Advance(now)
			e, _ := r.cache.Get(st.ID)
			e.MaintPaidUntil = now
			e.UnpaidMaint = tc.due
			if tc.used > 0 {
				e.Uses, e.FirstUsed = 1, now-tc.used
				e.EarnedValue = tc.value(r.econ.market.rent(e.S, time.Hour))
			}
			due, reason := r.econ.market.failing(e, now)
			if fails := reason != ""; fails != tc.fails {
				t.Fatalf("failing = (%v, %q), want fails=%v", due, reason, tc.fails)
			}
			if tc.fails && due != tc.due {
				t.Errorf("condemned with arrears %v, entry owes %v", due, tc.due)
			}
		})
	}
}

func TestSelectFastestPicksFastest(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Criterion = SelectFastest })
	// Warm the cache with Q6 columns so multiple runnable plans exist.
	tpl := workload.PaperTemplates()[3]
	for _, ref := range tpl.Columns {
		st, _ := structure.ColumnStructure(r.model.Catalog(), ref)
		r.cache.StartBuild(st, 0, 0)
	}
	r.cache.CompleteDue()
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	d := r.handle(t, q)
	// Capture the chosen plan's time before re-enumerating: Enumerate
	// recycles its plan objects, so d.Chosen is only valid until then.
	chosenTime := d.Chosen.Time()
	plans, _ := r.opt.Enumerate(q, r.cache)
	exist, _ := plan.Partition(plans)
	fastest := plan.Fastest(exist)
	if chosenTime != fastest.Time() {
		t.Errorf("fastest criterion chose time %v, fastest is %v", chosenTime, fastest.Time())
	}
}

func TestSelectMinProfit(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Criterion = SelectMinProfit })
	tpl := workload.PaperTemplates()[3]
	for _, ref := range tpl.Columns {
		st, _ := structure.ColumnStructure(r.model.Catalog(), ref)
		r.cache.StartBuild(st, 0, 0)
	}
	r.cache.CompleteDue()
	q := r.query(t, 5e-4, budget.NewStep(money.FromDollars(1000), time.Hour))
	d := r.handle(t, q)
	// Capture the chosen plan's price before re-enumerating: Enumerate
	// recycles its plan objects, so d.Chosen is only valid until then.
	chosenPrice := d.Chosen.Price()
	// With a step budget the min-profit plan is the most expensive
	// affordable plan.
	plans, _ := r.opt.Enumerate(q, r.cache)
	exist, _ := plan.Partition(plans)
	var maxPrice money.Amount
	for _, p := range exist {
		if p.Price() > maxPrice {
			maxPrice = p.Price()
		}
	}
	if chosenPrice != maxPrice {
		t.Errorf("min-profit chose price %v, want %v", chosenPrice, maxPrice)
	}
}

func TestLedgerLRUGC(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.LedgerCap = 3
		c.RegretFraction = 0.99 // don't invest
		c.InitialCredit = money.FromDollars(1e6)
	})
	// Run all 7 templates: many distinct structures compete for 3 slots.
	for i, tpl := range workload.PaperTemplates() {
		q := &workload.Query{
			ID: int64(i), Template: tpl, Selectivity: tpl.SelMin,
			Budget: budget.NewStep(money.FromDollars(1000), time.Hour),
		}
		r.handle(t, q)
	}
	if got := r.econ.Stats().LedgerSize; got > 3 {
		t.Errorf("ledger size = %d, want <= 3", got)
	}
}

func TestHandleQueryErrors(t *testing.T) {
	r := newRig(t, nil)
	if _, err := r.econ.HandleQuery(nil, nil); err == nil {
		t.Error("nil query accepted")
	}
	q := r.query(t, 5e-4, budget.Zero{TMax: time.Second})
	if _, err := r.econ.HandleQuery(q, nil); err == nil {
		t.Error("empty plan set accepted")
	}
	// A plan set with no runnable plan is a contract violation.
	p := &plan.Plan{Query: q, Structures: structure.NewSet(), Missing: []*structure.Structure{{ID: "col:x.y", Kind: structure.KindColumn}}}
	if _, err := r.econ.HandleQuery(q, []*plan.Plan{p}); err == nil {
		t.Error("no-runnable-plan set accepted")
	}
}

func TestCriterionAndCaseStrings(t *testing.T) {
	for _, c := range []Criterion{SelectCheapest, SelectFastest, SelectMinProfit, Criterion(7)} {
		if c.String() == "" {
			t.Error("empty criterion string")
		}
	}
	if CaseA.String() != "A" || CaseB.String() != "B" || CaseC.String() != "C" {
		t.Error("case strings wrong")
	}
}

func TestResolveID(t *testing.T) {
	cat := catalog.TPCH(1)
	// CPU node.
	st, err := ResolveID(cat, structure.CPUNodeID(3))
	if err != nil || st.Kind != structure.KindCPUNode || st.NodeOrdinal != 3 {
		t.Errorf("cpu resolve = %+v, %v", st, err)
	}
	// Column.
	ref := catalog.Col("lineitem", "l_shipdate")
	st, err = ResolveID(cat, structure.ColumnID(ref))
	if err != nil || st.Kind != structure.KindColumn || st.Column != ref {
		t.Errorf("col resolve = %+v, %v", st, err)
	}
	// Index.
	def := catalog.IndexDef{Table: "orders", Columns: []string{"o_orderdate", "o_custkey"}}
	st, err = ResolveID(cat, structure.IndexID(def))
	if err != nil || st.Kind != structure.KindIndex || st.Index.Name() != def.Name() {
		t.Errorf("idx resolve = %+v, %v", st, err)
	}
	// Round trips agree on bytes.
	orig, _ := structure.IndexStructure(cat, def)
	if st.Bytes != orig.Bytes {
		t.Error("resolved size differs")
	}
	// Bad IDs.
	for _, bad := range []structure.ID{"", "cpu:x", "cpu:1", "col:noname", "col:zz.y", "idx_t", "idx_(a)", "idx_t()", "bogus"} {
		if _, err := ResolveID(cat, bad); err == nil {
			t.Errorf("bad id %q accepted", bad)
		}
	}
}
