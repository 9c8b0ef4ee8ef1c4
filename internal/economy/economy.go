// Package economy implements the paper's primary contribution: the
// self-tuned economy of §IV, split into two layers. The Market is the
// shared structure pool — residency, build mechanics, maintenance-failure
// eviction, investment backoff — and Ledgers are the accounts played
// against it: credit, spend, regret attribution and budget settlement,
// one per tenant plus (for the altruistic provider) one communal pool.
//
// The Provider knob selects the §IV framing of who owns the money:
//
//   - ProviderAltruistic — one communal account CR and one regret ledger,
//     pooled across every tenant before the Eq. 3 `a·capital` investment
//     test. This is the paper's provider and the single-tenant
//     degenerate case reproduces the classic single-account economy
//     byte for byte.
//   - ProviderSelfish — per-tenant accounting: each tenant's ledger is
//     seeded with the initial capital on first contact, only that
//     tenant's regret triggers builds, builds are charged to (and
//     amortize back into) that tenant, and recovery for shared residents
//     flows to the tenant that financed them as other tenants use them.
//
// In both modes the economy classifies each query into case A/B/C against
// the user's budget function (§IV-C, Fig. 2), selects a plan under the
// scheme's criterion, credits profit, collects amortized build shares and
// maintenance arrears (Eq. 4–7, footnote 3), accumulates regret for
// rejected possible plans (Eq. 1–2), and invests in new structures when
// regret crosses the Eq. 3 threshold. Structures whose rent outweighs
// MaintFailureFactor times their value — or, never used, whose arrears
// exceed that many build prices — fail and are evicted (footnote 3
// "structure failure").
package economy

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Criterion selects which affordable runnable plan the cloud picks.
type Criterion int

// The selection criteria of §VII-A.
const (
	// SelectCheapest picks the least-cost plan (econ-col, econ-cheap).
	SelectCheapest Criterion = iota
	// SelectFastest picks the fastest affordable plan (econ-fast).
	SelectFastest
	// SelectMinProfit picks the plan minimizing B_Q(t)-price, the pure
	// case-B rule of §IV-C.
	SelectMinProfit
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case SelectCheapest:
		return "cheapest"
	case SelectFastest:
		return "fastest"
	case SelectMinProfit:
		return "min-profit"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// Provider selects the §IV accounting stance of the cloud.
type Provider int

const (
	// ProviderAltruistic pools all tenants into one communal account and
	// regret ledger before the Eq. 3 investment test (the paper's
	// provider; the default).
	ProviderAltruistic Provider = iota
	// ProviderSelfish accounts budgets and regret per tenant: only a
	// tenant's own regret triggers builds, charged to that tenant.
	ProviderSelfish
)

// String implements fmt.Stringer.
func (p Provider) String() string {
	switch p {
	case ProviderAltruistic:
		return "altruistic"
	case ProviderSelfish:
		return "selfish"
	default:
		return fmt.Sprintf("Provider(%d)", int(p))
	}
}

// ParseProvider parses a provider name ("altruistic" or "selfish"; ""
// means altruistic).
func ParseProvider(s string) (Provider, error) {
	switch s {
	case "", "altruistic":
		return ProviderAltruistic, nil
	case "selfish":
		return ProviderSelfish, nil
	default:
		return 0, fmt.Errorf("economy: unknown provider %q (want altruistic or selfish)", s)
	}
}

// Case is the §IV-C classification of a query against its budget.
type Case int

// The three cases of Fig. 2.
const (
	// CaseA: the budget is below every plan's price.
	CaseA Case = iota
	// CaseB: the budget covers every plan.
	CaseB
	// CaseC: the budget covers some plans.
	CaseC
)

// String implements fmt.Stringer.
func (c Case) String() string { return [...]string{"A", "B", "C"}[c] }

// DefaultMaintFailureFactor is the footnote 3 failure factor the product
// ships: a used structure fails once its rent rate exceeds six times its
// lifetime value rate, a never-used one once its arrears exceed six build
// prices. Swept over {4 … 16} on the 1 M-query §VII grid (seeds 1, 2, 3,
// 42), six gave econ-cheap its best worst-seed cost margin over bypass; at
// 1 the rule evicted structures whose rent merely matched their value,
// and they were rebuilt over and over.
const DefaultMaintFailureFactor = 6.0

// Config parameterises the economy.
type Config struct {
	// Model prices maintenance and builds (the scheme's schedule).
	Model *cost.Model
	// Cache is the shared cache state.
	Cache *cache.Cache
	// Optimizer prices builds consistently with plan enumeration.
	Optimizer *optimizer.Optimizer
	// Criterion is the plan-selection rule.
	Criterion Criterion
	// Provider selects altruistic (pooled, the default) or selfish
	// (per-tenant) accounting.
	Provider Provider
	// RegretFraction is `a` of Eq. 3 (0 < a < 1).
	RegretFraction float64
	// AmortN is the amortization horizon n of Eq. 7.
	AmortN int64
	// InitialCredit seeds the cloud account so the first investments are
	// possible before profit accumulates. Under the selfish provider each
	// tenant's ledger is seeded with this capital on first contact.
	InitialCredit money.Amount
	// Conservative providers build only structures whose build price the
	// account covers ("builds structures only when her profit exceeds
	// the cost of building them", §VII-A).
	Conservative bool
	// UserAcceptsOverBudget models the §VII-A user who "accepts query
	// execution in the back-end" when no plan fits the budget: in case A
	// the user picks (and pays for) the cheapest runnable plan.
	UserAcceptsOverBudget bool
	// MaintFailureFactor triggers structure failure when rent outweighs
	// the structure's value (footnote 3). 0 disables failure eviction;
	// DefaultMaintFailureFactor is the calibration the product ships.
	MaintFailureFactor float64
	// NeverUsedFloor is the minimum arrears before a structure that has
	// never been used can fail. It must be generous enough to cover the
	// window between a structure's completion and the completion of the
	// rest of its plan's structure set — partial sets are unusable, so
	// early members idle through no fault of their own.
	NeverUsedFloor money.Amount
	// InvestBackoff multiplies the Eq. 3 investment threshold for a
	// structure each time a previous build of it failed, damping
	// build-evict-rebuild cycles in rent-hostile regimes. Values <= 1
	// disable backoff.
	InvestBackoff float64
	// InvestKinds limits which structure kinds the economy may build;
	// nil means all kinds (econ-col passes only KindColumn).
	InvestKinds map[structure.Kind]bool
	// LedgerCap bounds each regret ledger; least-recently-touched
	// entries are garbage collected (§IV-B "garbage collected using LRU
	// policy"). 0 means a generous default.
	LedgerCap int
	// TenantCap bounds the number of distinct tenant ledgers. Billing
	// state must never be silently dropped, so beyond the cap new tenant
	// names fold into one shared overflow ledger — bounding both memory
	// and (under the selfish provider, where each fresh ledger opens
	// with the initial capital) the credit untrusted clients can mint by
	// inventing names. 0 means a generous default.
	TenantCap int
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.Model == nil || c.Cache == nil || c.Optimizer == nil {
		return fmt.Errorf("economy: Model, Cache and Optimizer are required")
	}
	if c.RegretFraction <= 0 || c.RegretFraction >= 1 {
		return fmt.Errorf("economy: RegretFraction must be in (0,1), got %g", c.RegretFraction)
	}
	if c.AmortN <= 0 {
		return fmt.Errorf("economy: AmortN must be positive")
	}
	if c.MaintFailureFactor < 0 {
		return fmt.Errorf("economy: MaintFailureFactor must be >= 0")
	}
	if c.LedgerCap < 0 {
		return fmt.Errorf("economy: LedgerCap must be >= 0")
	}
	if c.TenantCap < 0 {
		return fmt.Errorf("economy: TenantCap must be >= 0")
	}
	if c.Provider != ProviderAltruistic && c.Provider != ProviderSelfish {
		return fmt.Errorf("economy: unknown provider %d", c.Provider)
	}
	return nil
}

// Decision reports how one query was handled.
type Decision struct {
	// Case classification (§IV-C).
	Case Case
	// Chosen is the executed plan; nil when the query was declined.
	Chosen *plan.Plan
	// Declined reports that no plan fit the budget and the user walked.
	Declined bool
	// Charged is what the user paid.
	Charged money.Amount
	// Profit is Charged minus the plan price (credited to the account).
	Profit money.Amount
	// Investments lists structures whose construction this query
	// triggered.
	Investments []structure.ID
	// InvestConsidered counts ledger entries whose regret crossed the
	// Eq. 3 bar this query — build candidates, whether or not the build
	// went through (already resident/building, unresolvable, or too
	// expensive for a conservative provider).
	InvestConsidered int
	// RegretAccrued is the total regret this query distributed across
	// missing structures (Eq. 1–2).
	RegretAccrued money.Amount
	// Failures lists structures evicted for maintenance failure before
	// this query was planned.
	Failures []structure.ID
}

// Economy is the mutable market + ledger state. Not safe for concurrent
// use; one simulation (or one server shard) owns one economy.
type Economy struct {
	cfg    Config
	market *Market
	// reg is the cache's slot table: ledger rows and market bookkeeping
	// are indexed by its slots. Plans enumerated against cfg.Cache carry
	// structures it owns.
	reg *structure.Registry
	// investKind is cfg.InvestKinds flattened for the per-share test.
	investKind [structure.KindIndex + 1]bool

	// pool is the communal account of the altruistic provider: the
	// single-ledger economy of §IV. Nil under the selfish provider.
	pool *Ledger
	// tenants maps tenant name -> per-tenant ledger. Under the
	// altruistic provider these are attribution mirrors (no credit);
	// under the selfish provider they are the real accounts. Bounded by
	// cfg.TenantCap; overflow names share one ledger.
	tenants map[string]*Ledger

	// recovers counts the settlements that reimbursed an account since
	// the economy was built; the dollars they moved are the ledgers'
	// Recovered. A settlement happens on nearly every query, so it is
	// counted rather than journaled. Not persisted.
	recovers int64

	// evals, scratchExist and scratchAfford back HandleQuery's per-query
	// view of the plan set, reused across calls so the steady-state
	// decision path allocates nothing. Safe because the economy is
	// single-owner (one shard or one simulation loop) and the slices never
	// outlive the call.
	evals         []planEval
	scratchExist  []*plan.Plan
	scratchAfford []*plan.Plan
}

// planEval is what one plan of PQ means to the arriving query. HandleQuery
// derives it once per plan; classification, selection, settlement and the
// regret of Eq. 1–2 all read it.
type planEval struct {
	price    money.Amount // C(P_Q) = Ce + Ca (Eq. 4)
	budget   money.Amount // B_Q at the plan's promised time
	afford   bool         // budget >= price
	runnable bool         // PQexist member
}

// SetEvents installs a sink for the economy's structured events: every
// investment and maintenance-failure eviction is reported as it happens
// (settlement recoveries are counted instead, see Recoveries). Events
// fire synchronously on the decision path, so the sink must be cheap (the
// obs.Journal is); nil removes the sink. Not safe to call concurrently
// with HandleQuery — install it at wiring time, before traffic.
func (e *Economy) SetEvents(fn func(obs.Event)) { e.market.events = fn }

// Recoveries returns how many settlements reimbursed an account since the
// economy was built; Stats().Recovered is the dollars they moved. Not
// persisted: a restored economy counts from zero, as the event journal's
// totals always did.
func (e *Economy) Recoveries() int64 { return e.recovers }

// reimburse books one settlement's reimbursement of an account.
func (e *Economy) reimburse(l *Ledger, amount money.Amount) {
	l.Recovered = l.Recovered.Add(amount)
	if amount != 0 {
		e.recovers++
	}
}

// OverflowTenant is the shared ledger name that tenants beyond TenantCap
// fold into. The name is not reserved at admission: a client that
// submits it joins the shared pot deliberately, which grants nothing a
// fresh name would not — the pot is seeded at most once, and its members
// already share spend, regret and capital by construction.
const OverflowTenant = "(overflow)"

// DrainBuildUsage returns the physical usage of all investments since the
// previous drain and resets the accumulator.
func (e *Economy) DrainBuildUsage() cost.Usage {
	return e.market.drainBuildUsage()
}

// New builds an economy.
func New(cfg Config) (*Economy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LedgerCap == 0 {
		cfg.LedgerCap = 4096
	}
	if cfg.TenantCap == 0 {
		cfg.TenantCap = 10_000
	}
	if cfg.NeverUsedFloor == 0 {
		cfg.NeverUsedFloor = money.FromDollars(1)
	}
	e := &Economy{
		cfg:     cfg,
		market:  newMarket(cfg),
		reg:     cfg.Cache.Registry(),
		tenants: make(map[string]*Ledger),
	}
	for k := range e.investKind {
		e.investKind[k] = cfg.InvestKinds == nil || cfg.InvestKinds[structure.Kind(k)]
	}
	if cfg.Provider == ProviderAltruistic {
		e.pool = newLedger("", cfg.InitialCredit, cfg.LedgerCap, e.reg)
	}
	return e, nil
}

// Provider returns the accounting stance.
func (e *Economy) Provider() Provider { return e.cfg.Provider }

// Market exposes the shared structure pool.
func (e *Economy) Market() *Market { return e.market }

// Credit returns the total account balance CR: the communal pool under
// the altruistic provider, the sum of tenant accounts under the selfish
// one.
func (e *Economy) Credit() money.Amount {
	if e.pool != nil {
		return e.pool.credit
	}
	var total money.Amount
	for _, l := range e.tenants {
		total = total.Add(l.credit)
	}
	return total
}

// Regret returns the accumulated live regret for a structure across all
// ledgers.
func (e *Economy) Regret(id structure.ID) money.Amount {
	if e.pool != nil {
		return e.pool.regretOf(id)
	}
	var total money.Amount
	for _, l := range e.tenants {
		total = total.Add(l.regretOf(id))
	}
	return total
}

// ledgerFor returns (creating on first contact) the tenant's ledger.
// Under the selfish provider a fresh ledger opens with the initial
// capital; under the altruistic provider mirrors open empty — the
// communal pool holds the money. Beyond TenantCap, new names share the
// overflow ledger (which opens — and mints capital — exactly once).
func (e *Economy) ledgerFor(tenant string) *Ledger {
	if l, ok := e.tenants[tenant]; ok {
		return l
	}
	if len(e.tenants) >= e.cfg.TenantCap {
		if l, ok := e.tenants[OverflowTenant]; ok {
			return l
		}
		tenant = OverflowTenant
	}
	seed := money.Amount(0)
	if e.cfg.Provider == ProviderSelfish {
		seed = e.cfg.InitialCredit
	}
	l := newLedger(tenant, seed, e.cfg.LedgerCap, e.reg)
	e.tenants[tenant] = l
	return l
}

// account returns the ledger whose credit and regret drive decisions for
// this tenant: the pool when altruistic, the tenant's own when selfish.
func (e *Economy) account(led *Ledger) *Ledger {
	if e.pool != nil {
		return e.pool
	}
	return led
}

// HandleQuery runs the full §IV-C pipeline for one query whose plan set has
// already been enumerated. The cache clock must already be at q.Arrival.
func (e *Economy) HandleQuery(q *workload.Query, plans []*plan.Plan) (Decision, error) {
	if q == nil || len(plans) == 0 {
		return Decision{}, fmt.Errorf("economy: query and plans are required")
	}
	var d Decision

	// Structure failure sweep (footnote 3) happens before planning so a
	// failed structure cannot be chosen.
	d.Failures = e.market.sweepFailures()

	// One pass over the full PQ: each plan's price against the budget at
	// its promised time, the affordable runnable set, and the two anchor
	// plans that measure the value of cache structures marginally —
	// columns earn the plain column scan's saving over the back-end plan;
	// the index and extra nodes earn only their improvement over the
	// plain scan.
	evals, affordableExist := e.evals[:0], e.scratchAfford[:0]
	nAfford, nExist := 0, 0
	var backendExec, scanExec money.Amount
	haveScan := false
	for _, p := range plans {
		ev := planEval{price: p.Price(), budget: q.Budget.At(p.Time()), runnable: p.Runnable()}
		ev.afford = ev.budget >= ev.price
		if ev.runnable {
			nExist++
		}
		if ev.afford {
			nAfford++
			if ev.runnable {
				affordableExist = append(affordableExist, p)
			}
		}
		if p.Location == plan.Backend {
			backendExec = p.ExecPrice
		} else if !p.UsesIndex && p.Nodes == 1 {
			scanExec = p.ExecPrice
			haveScan = true
		}
		evals = append(evals, ev)
	}
	e.evals, e.scratchAfford = evals, affordableExist
	if nExist == 0 {
		return Decision{}, fmt.Errorf("economy: no runnable plan (the backend plan must always exist)")
	}

	led := e.ledgerFor(q.Tenant)
	acct := e.account(led)
	led.Queries++

	// Case classification over the full PQ.
	switch {
	case nAfford == 0:
		d.Case = CaseA
	case nAfford == len(plans):
		d.Case = CaseB
	default:
		d.Case = CaseC
	}

	// Plan selection.
	switch {
	case len(affordableExist) > 0:
		d.Chosen = e.selectPlanWith(q.Budget, affordableExist)
	case e.cfg.UserAcceptsOverBudget:
		// §VII-A: the user accepts the cheapest runnable offer.
		exist := e.scratchExist[:0]
		for i, p := range plans {
			if evals[i].runnable {
				exist = append(exist, p)
			}
		}
		e.scratchExist = exist
		d.Chosen = plan.Cheapest(exist)
	default:
		d.Declined = true
		led.Declined++
	}

	// Payment, profit and per-structure collections.
	var chosen planEval
	if d.Chosen != nil {
		chosen = evals[slices.Index(plans, d.Chosen)]
		e.settle(d.Chosen, chosen, backendExec, scanExec, haveScan, led, &d)
		if d.Chosen.Location == plan.Cache {
			led.CacheAnswered++
		}
	}

	// Regret accrual for rejected possible plans, then investment. Regret
	// lands in the deciding account's live map (the pool when altruistic,
	// the tenant's own when selfish) and is attributed to the tenant in
	// either case.
	d.RegretAccrued = e.accrueRegret(plans, evals, d.Chosen, chosen.price, led, acct)
	d.Investments, d.InvestConsidered = e.invest(acct)
	return d, nil
}

// settle charges the user, credits profit and collects the amortized and
// maintenance components.
//
// Under the altruistic provider everything lands in the communal pool,
// exactly the single-account settlement of §IV-C. Under the selfish
// provider the money splits by role: the paying tenant's ledger keeps the
// profit, while each structure's amortized share and maintenance recovery
// flow to the ledger of the tenant that financed it — "rent for shared
// residents split by measured usage": whoever uses a resident next pays
// its accrued arrears, and that payment reimburses its owner.
//
// Value attribution is marginal: when a cache plan is chosen, its columns
// split the execution saving of the plain column scan over the back-end
// plan, while the index and extra CPU nodes split only the further saving
// the chosen plan achieves over the plain scan. This keeps base data
// "less eligible for eviction" than accelerators (§VII-B), because the
// columns carry the bulk of the measured value.
func (e *Economy) settle(p *plan.Plan, ev planEval, backendExec, scanExec money.Amount, haveScan bool, led *Ledger, d *Decision) {
	d.Charged = money.MaxAmount(ev.price, ev.budget)
	d.Profit = d.Charged.Sub(ev.price)

	led.Spend = led.Spend.Add(d.Charged)
	led.Profit = led.Profit.Add(d.Profit)

	// Execution cost is paid through to the infrastructure; profit,
	// amortized shares and maintenance recovery stay in the accounts.
	if e.pool != nil {
		e.pool.credit = e.pool.credit.Add(d.Charged.Sub(p.ExecPrice))
		e.reimburse(e.pool, p.AmortPrice.Add(p.MaintPrice))
	} else {
		led.credit = led.credit.Add(d.Profit)
	}

	// Marginal execution savings.
	var colShare, extraShare money.Amount
	if p.Location == plan.Cache {
		nCols, nExtras := 0, 0
		for _, st := range p.Structures.Items() {
			if st.Kind == structure.KindColumn {
				nCols++
			} else {
				nExtras++
			}
		}
		base := scanExec
		if !haveScan {
			base = p.ExecPrice
		}
		if nCols > 0 {
			if saving := backendExec.Sub(base); saving.IsPositive() {
				colShare = saving.DivInt(int64(nCols))
			}
		}
		if nExtras > 0 && haveScan {
			if saving := base.Sub(p.ExecPrice); saving.IsPositive() {
				extraShare = saving.DivInt(int64(nExtras))
			}
		}
	}

	// Per-structure bookkeeping on the chosen plan. Chosen plans were
	// runnable at enumeration time, so the per-structure amortized
	// shares and arrears below are the components the optimizer priced
	// into p.AmortPrice and p.MaintPrice — except for a structure this
	// query's own failure sweep evicted after enumeration: its cache
	// entry is gone, the Get below misses, and its priced components go
	// unreimbursed (the provider absorbs them, in both modes the rent
	// risk of a failed structure).
	for _, st := range p.Structures.Items() {
		slot := e.reg.Find(st)
		entry := e.cfg.Cache.At(slot)
		if entry == nil {
			continue
		}
		share := cache.AmortShare(entry, e.cfg.AmortN)
		if e.pool == nil {
			// Selfish: reimburse the structure's owner for the amortized
			// build share plus the maintenance arrears this use settles.
			recovery := share.Add(e.market.maintDueOf(entry))
			owner := e.ownerOf(slot)
			owner.credit = owner.credit.Add(recovery)
			e.reimburse(owner, recovery)
		}
		entry.AmortRemaining = entry.AmortRemaining.Sub(share)
		entry.UnpaidMaint = 0
		entry.MaintPaidUntil = e.cfg.Cache.Clock()
		earned := share
		if st.Kind == structure.KindColumn {
			earned = earned.Add(colShare)
		} else {
			earned = earned.Add(extraShare)
		}
		entry.EarnedValue = entry.EarnedValue.Add(earned)
		if entry.Uses == 0 {
			e.market.firstUse()
		}
		e.cfg.Cache.TouchAt(slot)
	}
}

// ownerOf returns the ledger of the tenant that financed the resident in
// a slot. The market remembers the ledger itself once it has seen it; a
// restored market knows only the tenant's name and resolves it here on
// the first reimbursement. An unowned resident reimburses the untagged
// tenant, as its empty owner name always has.
func (e *Economy) ownerOf(slot structure.Slot) *Ledger {
	row := e.market.row(slot)
	if row.ownerLedger == nil {
		row.ownerLedger = e.ledgerFor(row.owner)
	}
	return row.ownerLedger
}

// accrueRegret implements Eq. 1–2 over the rejected possible plans.
//
// The two equations cover the two directions a missed structure can hurt:
// a possible plan cheaper than the chosen one is a lost cost saving
// (Eq. 1, the case-A regret), and a possible, affordable plan that is more
// expensive — on a skyline, faster — is a lost service/profit opportunity
// (Eq. 2, the case-B regret). The union applies in every case; each term
// is only ever non-negative. The return is the total regret actually
// distributed (for decision tracing).
func (e *Economy) accrueRegret(plans []*plan.Plan, evals []planEval, chosen *plan.Plan, chosenPrice money.Amount, led, acct *Ledger) money.Amount {
	var total money.Amount
	for i, p := range plans {
		ev := &evals[i]
		if ev.runnable || p == chosen {
			continue
		}
		var r money.Amount
		if chosen != nil && ev.price <= chosenPrice {
			// Eq. 1: regret(PQj) = B_PQ(t_i) - B_PQ(t_j).
			r = chosenPrice.Sub(ev.price)
		} else if ev.afford {
			// Eq. 2: regret(PQj) = B_Q(t_j) - B_PQ(t_j).
			r = ev.budget.Sub(ev.price)
		}
		if !r.IsPositive() {
			continue
		}
		total = total.Add(e.distribute(p, r, led, acct))
	}
	return total
}

// distribute splits a plan's regret uniformly across its missing structures
// ("the regret ... is distributed uniformly to every physical structure
// used by the plan"; resident structures need no investment so only the
// missing ones are tracked). The share lands in the deciding account's
// live map and is attributed to the generating tenant's cumulative
// counter. The return is the regret actually landed (skipped kinds
// accrue nothing). Rows are keyed by st.Slot: like every plan HandleQuery
// sees, p was enumerated against cfg.Cache, whose registry owns its
// structures (or none does yet).
func (e *Economy) distribute(p *plan.Plan, r money.Amount, led, acct *Ledger) money.Amount {
	n := int64(len(p.Missing))
	if n == 0 || !r.IsPositive() {
		return 0
	}
	// Exact uniform split by largest remainder: the first r mod n shares
	// carry one extra micro-dollar, so the shares sum to r exactly.
	// Round-half-away division here minted regret — r = 1µ$ across two
	// missing structures landed 1µ$ on each, doubling the regret a
	// sprayed micro-query feeds the Eq. 3 trigger.
	base := money.Amount(int64(r) / n)
	rem := int64(r) % n
	var landed money.Amount
	for i, st := range p.Missing {
		share := base
		if int64(i) < rem {
			share++
		}
		if !share.IsPositive() {
			continue
		}
		if !e.kindAllowed(st.Kind) {
			continue
		}
		slot := st.Slot
		if slot == 0 { // a free-standing structure: register it
			slot = e.reg.SlotOf(st)
		}
		acct.add(slot, share)
		e.raiseEffPeak(acct, slot)
		landed = landed.Add(share)
		if acct != led {
			led.RegretAccrued = led.RegretAccrued.Add(share)
		}
	}
	return landed
}

// raiseEffPeak keeps the account's effPeak a bound after a row's regret
// grew: one compare while the row's raw regret stays within the bound,
// which its effective regret can then not exceed either, and only past
// it is the row measured against its own bar.
func (e *Economy) raiseEffPeak(acct *Ledger, s structure.Slot) {
	if r := acct.rows[s].regret; float64(r) > acct.effPeak {
		acct.effPeak = max(acct.effPeak, e.market.effRegret(r, e.market.failures(s)))
	}
}

// kindAllowed reports whether the scheme may invest in this kind.
func (e *Economy) kindAllowed(k structure.Kind) bool {
	return int(k) < len(e.investKind) && e.investKind[k]
}

// invest scans the account's regret ledger and builds every structure
// whose accumulated regret satisfies Eq. 3: round(regret_S / (a·CR)) >= 1,
// i.e. regret has risen to the fraction a of the account. Investments
// deduct the build price from the account; construction completes after
// the build duration. The altruistic provider tests the communal pool on
// every query; the selfish provider tests only the arriving tenant's
// ledger, so one tenant's regret never spends another tenant's money.
// The second return counts candidates whose regret crossed the bar,
// whether or not the build went through (decision tracing).
func (e *Economy) invest(acct *Ledger) ([]structure.ID, int) {
	if !acct.credit.IsPositive() {
		return nil, 0
	}
	threshold := acct.credit.MulFloat(e.cfg.RegretFraction)
	if !threshold.IsPositive() {
		return nil, 0
	}
	// One pass over the live rows in structure-ID order — the order
	// builds are attempted and reported in — against the per-failure-count
	// bar ladder of this scan. The common query crosses nothing, and two
	// gates skip the pass when no row can: the account's largest live
	// regret sits below the base bar, or every row sits below its own
	// failure-raised bar by the bound effPeak keeps (see effGate). Inside
	// the pass the same bound dismisses a row before the ladder is
	// climbed, and the pass recomputes effPeak over the rows it keeps. A
	// row that crosses but cannot build (a conservative provider short of
	// its price) remembers the price that blocked it, and costs two
	// compares per query until the account can cover it or the cache's
	// residency — and with it the price — moves.
	half := halfUp(threshold)
	if acct.peak < half {
		return nil, 0 // no row can cross the bar
	}
	gate := effGate(threshold)
	if 2*acct.effPeak < gate && 2*float64(acct.peak) < rawGate {
		return nil, 0 // no row can cross its own bar
	}
	bars := e.market.bars(threshold)
	ca := e.cfg.Cache
	var built []structure.ID
	considered := 0
	effPeak := 0.0
	for i := 0; i < len(acct.live); {
		slot := acct.live[i]
		row := &acct.rows[slot]
		// Eq. 3 with round(): triggers at 2·regret >= a·CR, tested as
		// regret >= ⌈a·CR/2⌉. A history of failed builds raises the bar
		// exponentially, never lowers it, so most rows are dismissed
		// against the base threshold or the gate's bound.
		failures := e.market.failures(slot)
		eff := e.market.effRegret(row.regret, failures)
		if row.regret < half || 2*eff < gate && 2*float64(row.regret) < rawGate || !bars.crossed(row.regret, failures) {
			effPeak = max(effPeak, eff)
			i++
			continue
		}
		considered++
		if row.blockedEpoch == ca.Epoch()+1 && acct.credit < row.blockedPrice {
			effPeak = max(effPeak, eff)
			i++
			continue
		}
		if ca.At(slot) != nil || ca.BuildingAt(slot) {
			acct.drop(slot)
			continue
		}
		st, err := e.market.resolveStructure(slot)
		if err != nil {
			acct.drop(slot)
			continue
		}
		ok, short := e.market.buildStructure(st, acct)
		if ok {
			built = append(built, st.ID)
			acct.drop(slot)
			continue
		}
		if short != 0 {
			row.blockedPrice, row.blockedEpoch = short, ca.Epoch()+1
		}
		effPeak = max(effPeak, eff)
		i++
	}
	acct.effPeak = effPeak
	return built, considered
}

// Stats is a snapshot of the economy's lifetime counters, aggregated
// across all ledgers.
type Stats struct {
	Credit        money.Amount
	Invested      money.Amount
	Recovered     money.Amount
	ProfitTotal   money.Amount
	InvestCount   int64
	FailureCount  int64
	DeclinedCount int64
	LedgerSize    int
}

// Stats returns the lifetime counters.
func (e *Economy) Stats() Stats {
	s := Stats{
		Credit:       e.Credit(),
		FailureCount: e.market.failureCount,
	}
	if e.pool != nil {
		s.Invested = e.pool.Invested
		s.Recovered = e.pool.Recovered
		s.InvestCount = e.pool.InvestCount
		s.LedgerSize = len(e.pool.live)
	}
	for _, l := range e.tenants {
		s.ProfitTotal = s.ProfitTotal.Add(l.Profit)
		s.DeclinedCount += l.Declined
		if e.pool == nil {
			s.Invested = s.Invested.Add(l.Invested)
			s.Recovered = s.Recovered.Add(l.Recovered)
			s.InvestCount += l.InvestCount
			s.LedgerSize += len(l.live)
		}
	}
	return s
}

// TenantStats returns per-tenant ledger snapshots sorted by tenant name,
// so repeated snapshots of the same state are deterministic.
func (e *Economy) TenantStats() []TenantStats {
	out := make([]TenantStats, 0, len(e.tenants))
	for _, l := range e.tenants {
		out = append(out, l.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
