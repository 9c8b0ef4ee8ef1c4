package scheme

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/pricing"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Params bundles the knobs shared by the scheme constructors. Zero values
// take the defaults of DefaultParams.
type Params struct {
	// Catalog sizes every structure. Required.
	Catalog *catalog.Catalog
	// Schedule is the scheme's deciding price list. Defaults to EC22008
	// for the economy schemes; the bypass constructor forces NetOnly.
	Schedule *pricing.Schedule
	// Tunables calibrate the cost model.
	Tunables cost.Tunables
	// AmortN is the amortization horizon (Eq. 7).
	AmortN int64
	// Provider selects the economy's accounting stance: altruistic
	// (pooled single account, the paper's §IV default) or selfish
	// (per-tenant ledgers over the shared structure pool).
	Provider economy.Provider
	// RegretFraction is `a` of Eq. 3.
	RegretFraction float64
	// InitialCredit seeds the account.
	InitialCredit money.Amount
	// Conservative providers only build what the account covers.
	Conservative bool
	// MaintFailureFactor triggers structure failure (footnote 3).
	MaintFailureFactor float64
	// NeverUsedFloor is the minimum arrears before a never-used
	// structure fails.
	NeverUsedFloor money.Amount
	// InvestBackoff multiplies the investment threshold per prior
	// failure of the same structure.
	InvestBackoff float64
	// LedgerCap bounds the regret ledger.
	LedgerCap int
	// TenantCap bounds distinct tenant ledgers per economy; overflow
	// names share one ledger. 0 takes the economy's generous default.
	TenantCap int
	// CacheFraction is the bypass cache size as a fraction of the
	// database ("the ideal cache size for net-only, which is 30%").
	CacheFraction float64
	// LoadFactor scales the bypass break-even rule: a column loads when
	// its accumulated yield exceeds LoadFactor × its size.
	LoadFactor float64
}

// DefaultParams returns the calibration used by the paper-figure
// experiments.
func DefaultParams(cat *catalog.Catalog) Params {
	return Params{
		Catalog:            cat,
		Schedule:           pricing.EC22008(),
		Tunables:           cost.DefaultTunables(),
		AmortN:             100_000,
		RegretFraction:     0.005,
		InitialCredit:      money.FromDollars(50),
		Conservative:       true,
		MaintFailureFactor: economy.DefaultMaintFailureFactor,
		NeverUsedFloor:     money.FromDollars(1),
		InvestBackoff:      2.0,
		LedgerCap:          4096,
		CacheFraction:      0.30,
		LoadFactor:         0.10,
	}
}

// withDefaults normalizes optional fields.
func (p Params) withDefaults() (Params, error) {
	if p.Catalog == nil {
		return p, fmt.Errorf("scheme: Catalog is required")
	}
	d := DefaultParams(p.Catalog)
	if p.Schedule == nil {
		p.Schedule = d.Schedule
	}
	if p.Tunables == (cost.Tunables{}) {
		p.Tunables = d.Tunables
	}
	if p.AmortN == 0 {
		p.AmortN = d.AmortN
	}
	if p.RegretFraction == 0 {
		p.RegretFraction = d.RegretFraction
	}
	if p.InitialCredit == 0 {
		p.InitialCredit = d.InitialCredit
	}
	if p.MaintFailureFactor == 0 {
		p.MaintFailureFactor = d.MaintFailureFactor
	}
	if p.NeverUsedFloor == 0 {
		p.NeverUsedFloor = d.NeverUsedFloor
	}
	if p.InvestBackoff == 0 {
		p.InvestBackoff = d.InvestBackoff
	}
	if p.LedgerCap == 0 {
		p.LedgerCap = d.LedgerCap
	}
	if p.CacheFraction == 0 {
		p.CacheFraction = d.CacheFraction
	}
	if p.LoadFactor == 0 {
		p.LoadFactor = d.LoadFactor
	}
	return p, nil
}

// Names lists the four schemes in canonical paper order.
var Names = []string{"bypass", "econ-col", "econ-cheap", "econ-fast"}

// New constructs a scheme by its paper name: "bypass", "econ-col",
// "econ-cheap" or "econ-fast".
func New(name string, p Params) (Scheme, error) {
	switch name {
	case "bypass":
		return NewBypass(p)
	case "econ-col":
		return NewEconCol(p)
	case "econ-cheap":
		return NewEconCheap(p)
	case "econ-fast":
		return NewEconFast(p)
	default:
		return nil, fmt.Errorf("scheme: unknown scheme %q", name)
	}
}

// Econ is an economy-driven scheme (econ-col, econ-cheap, econ-fast).
type Econ struct {
	name string
	ca   *cache.Cache
	opt  *optimizer.Optimizer
	eco  *economy.Economy
}

// newEcon wires an economy scheme.
func newEcon(name string, p Params, criterion economy.Criterion, kinds map[structure.Kind]bool, allowIdx, allowNodes bool) (*Econ, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	model, err := cost.NewModel(p.Catalog, p.Schedule, p.Tunables)
	if err != nil {
		return nil, err
	}
	ca := cache.New(0) // economy caches are disk-rent bounded, not capped
	opt, err := optimizer.New(optimizer.Config{
		Model:        model,
		AmortN:       p.AmortN,
		AllowIndexes: allowIdx,
		AllowNodes:   allowNodes,
	})
	if err != nil {
		return nil, err
	}
	eco, err := economy.New(economy.Config{
		Model:                 model,
		Cache:                 ca,
		Optimizer:             opt,
		Criterion:             criterion,
		Provider:              p.Provider,
		RegretFraction:        p.RegretFraction,
		AmortN:                p.AmortN,
		InitialCredit:         p.InitialCredit,
		Conservative:          p.Conservative,
		UserAcceptsOverBudget: true,
		MaintFailureFactor:    p.MaintFailureFactor,
		NeverUsedFloor:        p.NeverUsedFloor,
		InvestBackoff:         p.InvestBackoff,
		InvestKinds:           kinds,
		LedgerCap:             p.LedgerCap,
		TenantCap:             p.TenantCap,
	})
	if err != nil {
		return nil, err
	}
	return &Econ{name: name, ca: ca, opt: opt, eco: eco}, nil
}

// NewEconCol builds the econ-col scheme: columns only, cheapest plan
// ("similar to the net-only cache, in which query plan execution employs
// only cached columns and no indexes").
func NewEconCol(p Params) (*Econ, error) {
	return newEcon("econ-col", p, economy.SelectCheapest,
		map[structure.Kind]bool{structure.KindColumn: true}, false, false)
}

// NewEconCheap builds the econ-cheap scheme: full structure inventory,
// cheapest plan.
func NewEconCheap(p Params) (*Econ, error) {
	return newEcon("econ-cheap", p, economy.SelectCheapest, nil, true, true)
}

// NewEconFast builds the econ-fast scheme: full structure inventory,
// fastest affordable plan.
func NewEconFast(p Params) (*Econ, error) {
	return newEcon("econ-fast", p, economy.SelectFastest, nil, true, true)
}

// Name implements Scheme.
func (e *Econ) Name() string { return e.name }

// Cache implements Scheme.
func (e *Econ) Cache() *cache.Cache { return e.ca }

// Economy exposes the underlying economy for stats reporting.
func (e *Econ) Economy() *economy.Economy { return e.eco }

// SetEvents installs an economy event sink (see economy.SetEvents).
// Install at wiring time, before traffic.
func (e *Econ) SetEvents(fn func(obs.Event)) { e.eco.SetEvents(fn) }

// HandleQuery implements Scheme.
func (e *Econ) HandleQuery(q *workload.Query) (Result, error) {
	if err := step(e.ca, q); err != nil {
		return Result{}, err
	}
	plans, err := e.opt.Enumerate(q, e.ca)
	if err != nil {
		return Result{}, err
	}
	d, err := e.eco.HandleQuery(q, plans)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Case:             d.Case.String(),
		Declined:         d.Declined,
		Charged:          d.Charged,
		Profit:           d.Profit,
		BuildUsage:       e.eco.DrainBuildUsage(),
		Investments:      len(d.Investments),
		InvestConsidered: d.InvestConsidered,
		RegretAccrued:    d.RegretAccrued,
		Failures:         len(d.Failures),
	}
	if d.Chosen != nil {
		r.ResponseTime = d.Chosen.Time()
		r.Location = d.Chosen.Location
		r.ExecUsage = d.Chosen.Outcome.Usage
	}
	return r, nil
}

var _ Scheme = (*Econ)(nil)
