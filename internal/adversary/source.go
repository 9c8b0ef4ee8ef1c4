package adversary

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/workload"
)

// Config parameterises one adversary stream.
type Config struct {
	// Strategy selects the attack. Required.
	Strategy Strategy
	// Catalog sizes the queries. Required.
	Catalog *catalog.Catalog
	// Templates is the template pool. Defaults to PaperTemplates().
	Templates []*workload.Template
	// Seed makes the stream reproducible.
	Seed int64
	// Tenant is the adversary's ledger name. Defaults to "mallory".
	// ShardStorm appends "-0" … "-3" for its coordinated sub-tenants.
	Tenant string
	// Honest builds the strategy's honest twin: the same templates,
	// selectivities and long-run rate, but truthful budget declarations
	// and undistorted timing. The exploitability of a strategy is the
	// adversary's outcome minus its honest twin's.
	Honest bool
	// MeanGap is the adversary's long-run mean inter-arrival time.
	// Defaults to 5 s.
	MeanGap time.Duration
	// Truth prices the adversary's honest willingness to pay. Defaults
	// to DefaultScaledPolicy — the same calibration honest tenants use.
	Truth *workload.ScaledPolicy
}

// Source emits one adversary tenant's query stream. It implements
// workload.Source; merge it with an honest background generator via
// workload.NewMerge. Every emitted query carries its truthful budget in
// Query.Truth so audits can quote the honest counterfactual.
type Source struct {
	cfg Config
	// rng drives the intent stream (templates, selectivities, hot-spot
	// rotation); timingRng drives everything that legitimately differs
	// between a strategy and its honest twin (arrival gaps, the honest
	// storm's load spreading). Splitting them keeps the intent stream
	// byte-identical across the twin pair.
	rng       *rand.Rand
	timingRng *rand.Rand
	clock     time.Duration
	next      int64

	hot       int // index of the currently targeted template
	burstLeft int // flash-crowd: queries remaining in the burst
	phaseLeft int // shard-storm: queries before the storm rotates
	storm     int // shard-storm: round-robin sub-tenant cursor
}

const (
	// Free-rider bid: 2 % of the truthful valuation.
	freeRideFraction = 0.02
	// Regret-inflater declaration: 100× the truthful price, expired
	// after 750 ms — outside every runnable plan, inside the fast plans
	// whose Eq. 2 regret it inflates.
	inflateFactor = 100
	inflateTMax   = 750 * time.Millisecond
	// Flash-crowd geometry: burstSize queries 20 ms apart, then silence
	// long enough to keep the long-run rate at MeanGap.
	burstSize = 30
	burstGap  = 20 * time.Millisecond
	// Shard-storm geometry: 4 coordinated sub-tenants, rotating target
	// every stormPhase queries.
	stormTenants = 4
	stormPhase   = 120
	stormGap     = 100 * time.Millisecond
)

// New validates the config and builds the adversary source.
func New(cfg Config) (*Source, error) {
	if _, err := Parse(string(cfg.Strategy)); err != nil {
		return nil, err
	}
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("adversary: Config.Catalog is required")
	}
	if len(cfg.Templates) == 0 {
		cfg.Templates = workload.PaperTemplates()
	}
	for _, t := range cfg.Templates {
		if err := t.Validate(cfg.Catalog); err != nil {
			return nil, err
		}
	}
	if cfg.Tenant == "" {
		cfg.Tenant = "mallory"
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = 5 * time.Second
	}
	if cfg.Truth == nil {
		cfg.Truth = workload.DefaultScaledPolicy()
	}
	return &Source{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		timingRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995bd1e995)),
	}, nil
}

// Tenants lists every ledger name the stream writes under.
func (s *Source) Tenants() []string {
	if s.cfg.Strategy != ShardStorm {
		return []string{s.cfg.Tenant}
	}
	out := make([]string, stormTenants)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", s.cfg.Tenant, i)
	}
	return out
}

// Next produces the adversary's next query. The template, selectivity
// and long-run rate draws are identical for the strategy and its honest
// twin — only the declaration (and, for the behavioral strategies, the
// timing) differs.
func (s *Source) Next() *workload.Query {
	tpl, tenant := s.pick()
	sel := tpl.SelMin + s.rng.Float64()*(tpl.SelMax-tpl.SelMin)
	s.clock += s.gap()
	s.next++

	q := &workload.Query{
		ID:          s.next,
		Tenant:      tenant,
		Template:    tpl,
		Selectivity: sel,
		Arrival:     s.clock,
	}
	sz, err := q.Sizes(s.cfg.Catalog)
	if err != nil {
		panic(fmt.Sprintf("adversary: sizing validated template: %v", err))
	}
	truth := s.cfg.Truth.BudgetFor(q, sz.Scan, sz.Result)
	q.Truth = truth
	q.Budget = s.declare(truth)
	return q
}

// pick chooses the template and sub-tenant for the next query, advancing
// the strategy's targeting state.
func (s *Source) pick() (*workload.Template, string) {
	tpls := s.cfg.Templates
	tenant := s.cfg.Tenant
	switch s.cfg.Strategy {
	case FlashCrowd:
		// One hot template per burst; the draw advancing `hot` happens
		// on burst boundaries for twin parity (the honest twin keeps the
		// same hot-template sequence at uniform spacing).
		if s.burstLeft == 0 {
			s.burstLeft = burstSize
			s.hot = s.rng.Intn(len(tpls))
		}
		s.burstLeft--
		return tpls[s.hot], tenant
	case ShardStorm:
		if s.phaseLeft == 0 {
			s.phaseLeft = stormPhase
			s.hot = s.rng.Intn(len(tpls))
		}
		s.phaseLeft--
		sub := fmt.Sprintf("%s-%d", tenant, s.storm%stormTenants)
		s.storm++
		if s.cfg.Honest {
			// The honest twin spreads the same sub-tenants' load across
			// the pool instead of concentrating it.
			return tpls[s.timingRng.Intn(len(tpls))], sub
		}
		return tpls[s.hot], sub
	default:
		// The declaration strategies concentrate moderately on a hot
		// template (freeloading pays where structures are shared) but
		// keep enough spread to exercise many ledger entries.
		if s.next%97 == 0 || s.next == 0 {
			s.hot = s.rng.Intn(len(tpls))
		}
		if s.rng.Float64() < 0.7 {
			return tpls[s.hot], tenant
		}
		return tpls[s.rng.Intn(len(tpls))], tenant
	}
}

// gap draws the next inter-arrival gap.
func (s *Source) gap() time.Duration {
	switch s.cfg.Strategy {
	case FlashCrowd:
		if !s.cfg.Honest {
			if s.burstLeft == burstSize-1 {
				// First query of a burst: the preceding silence restores
				// the long-run rate the honest twin runs at uniformly.
				return time.Duration(burstSize) * (s.cfg.MeanGap - burstGap)
			}
			return burstGap
		}
	case ShardStorm:
		// The storm's lie is concentration, not timing: the twin keeps
		// the same dense cadence.
		return stormGap
	}
	// Exponential arrivals around the mean, floored at 1 ms.
	g := time.Duration(float64(s.cfg.MeanGap) * s.timingRng.ExpFloat64())
	if g < time.Millisecond {
		g = time.Millisecond
	}
	return g
}

// declare turns the truthful budget into the declared one.
func (s *Source) declare(truth budget.Func) budget.Func {
	if s.cfg.Honest {
		return truth
	}
	price, tmax := truthParams(truth)
	switch s.cfg.Strategy {
	case FreeRider:
		bid := price.MulFloat(freeRideFraction)
		if bid <= 0 {
			bid = money.Amount(1)
		}
		return budget.NewStep(bid, tmax)
	case RegretInflater:
		return budget.NewStep(price.MulInt(inflateFactor), inflateTMax)
	case ShapeBluffer:
		return budget.NewConvex(price, tmax, 2)
	default:
		// The behavioral strategies declare truthfully; the lie is in
		// the timing.
		return truth
	}
}

// truthParams recovers the (price, tmax) the truth policy baked into its
// step budget.
func truthParams(truth budget.Func) (money.Amount, time.Duration) {
	tmax := truth.Tmax()
	return truth.At(time.Nanosecond), tmax
}

// Batch appends the next n queries to buf and returns it.
func (s *Source) Batch(n int, buf []*workload.Query) []*workload.Query {
	for i := 0; i < n; i++ {
		buf = append(buf, s.Next())
	}
	return buf
}

// Clock reports the arrival time of the last query produced.
func (s *Source) Clock() time.Duration { return s.clock }

var _ workload.Source = (*Source)(nil)
