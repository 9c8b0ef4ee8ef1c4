package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/catalog"
)

// Config parameterises a Generator.
type Config struct {
	// Catalog sizes all templates. Required.
	Catalog *catalog.Catalog
	// Templates is the template pool. Defaults to PaperTemplates().
	Templates []*Template
	// Seed makes the stream reproducible.
	Seed int64
	// Arrival is the inter-arrival process. Defaults to fixed 10 s.
	Arrival ArrivalProcess
	// Budgets assigns budget functions. Defaults to DefaultScaledPolicy.
	Budgets BudgetPolicy
	// Theta is the Zipf skew of template popularity within a phase.
	// Defaults to 1.1 (strong temporal locality, §VI).
	Theta float64
	// PhaseLength is the number of queries per evolution phase. After
	// each phase the popularity ranking rotates by EvolutionStride, so
	// the hot template set drifts over the stream like the SDSS query
	// evolution the paper simulates. Defaults to 20 000; 0 disables
	// evolution when EvolutionStride is also 0.
	PhaseLength int
	// EvolutionStride is the number of rank positions the popularity
	// order rotates between phases. Defaults to 1.
	EvolutionStride int
	// Tenants spreads the stream across this many synthetic tenants
	// ("tenant-000" … "tenant-NNN"), drawn per query with Zipf skew
	// TenantTheta from a dedicated RNG — so the query stream itself
	// (templates, selectivities, arrivals, budgets) is byte-identical
	// for any tenant configuration. 0 leaves queries untagged.
	Tenants int
	// TenantTheta is the Zipf skew of tenant popularity (0 = uniform).
	// Only meaningful when Tenants > 0.
	TenantTheta float64
}

// withDefaults fills the optional fields.
func (c Config) withDefaults() (Config, error) {
	if c.Catalog == nil {
		return c, fmt.Errorf("workload: Config.Catalog is required")
	}
	if len(c.Templates) == 0 {
		c.Templates = PaperTemplates()
	}
	for _, t := range c.Templates {
		if err := t.Validate(c.Catalog); err != nil {
			return c, err
		}
	}
	if c.Arrival == nil {
		c.Arrival = NewFixedArrival(10 * time.Second)
	}
	if c.Budgets == nil {
		c.Budgets = DefaultScaledPolicy()
	}
	if c.Theta == 0 {
		c.Theta = 1.1
	}
	if c.Theta < 0 {
		return c, fmt.Errorf("workload: Theta must be >= 0")
	}
	if c.PhaseLength == 0 {
		c.PhaseLength = 20_000
	}
	if c.PhaseLength < 0 {
		return c, fmt.Errorf("workload: PhaseLength must be >= 0")
	}
	if c.EvolutionStride == 0 {
		c.EvolutionStride = 1
	}
	if c.EvolutionStride < 0 {
		return c, fmt.Errorf("workload: EvolutionStride must be >= 0")
	}
	if c.Tenants < 0 {
		return c, fmt.Errorf("workload: Tenants must be >= 0")
	}
	if c.TenantTheta < 0 {
		return c, fmt.Errorf("workload: TenantTheta must be >= 0")
	}
	return c, nil
}

// Generator produces a deterministic query stream. It is not safe for
// concurrent use; each simulation owns its generator.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	zipf  *Zipf
	order []int // order[rank] = template index; rotated between phases

	// Tenant draws come from their own RNG and sampler so tagging a
	// stream with tenants never perturbs the template/selectivity/
	// arrival draws of the main rng.
	tenantRng  *rand.Rand
	tenantZipf *Zipf
	tenantName []string

	nextID  int64
	clock   time.Duration
	inPhase int
}

// NewGenerator validates the config and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	z, err := NewZipf(len(cfg.Templates), cfg.Theta)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(cfg.Templates))
	for i := range order {
		order[i] = i
	}
	g := &Generator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		zipf:  z,
		order: order,
	}
	if cfg.Tenants > 0 {
		tz, err := NewZipf(cfg.Tenants, cfg.TenantTheta)
		if err != nil {
			return nil, err
		}
		g.tenantZipf = tz
		// Decorrelate from the main stream but stay a pure function of
		// the seed.
		g.tenantRng = rand.New(rand.NewSource(cfg.Seed ^ 0x7e4a7e4a7e4a7e4a))
		g.tenantName = make([]string, cfg.Tenants)
		for i := range g.tenantName {
			g.tenantName[i] = fmt.Sprintf("tenant-%03d", i)
		}
	}
	return g, nil
}

// Next produces the next query in the stream. The query is freshly
// allocated and the caller's to keep: nothing the generator does later
// touches it.
func (g *Generator) Next() *Query {
	q := new(Query)
	g.fill(q)
	return q
}

// fill overwrites q with the next query of the stream.
func (g *Generator) fill(q *Query) {
	// Advance the evolution phase.
	if g.cfg.PhaseLength > 0 && g.inPhase >= g.cfg.PhaseLength {
		g.rotate(g.cfg.EvolutionStride)
		g.inPhase = 0
	}
	g.inPhase++

	rank := g.zipf.Sample(g.rng)
	tpl := g.cfg.Templates[g.order[rank]]

	sel := tpl.SelMin + g.rng.Float64()*(tpl.SelMax-tpl.SelMin)

	gap := g.cfg.Arrival.NextGap(g.rng)
	if gap < 0 {
		gap = 0
	}
	g.clock += gap
	g.nextID++

	*q = Query{
		ID:          g.nextID,
		Template:    tpl,
		Selectivity: sel,
		Arrival:     g.clock,
	}
	if g.tenantZipf != nil {
		q.Tenant = g.tenantName[g.tenantZipf.Sample(g.tenantRng)]
	}
	sz, err := q.Sizes(g.cfg.Catalog)
	if err != nil {
		// Templates were validated at construction; a failure here is
		// a programming error.
		panic(fmt.Sprintf("workload: sizing validated template: %v", err))
	}
	q.Budget = g.cfg.Budgets.BudgetFor(q, sz.Scan, sz.Result)
}

// rotate shifts the popularity order by n positions: the template that was
// hottest becomes n-th, and cooler templates move up.
func (g *Generator) rotate(n int) {
	if len(g.order) == 0 {
		return
	}
	// Rotate left by n in place: reverse each part, then the whole.
	n %= len(g.order)
	slices.Reverse(g.order[:n])
	slices.Reverse(g.order[n:])
	slices.Reverse(g.order)
}

// Generate materialises n queries, each freshly allocated and the
// caller's to keep, like Next's. For long streams prefer Batch with a
// recycled buffer to keep memory flat.
func (g *Generator) Generate(n int) []*Query {
	return g.Batch(n, make([]*Query, 0, n))
}

// Batch appends the next n queries of the stream to buf and returns it.
// The stream is identical to n calls of Next; like Next, Batch must only
// be called by the generator's single owner.
//
// Batch recycles: where buf's spare capacity already holds queries —
// those of an earlier batch the caller passes back as buf[:0] — they are
// overwritten in place instead of allocating new ones (only a query's
// boxed Budget is allocated afresh). So pass back only a batch that is
// dead: every query of it handled and nothing still pointing at one,
// and only to the generator that filled it. A nil or fresh buf recycles
// nothing, and the queries it comes back with are the caller's to keep
// until it hands them back.
func (g *Generator) Batch(n int, buf []*Query) []*Query {
	spare := buf[len(buf):cap(buf)] // what an earlier batch left behind
	for i := 0; i < n; i++ {
		var q *Query
		if i < len(spare) {
			q = spare[i]
		}
		if q == nil {
			q = new(Query)
		}
		g.fill(q)
		buf = append(buf, q)
	}
	return buf
}

// Clock returns the arrival time of the most recently generated query.
func (g *Generator) Clock() time.Duration { return g.clock }

// Templates exposes the validated template pool (shared; do not mutate).
func (g *Generator) Templates() []*Template { return g.cfg.Templates }
