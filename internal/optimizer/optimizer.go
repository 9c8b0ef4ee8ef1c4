// Package optimizer enumerates and prices the candidate plan set PQ for an
// incoming query (§IV-B): the back-end plan, cache column-scan plans, index
// plans and parallel plans, each split into PQexist (all structures
// resident) or PQpos (needs investment). Prices follow the scheme's cost
// model: execution (Eq. 8–9), amortized build shares (Eq. 4–7) and
// maintenance arrears (footnote 3).
//
// The optimizer plans against a cache and speaks that cache's structure
// slots (structure.Registry): the first time it plans a template it
// registers the template's columns and index candidates and keeps the
// registry-owned structures, so residency and build-price lookups per
// query are slice reads, never string hashes. One query's cache plan
// variants — plain scan or index probe, on 1..MaxNodes nodes — share
// their column set, so Enumerate prices that set (and the picked index,
// and the growing node prefix) once and assembles the variants from the
// three priced pieces. Nothing here depends on slot numbers: plans list
// their structures in template order (columns, index, nodes), which is
// the order regret is split and settlements are reported in.
package optimizer

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Config parameterises an Optimizer.
type Config struct {
	// Model prices plans (the scheme's own schedule).
	Model *cost.Model
	// AmortN is the number of prospective queries a build cost is
	// amortized over (the `n` of Eq. 7). The paper leaves choosing n
	// open; see DESIGN.md.
	AmortN int64
	// AllowIndexes enables index plans (econ-cheap/econ-fast; off for
	// econ-col and bypass).
	AllowIndexes bool
	// AllowNodes enables multi-node parallel plans.
	AllowNodes bool
	// SkylineOnly keeps only time/cost-Pareto plans (footnote 2).
	SkylineOnly bool
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.Model == nil {
		return fmt.Errorf("optimizer: Model is required")
	}
	if c.AmortN <= 0 {
		return fmt.Errorf("optimizer: AmortN must be positive")
	}
	return nil
}

// Optimizer enumerates plans against a cache. It memoizes the immutable
// structure objects per template (IDs and sizes are on the per-query hot
// path), so it is NOT safe for concurrent use; each scheme owns one
// optimizer, matching the single-threaded simulation loop.
//
// Everything the optimizer remembers about structures is expressed in the
// slots of the cache's structure.Registry: the per-template tables hold
// registry-owned structures (Slot filled in), the build-price memo is a
// slice indexed by slot. The tables bind to the registry of the cache
// passed to Enumerate/BuildPrice and are rebuilt if a different cache
// shows up, so two optimizers planning against one cache — a scheme's
// own and an outside observer's — agree on every slot.
type Optimizer struct {
	cfg Config

	reg      *structure.Registry // registry the tables below are bound to
	tpls     map[*workload.Template]*tplSet
	cpuNodes []*structure.Structure // cpuNodes[i] is node ordinal i+2

	// scratch backs the slice Enumerate returns, reused across calls to
	// keep the per-query hot path free of slice growth.
	scratch []*plan.Plan

	// pool holds every *plan.Plan the optimizer has ever handed out;
	// Enumerate resets and reuses them from the front (used counts the
	// current call's consumption). Together with scratch this makes a
	// steady-state Enumerate allocation-free: PR 1 pooled the slice,
	// this extends the pattern to the Plan values themselves.
	pool []*plan.Plan
	used int

	// cols, idx and nodes are the three pieces every cache plan variant
	// of one query is assembled from: the template's column set, the
	// picked index, and the extra CPU nodes up to the variant's count.
	// Enumerate prices each piece once per query — residency, amortized
	// shares, maintenance arrears, missing list — and the variants share
	// the result instead of re-pricing the same columns per variant.
	cols, idx, nodes piece

	// priceMemo memoizes BuildPrice per slot for as long as the cache's
	// residency epoch stands still. Build prices depend only on the
	// model (fixed) and on which columns are resident, so between builds
	// and evictions — i.e. for almost every query — pricing a missing
	// candidate is a slice read instead of a full Eq. 10/12/14 walk over
	// the catalog.
	priceMemo []memoPrice
}

// tplSet is the structure inventory of one template: its columns
// (deduplicated, template order) and its index candidates (template
// order; empty when the optimizer plans no indexes).
type tplSet struct {
	cols  []*structure.Structure
	cands []*structure.Structure
}

// piece is the priced share of one group of structures in a plan.
type piece struct {
	amort   money.Amount           // Ca: resident shares plus Build/n of missing ones
	maint   money.Amount           // arrears of the resident ones
	missing []*structure.Structure // members not resident, in group order
}

func (pc *piece) reset() { *pc = piece{missing: pc.missing[:0]} }

// memoPrice is one memoized BuildPrice result, valid while stamp equals
// the cache epoch plus one (so the zero value is never valid).
type memoPrice struct {
	stamp int64
	price money.Amount
	out   cost.Outcome
}

// nextPlan returns a cleared plan from the pool, growing it on first
// use. Pooled plans keep their Structures set and Missing slice capacity
// across reuse.
func (o *Optimizer) nextPlan() *plan.Plan {
	if o.used < len(o.pool) {
		p := o.pool[o.used]
		o.used++
		p.Reset()
		return p
	}
	p := &plan.Plan{Structures: structure.NewSet()}
	o.pool = append(o.pool, p)
	o.used++
	return p
}

// New builds an optimizer.
func New(cfg Config) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Optimizer{cfg: cfg, tpls: make(map[*workload.Template]*tplSet)}, nil
}

// bind points the optimizer's slot tables at the cache's registry. Each
// cache owns one registry for life, so this is a pointer compare per call
// and a rebuild only when the optimizer meets a different cache.
func (o *Optimizer) bind(ca *cache.Cache) {
	reg := ca.Registry()
	if o.reg == reg {
		return
	}
	o.reg = reg
	clear(o.tpls)
	clear(o.priceMemo)
	o.cpuNodes = o.cpuNodes[:0]
	for n := 2; n <= o.cfg.Model.Tunables().MaxNodes; n++ {
		o.cpuNodes = append(o.cpuNodes, reg.Register(structure.CPUNode(n)))
	}
}

// setFor returns the memoized structure inventory of a template,
// registering its columns and index candidates on first sight.
func (o *Optimizer) setFor(tpl *workload.Template) (*tplSet, error) {
	if set, ok := o.tpls[tpl]; ok {
		return set, nil
	}
	cat := o.cfg.Model.Catalog()
	set := &tplSet{cols: make([]*structure.Structure, 0, len(tpl.Columns))}
	for _, ref := range tpl.Columns {
		st, err := o.reg.Column(cat, ref)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(set.cols, st) {
			set.cols = append(set.cols, st)
		}
	}
	if o.cfg.AllowIndexes {
		for _, def := range tpl.IndexCandidates {
			st, err := o.reg.Index(cat, def)
			if err != nil {
				return nil, err
			}
			set.cands = append(set.cands, st)
		}
	}
	o.tpls[tpl] = set
	return set, nil
}

// Enumerate produces the priced plan set PQ for the query given the current
// cache state. The back-end plan is always present and always runnable, so
// PQexist is never empty.
//
// Aliasing contract: the returned slice AND the *Plan values it holds
// are owned by the optimizer — the slice is backed by a per-optimizer
// scratch buffer and the plans come from a pool that the next Enumerate
// call resets and reuses. Everything (including the Structures sets and
// Missing slices inside each plan) is only valid until the next
// Enumerate call; callers that outlive one query's handling must deep-
// copy what they keep. This holds for the SkylineOnly path too: Skyline
// returns a fresh slice but it aliases the same pooled plans. The
// *structure.Structure values inside the plans are the cache registry's
// own and outlive the call; their Slot fields index that cache's state.
func (o *Optimizer) Enumerate(q *workload.Query, ca *cache.Cache) ([]*plan.Plan, error) {
	if q == nil || ca == nil {
		return nil, fmt.Errorf("optimizer: query and cache are required")
	}
	o.bind(ca)
	set, err := o.setFor(q.Template)
	if err != nil {
		return nil, err
	}
	o.used = 0
	plans := o.scratch[:0]

	backend, err := o.backendPlan(q)
	if err != nil {
		return nil, err
	}
	plans = append(plans, backend)

	maxNodes := 1
	if o.cfg.AllowNodes {
		maxNodes = o.cfg.Model.Tunables().MaxNodes
	}
	if !q.Template.Parallelizable {
		maxNodes = 1
	}

	// Price the pieces the variants share, once: all template columns
	// must be resident for a cache plan to run, and every index variant
	// probes the same index.
	o.cols.reset()
	for _, st := range set.cols {
		if err := o.price(&o.cols, ca, st); err != nil {
			return nil, err
		}
	}
	o.idx.reset()
	index := pickIndex(set, ca)
	if index != nil {
		if err := o.price(&o.idx, ca, index); err != nil {
			return nil, err
		}
	}
	o.nodes.reset()
	for nodes := 1; nodes <= maxNodes; nodes++ {
		if nodes > 1 {
			// The piece grows with the variant: nodes 2..n.
			if err := o.price(&o.nodes, ca, o.cpuNodes[nodes-2]); err != nil {
				return nil, err
			}
		}
		p, err := o.cachePlan(q, set, nil, nodes)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
		if index != nil {
			ip, err := o.cachePlan(q, set, index, nodes)
			if err != nil {
				return nil, err
			}
			plans = append(plans, ip)
		}
	}

	o.scratch = plans
	if o.cfg.SkylineOnly {
		// Skyline copies into a fresh slice, so the scratch stays free
		// for the next call and the caller gets an independent result.
		return plan.Skyline(plans), nil
	}
	return plans, nil
}

// pickIndex chooses the index this query's plans would use: a resident
// matching candidate if one exists (cheapest to use), otherwise the first
// candidate in template order (the one regret should accrue to). Returns
// nil when the template has no candidates or indexes are not planned.
func pickIndex(set *tplSet, ca *cache.Cache) *structure.Structure {
	if len(set.cands) == 0 {
		return nil
	}
	for _, st := range set.cands {
		if ca.At(st.Slot) != nil {
			return st
		}
	}
	return set.cands[0]
}

// backendPlan prices Eq. 9 execution. It uses no cache structures.
func (o *Optimizer) backendPlan(q *workload.Query) (*plan.Plan, error) {
	out, err := o.cfg.Model.BackendExec(q)
	if err != nil {
		return nil, err
	}
	p := o.nextPlan()
	p.Query = q
	p.Location = plan.Backend
	p.Nodes = 1
	p.Outcome = out
	p.ExecPrice = cost.Price(o.cfg.Model.Schedule(), out.Usage)
	return p, nil
}

// cachePlan assembles one cache-resident plan variant from the pieces
// Enumerate priced for this query: the column set, the index (nil for a
// plain scan) and the extra CPU nodes up to `nodes`.
func (o *Optimizer) cachePlan(q *workload.Query, set *tplSet, index *structure.Structure, nodes int) (*plan.Plan, error) {
	m := o.cfg.Model
	out, err := m.CacheExec(q, index != nil, nodes)
	if err != nil {
		return nil, err
	}
	p := o.nextPlan()
	p.Query = q
	p.Location = plan.Cache
	p.Nodes = nodes
	p.Outcome = out
	p.ExecPrice = cost.Price(m.Schedule(), out.Usage)

	p.Structures.Extend(set.cols...)
	p.AmortPrice = o.cols.amort
	p.MaintPrice = o.cols.maint
	p.Missing = append(p.Missing, o.cols.missing...)
	if index != nil {
		p.UsesIndex = true
		p.Index = index.ID
		p.Structures.Extend(index)
		p.AmortPrice = p.AmortPrice.Add(o.idx.amort)
		p.MaintPrice = p.MaintPrice.Add(o.idx.maint)
		p.Missing = append(p.Missing, o.idx.missing...)
	}
	p.Structures.Extend(o.cpuNodes[:nodes-1]...)
	p.AmortPrice = p.AmortPrice.Add(o.nodes.amort)
	p.MaintPrice = p.MaintPrice.Add(o.nodes.maint)
	p.Missing = append(p.Missing, o.nodes.missing...)
	return p, nil
}

// price adds one structure to a piece: the amortized share and
// maintenance arrears of a resident structure, or — for a missing one —
// the amortized share of its build cost (Eq. 6–7 applied to prospective
// inventory: the first of the n amortizing queries would pay Build/n).
func (o *Optimizer) price(pc *piece, ca *cache.Cache, st *structure.Structure) error {
	if e := ca.At(st.Slot); e != nil {
		pc.amort = pc.amort.Add(cache.AmortShare(e, o.cfg.AmortN))
		pc.maint = pc.maint.Add(o.maintDue(ca, e))
		return nil
	}
	price, _, err := o.BuildPrice(st, ca)
	if err != nil {
		return err
	}
	pc.amort = pc.amort.Add(price.DivInt(o.cfg.AmortN))
	pc.missing = append(pc.missing, st)
	return nil
}

// maintDue prices the maintenance arrears of a resident entry at the
// current cache clock.
func (o *Optimizer) maintDue(ca *cache.Cache, e *cache.Entry) money.Amount {
	return cache.MaintDue(e, func(e *cache.Entry) money.Amount {
		return o.cfg.Model.MaintCost(e.S.Kind == structure.KindCPUNode, e.S.Bytes, ca.Clock()-e.MaintPaidUntil)
	})
}

// BuildPrice returns the price and the build duration of constructing a
// structure now, under the optimizer's model and the current cache state
// (Eq. 10, 12, 14).
func (o *Optimizer) BuildPrice(st *structure.Structure, ca *cache.Cache) (money.Amount, cost.Outcome, error) {
	o.bind(ca)
	slot := o.reg.SlotOf(st)
	if int(slot) >= len(o.priceMemo) {
		o.priceMemo = structure.Grow(o.priceMemo, o.reg)
	}
	memo := &o.priceMemo[slot]
	stamp := ca.Epoch() + 1
	if memo.stamp == stamp {
		return memo.price, memo.out, nil
	}
	m := o.cfg.Model
	var out cost.Outcome
	var err error
	switch st.Kind {
	case structure.KindCPUNode:
		out = m.BuildCPUNode()
	case structure.KindColumn:
		out, err = m.BuildColumn(st.Column)
	case structure.KindIndex:
		out, err = m.BuildIndex(st.Index, func(ref catalog.ColumnRef) bool {
			return ca.At(o.reg.ColumnSlot(ref)) != nil
		})
	default:
		err = fmt.Errorf("optimizer: unknown structure kind %v", st.Kind)
	}
	if err != nil {
		return 0, cost.Outcome{}, err
	}
	price := cost.Price(m.Schedule(), out.Usage)
	*memo = memoPrice{stamp: stamp, price: price, out: out}
	return price, out, nil
}

// Config returns the optimizer configuration.
func (o *Optimizer) Config() Config { return o.cfg }
