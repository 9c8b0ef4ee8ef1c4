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
// registry-owned structures. Which structures a plan variant — plain scan
// or index probe, on 1..MaxNodes nodes — uses, which of them are missing,
// what a missing one costs to build and its Build/n share change only
// when the cache's residency changes, so all of that is compiled into a
// per-template plan table once per cache.Epoch(); a query then pays for
// what only it can change: its own size, the execution outcomes, and each
// resident structure's amortized share and arrears. Nothing here depends
// on slot numbers: plans list their structures in template order
// (columns, index, nodes), which is the order regret is split and
// settlements are reported in.
package optimizer

import (
	"fmt"
	"slices"
	"time"

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

// Optimizer enumerates plans against a cache. It keeps per-template plan
// tables and pooled plans, so it is NOT safe for concurrent use; each
// scheme owns one optimizer, matching the single-threaded simulation loop.
//
// Everything the optimizer remembers about structures is expressed in the
// slots of the cache's structure.Registry: the plan tables hold
// registry-owned structures (Slot filled in), the build-price memo is a
// slice indexed by slot. Both bind to the registry of the cache passed to
// Enumerate/BuildPrice and are rebuilt if a different cache shows up, and
// both are stamped with the cache's residency epoch, so two optimizers
// planning against one cache — a scheme's own and an outside observer's —
// agree on every slot and every price.
type Optimizer struct {
	cfg Config

	reg      *structure.Registry // registry the tables below are bound to
	tpls     map[*workload.Template]*planTable
	cpuNodes []*structure.Structure // cpuNodes[i] is node ordinal i+2

	// scratch backs the slice Enumerate returns and pool holds every
	// *plan.Plan the optimizer has ever handed out; Enumerate refills both
	// from the front, so a steady-state call allocates nothing. none is
	// the back-end plans' (empty) structure set.
	scratch []*plan.Plan
	pool    []*plan.Plan
	used    int
	none    *structure.Set

	// priceMemo memoizes BuildPrice per slot for as long as the cache's
	// residency epoch stands still. Build prices depend only on the
	// model (fixed) and on which columns are resident.
	priceMemo []memoPrice
}

// planTable is what the optimizer keeps per template. cols and cands are
// the template's structure inventory — its columns (deduplicated) and its
// index candidates (empty when the optimizer plans no indexes), both in
// template order — registered on first sight and fixed for the registry's
// life. The rest is the template's cache plan set compiled against one
// residency epoch; the pooled plans Enumerate hands out point into it.
type planTable struct {
	cols, cands []*structure.Structure

	stamp int64                // cache epoch + 1 the fields below were compiled at; 0 = never
	index *structure.Structure // the index the probe variants use, nil for none
	// The three groups every variant is assembled from: the column set,
	// the picked index, and one piece per extra CPU node (nodes[i] is node
	// ordinal i+2). Variants share their pieces, so a query prices each
	// resident structure once however many variants employ it.
	colPiece, idxPiece piece
	nodes              []piece
	// variants is the cache plan set in plan order: per node count, the
	// plain scan, then the index probe when an index was picked.
	variants []variant
}

// piece is one group of structures as the current epoch sees it.
type piece struct {
	// build is Σ Build/n over the missing members: the amortized share of
	// their build cost (Eq. 6–7 applied to prospective inventory — the
	// first of the n amortizing queries would pay Build/n).
	build money.Amount
	// resident holds the members' cache entries; their amortized shares
	// and maintenance arrears are the per-query terms of a plan's price.
	resident []*cache.Entry
	// missing lists the members not resident, in group order.
	missing []*structure.Structure
}

// variant is one cache plan of the table. set and missing are shared by
// every plan enumerated from the variant until the table is recompiled.
type variant struct {
	nodes   int
	index   *structure.Structure // nil for the plain scan
	set     *structure.Set
	missing []*structure.Structure
}

// memoPrice is one memoized BuildPrice result, valid while stamp equals
// the cache epoch plus one (so the zero value is never valid).
type memoPrice struct {
	stamp int64
	price money.Amount
	out   cost.Outcome
}

// New builds an optimizer.
func New(cfg Config) (*Optimizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Optimizer{cfg: cfg, tpls: make(map[*workload.Template]*planTable), none: structure.NewSet()}, nil
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

// tableFor returns the template's plan table compiled for the cache's
// current epoch, registering the template's columns and index candidates
// on first sight and recompiling when the epoch has moved.
func (o *Optimizer) tableFor(tpl *workload.Template, ca *cache.Cache) (*planTable, error) {
	tb, ok := o.tpls[tpl]
	if !ok {
		cat := o.cfg.Model.Catalog()
		tb = &planTable{cols: make([]*structure.Structure, 0, len(tpl.Columns))}
		for _, ref := range tpl.Columns {
			st, err := o.reg.Column(cat, ref)
			if err != nil {
				return nil, err
			}
			if !slices.Contains(tb.cols, st) {
				tb.cols = append(tb.cols, st)
			}
		}
		if o.cfg.AllowIndexes {
			for _, def := range tpl.IndexCandidates {
				st, err := o.reg.Index(cat, def)
				if err != nil {
					return nil, err
				}
				tb.cands = append(tb.cands, st)
			}
		}
		o.tpls[tpl] = tb
	}
	if stamp := ca.Epoch() + 1; tb.stamp != stamp {
		tb.stamp = 0 // a failed compile leaves no half-built table behind
		if err := o.compile(tb, tpl, ca); err != nil {
			return nil, err
		}
		tb.stamp = stamp
	}
	return tb, nil
}

// compile rebuilds the epoch-dependent half of a plan table: the picked
// index, the three pieces, and every variant's missing list — refilled in
// place; plans of an earlier Enumerate that still point at one are past
// their contract. The variants' structure sets are built once per picked
// index and never written again.
func (o *Optimizer) compile(tb *planTable, tpl *workload.Template, ca *cache.Cache) error {
	maxNodes := 1
	if o.cfg.AllowNodes && tpl.Parallelizable {
		maxNodes = o.cfg.Model.Tunables().MaxNodes
	}
	// All template columns must be resident for a cache plan to run, and
	// every index variant probes the same index.
	index := pickIndex(tb.cands, ca)
	if err := o.place(&tb.colPiece, ca, tb.cols...); err != nil {
		return err
	}
	if index != nil {
		if err := o.place(&tb.idxPiece, ca, index); err != nil {
			return err
		}
	}
	if tb.nodes == nil {
		tb.nodes = make([]piece, maxNodes-1)
	}
	for i := range tb.nodes {
		if err := o.place(&tb.nodes[i], ca, o.cpuNodes[i]); err != nil {
			return err
		}
	}

	// A variant's structure set depends on the epoch only through the
	// picked index; its missing list is its pieces', concatenated.
	if tb.variants == nil || index != tb.index {
		tb.index = index
		perNode := 1
		if index != nil {
			perNode = 2
		}
		tb.variants = make([]variant, maxNodes*perNode)
		for i := range tb.variants {
			v := &tb.variants[i]
			v.nodes, v.set = i/perNode+1, structure.NewSet()
			v.set.Extend(tb.cols...)
			if i%perNode == 1 {
				v.index = index
				v.set.Extend(index)
			}
			v.set.Extend(o.cpuNodes[:v.nodes-1]...)
		}
	}
	for i := range tb.variants {
		v := &tb.variants[i]
		v.missing = append(v.missing[:0], tb.colPiece.missing...)
		if v.index != nil {
			v.missing = append(v.missing, tb.idxPiece.missing...)
		}
		for _, pc := range tb.nodes[:v.nodes-1] {
			v.missing = append(v.missing, pc.missing...)
		}
	}
	return nil
}

// place sorts a group's members into a piece by residency, pricing the
// missing ones' Build/n shares.
func (o *Optimizer) place(pc *piece, ca *cache.Cache, members ...*structure.Structure) error {
	clear(pc.resident) // drop evicted entries the old epoch held
	*pc = piece{resident: pc.resident[:0], missing: pc.missing[:0]}
	for _, st := range members {
		if e := ca.At(st.Slot); e != nil {
			pc.resident = append(pc.resident, e)
			continue
		}
		price, _, err := o.BuildPrice(st, ca)
		if err != nil {
			return err
		}
		pc.build = pc.build.Add(price.DivInt(o.cfg.AmortN))
		pc.missing = append(pc.missing, st)
	}
	return nil
}

// due prices a piece for one query at cache clock now: Ca — the missing
// members' compiled Build/n plus each resident's amortized share — and
// the residents' maintenance arrears.
func (o *Optimizer) due(pc *piece, now time.Duration) (amort, maint money.Amount) {
	amort = pc.build
	for _, e := range pc.resident {
		amort = amort.Add(cache.AmortShare(e, o.cfg.AmortN))
		rent := o.cfg.Model.MaintCost(e.S.Kind == structure.KindCPUNode, e.S.Bytes, now-e.MaintPaidUntil)
		maint = maint.Add(e.UnpaidMaint.Add(rent))
	}
	return amort, maint
}

// nextPlan returns a pooled plan for Enumerate to overwrite — every field
// of it — growing the pool on first use.
func (o *Optimizer) nextPlan() *plan.Plan {
	if o.used == len(o.pool) {
		o.pool = append(o.pool, new(plan.Plan))
	}
	o.used++
	return o.pool[o.used-1]
}

// Enumerate produces the priced plan set PQ for the query given the current
// cache state. The back-end plan is always present and always runnable, so
// PQexist is never empty.
//
// Aliasing contract: the returned slice AND the *Plan values it holds
// are owned by the optimizer — the slice is backed by a per-optimizer
// scratch buffer and the plans come from a pool that the next Enumerate
// call overwrites. The Structures sets and Missing slices inside the
// plans belong to the optimizer's per-template tables, shared between the
// plans of one variant and rewritten when the cache's residency next
// changes: read-only for the caller. Everything is only valid until the
// next Enumerate call; callers that outlive one query's handling must
// deep-copy what they keep. This holds for the SkylineOnly path too:
// Skyline returns a fresh slice but it aliases the same pooled plans. The
// *structure.Structure values inside the plans are the cache registry's
// own and outlive the call; their Slot fields index that cache's state.
//
// The plans keep q in their Query field for as long as they are valid, so
// q must stay untouched until the next Enumerate — a query stream that
// recycles its queries (workload.Source.Batch) may only reclaim q after
// that, which handing back a batch whose every query has been handled
// guarantees.
func (o *Optimizer) Enumerate(q *workload.Query, ca *cache.Cache) ([]*plan.Plan, error) {
	if q == nil || ca == nil {
		return nil, fmt.Errorf("optimizer: query and cache are required")
	}
	o.bind(ca)
	tb, err := o.tableFor(q.Template, ca)
	if err != nil {
		return nil, err
	}
	m := o.cfg.Model
	sz, err := q.Sizes(m.Catalog())
	if err != nil {
		return nil, err
	}
	sched := m.Schedule()
	o.used = 0
	plans := o.scratch[:0]

	// Eq. 9: the back-end plan uses no cache structures. Pooled plans are
	// overwritten field by field — a whole-struct store would copy every
	// plan through the stack and the collector's bulk write barrier.
	p := o.nextPlan()
	p.Query, p.Location, p.Structures, p.Nodes = q, plan.Backend, o.none, 1
	p.UsesIndex, p.Index = false, ""
	p.Outcome = m.BackendExecSized(sz)
	p.ExecPrice = cost.Price(sched, p.Outcome.Usage)
	p.AmortPrice, p.MaintPrice, p.Missing = 0, 0, nil
	plans = append(plans, p)

	// Eq. 8 per scan size: the plain scan and, when the table probes an
	// index, the index scan are costed once; each variant only splits its
	// scan across its nodes.
	scans := [2]cost.CacheScan{m.CacheScan(q.Template, sz, false)}
	if tb.index != nil {
		scans[1] = m.CacheScan(q.Template, sz, true)
	}

	// The per-query share of the cache plans' prices: what each piece's
	// residents are owed now. The node piece grows with the variant.
	now := ca.Clock()
	colAmort, colMaint := o.due(&tb.colPiece, now)
	idxAmort, idxMaint := o.due(&tb.idxPiece, now)
	var nodeAmort, nodeMaint money.Amount
	nodes := 1
	for i := range tb.variants {
		v := &tb.variants[i]
		if v.nodes > nodes {
			nodes = v.nodes
			a, mt := o.due(&tb.nodes[nodes-2], now)
			nodeAmort, nodeMaint = nodeAmort.Add(a), nodeMaint.Add(mt)
		}
		p := o.nextPlan()
		p.Query, p.Location, p.Structures, p.Nodes = q, plan.Cache, v.set, v.nodes
		p.AmortPrice, p.MaintPrice, p.Missing = colAmort, colMaint, v.missing
		if v.index != nil {
			p.Outcome, p.ExecPrice = scans[1].At(v.nodes)
			p.UsesIndex, p.Index = true, v.index.ID
			p.AmortPrice = p.AmortPrice.Add(idxAmort)
			p.MaintPrice = p.MaintPrice.Add(idxMaint)
		} else {
			p.Outcome, p.ExecPrice = scans[0].At(v.nodes)
			p.UsesIndex, p.Index = false, ""
		}
		p.AmortPrice = p.AmortPrice.Add(nodeAmort)
		p.MaintPrice = p.MaintPrice.Add(nodeMaint)
		plans = append(plans, p)
	}

	o.scratch = plans
	if o.cfg.SkylineOnly {
		// Skyline copies into a fresh slice, so the scratch stays free
		// for the next call and the caller gets an independent result.
		return plan.Skyline(plans), nil
	}
	return plans, nil
}

// pickIndex chooses the index a template's plans would use: a resident
// candidate if one exists (cheapest to use), otherwise the first candidate
// in template order (the one regret should accrue to). Returns nil when
// the template has no candidates or indexes are not planned.
func pickIndex(cands []*structure.Structure, ca *cache.Cache) *structure.Structure {
	for _, st := range cands {
		if ca.At(st.Slot) != nil {
			return st
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[0]
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
