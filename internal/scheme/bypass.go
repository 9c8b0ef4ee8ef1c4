package scheme

import (
	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Bypass is the bypass-yield baseline of [14] as emulated in §VII-A: the
// only priced resource is network bandwidth, the cache is capped at a fixed
// fraction of the database (the ideal 30 %), only table columns are cached
// and no indexes or extra CPU nodes are used.
//
// The caching rule is the byte-yield break-even of bypass caching: every
// back-end answer attributes its shipped bytes to the columns that, had
// they been cached, would have avoided the shipment. A column loads once
// its accumulated yield exceeds LoadFactor × its own transfer size — the
// point where caching it would have been cheaper than the traffic it
// caused. This is why net-only "answers many queries over the network
// before loading the data" (§VII-B).
type Bypass struct {
	model *cost.Model
	ca    *cache.Cache
	reg   *structure.Registry // the cache's slot table
	load  float64

	// yield is the per-column byte-yield accumulator, indexed by the
	// column structure's registry slot and grown on demand.
	yield []yieldRow
	// cols memoizes each template's column structures (registry-owned, one
	// per template column reference), so the per-query path mints no ID
	// strings.
	cols map[*workload.Template][]*structure.Structure
}

// yieldRow is one column's accumulator; live marks columns that have
// accrued yield since they were last loaded (a row may be live at zero).
type yieldRow struct {
	bytes int64
	live  bool
}

// NewBypass builds the bypass baseline. The deciding schedule is forced to
// NetOnly regardless of Params.Schedule, matching the paper's emulation.
func NewBypass(p Params) (*Bypass, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	sched := pricing.NetOnly()
	// Keep the physical parameters of the supplied schedule so response
	// times stay comparable across schemes.
	if p.Schedule != nil {
		sched.NetworkThroughput = p.Schedule.NetworkThroughput
		sched.NetworkLatency = p.Schedule.NetworkLatency
		sched.FCPU = p.Schedule.FCPU
		sched.FIO = p.Schedule.FIO
		sched.FNet = p.Schedule.FNet
		sched.LCPU = p.Schedule.LCPU
		sched.BootTime = p.Schedule.BootTime
	}
	model, err := cost.NewModel(p.Catalog, sched, p.Tunables)
	if err != nil {
		return nil, err
	}
	capBytes := int64(float64(p.Catalog.TotalBytes()) * p.CacheFraction)
	ca := cache.New(capBytes)
	return &Bypass{
		model: model,
		ca:    ca,
		reg:   ca.Registry(),
		load:  p.LoadFactor,
		cols:  make(map[*workload.Template][]*structure.Structure),
	}, nil
}

// Name implements Scheme.
func (b *Bypass) Name() string { return "bypass" }

// YieldSnapshot exports the per-column yield accumulators (the scheme's
// only mutable state beyond the cache), for persistence.
func (b *Bypass) YieldSnapshot() map[structure.ID]int64 {
	out := make(map[structure.ID]int64)
	for s, row := range b.yield {
		if row.live {
			out[b.reg.ID(structure.Slot(s))] = row.bytes
		}
	}
	return out
}

// RestoreYield replaces the yield accumulators with a previously
// exported set.
func (b *Bypass) RestoreYield(m map[structure.ID]int64) {
	clear(b.yield)
	for id, y := range m {
		*b.yieldRow(b.reg.Intern(id)) = yieldRow{bytes: y, live: true}
	}
}

// yieldRow returns the slot's accumulator, growing the table to cover
// every slot the registry has assigned.
func (b *Bypass) yieldRow(s structure.Slot) *yieldRow {
	if int(s) >= len(b.yield) {
		b.yield = structure.Grow(b.yield, b.reg)
	}
	return &b.yield[s]
}

// columnsFor returns the memoized column structures of a template,
// registering them on first sight.
func (b *Bypass) columnsFor(tpl *workload.Template) ([]*structure.Structure, error) {
	if cols, ok := b.cols[tpl]; ok {
		return cols, nil
	}
	cols := make([]*structure.Structure, 0, len(tpl.Columns))
	for _, ref := range tpl.Columns {
		st, err := b.reg.Column(b.model.Catalog(), ref)
		if err != nil {
			return nil, err
		}
		cols = append(cols, st)
	}
	b.cols[tpl] = cols
	return cols, nil
}

// Cache implements Scheme.
func (b *Bypass) Cache() *cache.Cache { return b.ca }

// HandleQuery implements Scheme.
func (b *Bypass) HandleQuery(q *workload.Query) (Result, error) {
	if err := step(b.ca, q); err != nil {
		return Result{}, err
	}
	cols, err := b.columnsFor(q.Template)
	if err != nil {
		return Result{}, err
	}

	// Count the missing columns.
	missing := 0
	for _, st := range cols {
		if b.ca.At(st.Slot) == nil {
			missing++
		}
	}

	if missing == 0 {
		// Answer in the cache.
		out, err := b.model.CacheExec(q, false, 1)
		if err != nil {
			return Result{}, err
		}
		for _, st := range cols {
			b.ca.TouchAt(st.Slot)
		}
		return Result{
			ResponseTime: out.Time,
			Location:     plan.Cache,
			ExecUsage:    out.Usage,
		}, nil
	}

	// Answer in the back-end, then accumulate yield on the missing
	// columns and load the ones past break-even.
	sz, err := q.Sizes(b.model.Catalog())
	if err != nil {
		return Result{}, err
	}
	out := b.model.BackendExecSized(sz)
	res := Result{
		ResponseTime: out.Time,
		Location:     plan.Backend,
		ExecUsage:    out.Usage,
	}
	share := sz.Result / int64(missing)
	for _, st := range cols {
		if b.ca.At(st.Slot) != nil || b.ca.BuildingAt(st.Slot) {
			continue
		}
		row := b.yieldRow(st.Slot)
		row.bytes += share
		row.live = true
		if float64(row.bytes) < b.load*float64(st.Bytes) {
			continue
		}
		// Break-even reached: load the column if the cap allows.
		if _, ok := b.ca.EnsureRoom(st.Bytes); !ok {
			continue
		}
		buildOut, err := b.model.BuildColumn(st.Column)
		if err != nil {
			return Result{}, err
		}
		price := cost.Price(b.model.Schedule(), buildOut.Usage)
		if err := b.ca.StartBuild(st, b.ca.Clock()+buildOut.Time, price); err != nil {
			return Result{}, err
		}
		res.BuildUsage.Add(buildOut.Usage)
		res.Investments++
		*row = yieldRow{}
	}
	return res, nil
}

var _ Scheme = (*Bypass)(nil)
