package optimizer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/structure"
	"repro/internal/workload"
)

func testSetup(t *testing.T, allowIdx, allowNodes bool) (*Optimizer, *cache.Cache, *cost.Model) {
	t.Helper()
	m, err := cost.NewModel(catalog.TPCH(10), pricing.EC22008(), cost.DefaultTunables())
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Model: m, AmortN: 1000, AllowIndexes: allowIdx, AllowNodes: allowNodes})
	if err != nil {
		t.Fatal(err)
	}
	return o, cache.New(0), m
}

func q6(sel float64) *workload.Query {
	tpl := workload.PaperTemplates()[3] // Q6: 4 lineitem columns, parallelizable
	return &workload.Query{ID: 1, Template: tpl, Selectivity: sel}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
	m, _ := cost.NewModel(catalog.TPCH(1), pricing.EC22008(), cost.DefaultTunables())
	if _, err := New(Config{Model: m, AmortN: 0}); err == nil {
		t.Error("zero AmortN accepted")
	}
}

func TestEnumerateColdCache(t *testing.T) {
	o, ca, _ := testSetup(t, true, true)
	plans, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	// backend + 3 scan variants + 3 index variants.
	if len(plans) != 7 {
		t.Fatalf("plan count = %d, want 7", len(plans))
	}
	exist, possible := plan.Partition(plans)
	if len(exist) != 1 || exist[0].Location != plan.Backend {
		t.Errorf("cold cache: only the backend plan should be runnable, got %v", exist)
	}
	if len(possible) != 6 {
		t.Errorf("possible = %d", len(possible))
	}
	// All cache plans miss the 4 columns.
	for _, p := range possible {
		if len(p.Missing) < 4 {
			t.Errorf("plan %v should miss at least the 4 columns", p)
		}
		if p.AmortPrice.IsZero() {
			t.Errorf("possible plan must carry amortized build share: %v", p)
		}
	}
}

func TestEnumerateColumnOnly(t *testing.T) {
	o, ca, _ := testSetup(t, false, false)
	plans, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	// backend + single-node scan.
	if len(plans) != 2 {
		t.Fatalf("plan count = %d, want 2", len(plans))
	}
	for _, p := range plans {
		if p.UsesIndex || p.Nodes > 1 {
			t.Errorf("column-only optimizer emitted %v", p)
		}
	}
}

func TestEnumerateWarmCache(t *testing.T) {
	o, ca, m := testSetup(t, true, false)
	// Install Q6's columns.
	for _, ref := range q6(0).Template.Columns {
		st, err := structure.ColumnStructure(m.Catalog(), ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := ca.StartBuild(st, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	ca.CompleteDue()

	plans, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	exist, possible := plan.Partition(plans)
	// Backend + cache scan runnable; index plan still possible.
	if len(exist) != 2 {
		t.Fatalf("exist = %v", exist)
	}
	var cacheScan *plan.Plan
	for _, p := range exist {
		if p.Location == plan.Cache {
			cacheScan = p
		}
	}
	if cacheScan == nil {
		t.Fatal("cache scan not runnable with columns resident")
	}
	if len(possible) != 1 || !possible[0].UsesIndex {
		t.Fatalf("possible = %v", possible)
	}
	// The cache scan should beat the backend plan on both axes here.
	backend := exist[0]
	if backend.Location != plan.Backend {
		backend = exist[1]
	}
	if cacheScan.Time() >= backend.Time() {
		t.Error("cache scan should be faster than backend")
	}
}

func TestAmortizationChargedOnResidentStructures(t *testing.T) {
	o, ca, m := testSetup(t, false, false)
	buildPrice := int64(0)
	for _, ref := range q6(0).Template.Columns {
		st, _ := structure.ColumnStructure(m.Catalog(), ref)
		price, _, err := o.BuildPrice(st, ca)
		if err != nil {
			t.Fatal(err)
		}
		buildPrice += price.Micros()
		ca.StartBuild(st, 0, price)
	}
	ca.CompleteDue()

	plans, _ := o.Enumerate(q6(5e-4), ca)
	var cachePlan *plan.Plan
	for _, p := range plans {
		if p.Location == plan.Cache {
			cachePlan = p
		}
	}
	if cachePlan == nil {
		t.Fatal("no cache plan")
	}
	// Amortized share should be ~ buildPrice/AmortN (4 columns).
	want := buildPrice / 1000
	got := cachePlan.AmortPrice.Micros()
	if got < want-4 || got > want+4 { // rounding slack per column
		t.Errorf("AmortPrice = %d micros, want ~%d", got, want)
	}
}

func TestMaintDueAppearsInPrice(t *testing.T) {
	o, ca, m := testSetup(t, false, false)
	for _, ref := range q6(0).Template.Columns {
		st, _ := structure.ColumnStructure(m.Catalog(), ref)
		ca.StartBuild(st, 0, 0)
	}
	ca.CompleteDue()

	// Let a month of rent accrue.
	ca.Advance(30 * 24 * time.Hour)
	plans, _ := o.Enumerate(q6(5e-4), ca)
	var cachePlan *plan.Plan
	for _, p := range plans {
		if p.Location == plan.Cache {
			cachePlan = p
		}
	}
	if !cachePlan.MaintPrice.IsPositive() {
		t.Error("a month of storage rent must show up in MaintPrice")
	}
	// Roughly size/GiB * $0.15.
	var bytes int64
	for _, ref := range q6(0).Template.Columns {
		b, _ := m.Catalog().ColumnBytes(ref)
		bytes += b
	}
	want := m.Schedule().StorageCost(bytes, 30*24*time.Hour)
	diff := cachePlan.MaintPrice.Sub(want).Abs()
	if diff > want.MulFloat(0.01) {
		t.Errorf("MaintPrice = %v, want ~%v", cachePlan.MaintPrice, want)
	}
}

func TestPickIndexPrefersResident(t *testing.T) {
	o, ca, m := testSetup(t, true, false)
	q := q6(5e-4)
	// Build the SECOND candidate; pickIndex should now return it.
	def := q.Template.IndexCandidates[1]
	st, err := structure.IndexStructure(m.Catalog(), def)
	if err != nil {
		t.Fatal(err)
	}
	ca.StartBuild(st, 0, 0)
	ca.CompleteDue()

	// pickedIndex enumerates and returns the index the index plans probe.
	pickedIndex := func(ca *cache.Cache) structure.ID {
		t.Helper()
		plans, err := o.Enumerate(q, ca)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			if p.UsesIndex {
				return p.Index
			}
		}
		t.Fatal("no index plan enumerated")
		return ""
	}
	if id := pickedIndex(ca); id != structure.IndexID(def) {
		t.Errorf("picked index = %v, want resident %v", id, structure.IndexID(def))
	}
	// Cold cache: first candidate.
	if id := pickedIndex(cache.New(0)); id != structure.IndexID(q.Template.IndexCandidates[0]) {
		t.Errorf("cold picked index = %v", id)
	}
}

func TestSkylineOnlyShrinksPlanSet(t *testing.T) {
	m, _ := cost.NewModel(catalog.TPCH(10), pricing.EC22008(), cost.DefaultTunables())
	full, _ := New(Config{Model: m, AmortN: 1000, AllowIndexes: true, AllowNodes: true})
	sky, _ := New(Config{Model: m, AmortN: 1000, AllowIndexes: true, AllowNodes: true, SkylineOnly: true})
	ca := cache.New(0)
	fullPlans, _ := full.Enumerate(q6(5e-4), ca)
	skyPlans, _ := sky.Enumerate(q6(5e-4), ca)
	if len(skyPlans) > len(fullPlans) {
		t.Error("skyline must not grow the plan set")
	}
	if len(skyPlans) == 0 {
		t.Error("skyline emptied the plan set")
	}
}

func TestBuildPriceKinds(t *testing.T) {
	o, ca, m := testSetup(t, true, true)
	// CPU node: boot cost.
	cpu := structure.CPUNode(2)
	price, out, err := o.BuildPrice(cpu, ca)
	if err != nil || price != m.Schedule().BootCost() {
		t.Errorf("cpu build = %v, %v", price, err)
	}
	if out.Time != m.Schedule().BootTime {
		t.Errorf("cpu build time = %v", out.Time)
	}
	// Column: transfer priced.
	col, _ := structure.ColumnStructure(m.Catalog(), catalog.Col("lineitem", "l_shipdate"))
	price, out, err = o.BuildPrice(col, ca)
	if err != nil || !price.IsPositive() || out.Time <= 0 {
		t.Errorf("column build = %v, %v, %v", price, out, err)
	}
	// Index with no cached columns: dearer than with cached columns.
	idef := catalog.IndexDef{Table: "lineitem", Columns: []string{"l_shipdate"}}
	idx, _ := structure.IndexStructure(m.Catalog(), idef)
	cold, _, err := o.BuildPrice(idx, ca)
	if err != nil {
		t.Fatal(err)
	}
	ca.StartBuild(col, 0, 0)
	ca.CompleteDue()
	warm, _, err := o.BuildPrice(idx, ca)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Errorf("index build with cached column (%v) should be cheaper than cold (%v)", warm, cold)
	}
	// Unknown kind.
	if _, _, err := o.BuildPrice(&structure.Structure{Kind: structure.Kind(9)}, ca); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestEnumerateNilArgs(t *testing.T) {
	o, ca, _ := testSetup(t, false, false)
	if _, err := o.Enumerate(nil, ca); err == nil {
		t.Error("nil query accepted")
	}
	if _, err := o.Enumerate(q6(5e-4), nil); err == nil {
		t.Error("nil cache accepted")
	}
}

func TestNonParallelizableTemplateGetsNoNodePlans(t *testing.T) {
	o, ca, _ := testSetup(t, true, true)
	tpl := workload.PaperTemplates()[4] // Q10: not parallelizable
	q := &workload.Query{ID: 1, Template: tpl, Selectivity: 3e-4}
	plans, err := o.Enumerate(q, ca)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Nodes > 1 {
			t.Errorf("non-parallelizable template got %d-node plan", p.Nodes)
		}
	}
}

func TestEnumerateReusesScratchBuffer(t *testing.T) {
	o, ca, _ := testSetup(t, true, true)
	a, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	first := &a[0]
	b, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	if &b[0] != first {
		t.Error("second Enumerate did not reuse the scratch buffer")
	}
	if len(b) != len(a) {
		t.Errorf("plan count changed on reuse: %d vs %d", len(b), len(a))
	}
	for _, p := range b {
		if p == nil || p.Query == nil {
			t.Fatal("reused enumeration produced an invalid plan")
		}
	}
}

func TestEnumerateReusesPlanPool(t *testing.T) {
	o, ca, _ := testSetup(t, true, true)
	a, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	first := make(map[*plan.Plan]bool, len(a))
	for _, p := range a {
		first[p] = true
	}
	// Same query, same cache: the second enumeration must produce the
	// same plan set out of the same pooled objects — zero fresh plans.
	b, err := o.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != len(a) {
		t.Fatalf("plan count changed on reuse: %d vs %d", len(b), len(a))
	}
	for _, p := range b {
		if !first[p] {
			t.Error("second Enumerate allocated a fresh plan instead of reusing the pool")
		}
		if p.Query == nil || p.Structures == nil {
			t.Fatal("pooled plan not refilled")
		}
	}
}

func TestEnumerateSkylineResultIndependentOfScratch(t *testing.T) {
	m, _ := cost.NewModel(catalog.TPCH(10), pricing.EC22008(), cost.DefaultTunables())
	sky, _ := New(Config{Model: m, AmortN: 1000, AllowIndexes: true, AllowNodes: true, SkylineOnly: true})
	ca := cache.New(0)
	a, err := sky.Enumerate(q6(5e-4), ca)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]*plan.Plan, len(a))
	copy(snapshot, a)
	if _, err := sky.Enumerate(q6(5e-4), ca); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != snapshot[i] {
			t.Error("skyline result was clobbered by the next Enumerate")
		}
	}
}

// refEnumerate is the optimizer before it kept plan tables, kept as the
// reference model: every call walks the template, and every cache plan
// variant — plain scan or index probe, on 1..MaxNodes nodes — is sized and
// priced from scratch, structure by structure, against the cache as it
// stands. It shares nothing with Optimizer but the cost model and the
// cache's registry (so the structures it lists are the same objects).
func refEnumerate(t *testing.T, cfg Config, q *workload.Query, ca *cache.Cache) []*plan.Plan {
	t.Helper()
	m, reg, cat := cfg.Model, ca.Registry(), cfg.Model.Catalog()
	must := func(st *structure.Structure, err error) *structure.Structure {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var cols []*structure.Structure
	for _, ref := range q.Template.Columns {
		if st := must(reg.Column(cat, ref)); !slices.Contains(cols, st) {
			cols = append(cols, st)
		}
	}
	var index *structure.Structure
	if cfg.AllowIndexes && len(q.Template.IndexCandidates) > 0 {
		for _, def := range q.Template.IndexCandidates {
			if st := must(reg.Index(cat, def)); ca.At(st.Slot) != nil {
				index = st
				break
			}
		}
		if index == nil {
			index = must(reg.Index(cat, q.Template.IndexCandidates[0]))
		}
	}
	maxNodes := 1
	if cfg.AllowNodes && q.Template.Parallelizable {
		maxNodes = m.Tunables().MaxNodes
	}

	buildPrice := func(st *structure.Structure) money.Amount {
		var out cost.Outcome
		var err error
		switch st.Kind {
		case structure.KindCPUNode:
			out = m.BuildCPUNode()
		case structure.KindColumn:
			out, err = m.BuildColumn(st.Column)
		case structure.KindIndex:
			out, err = m.BuildIndex(st.Index, func(ref catalog.ColumnRef) bool {
				return ca.At(reg.ColumnSlot(ref)) != nil
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		return cost.Price(m.Schedule(), out.Usage)
	}

	out, err := m.BackendExec(q)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*plan.Plan{{
		Query: q, Location: plan.Backend, Structures: structure.NewSet(), Nodes: 1,
		Outcome: out, ExecPrice: cost.Price(m.Schedule(), out.Usage),
	}}
	probes := []*structure.Structure{nil} // per node count: the scan, then the probe
	if index != nil {
		probes = append(probes, index)
	}
	for nodes := 1; nodes <= maxNodes; nodes++ {
		for _, idx := range probes {
			out, err := m.CacheExec(q, idx != nil, nodes)
			if err != nil {
				t.Fatal(err)
			}
			p := &plan.Plan{
				Query: q, Location: plan.Cache, Structures: structure.NewSet(cols...), Nodes: nodes,
				Outcome: out, ExecPrice: cost.Price(m.Schedule(), out.Usage),
			}
			if idx != nil {
				p.UsesIndex, p.Index = true, idx.ID
				p.Structures.Add(idx)
			}
			for n := 2; n <= nodes; n++ {
				p.Structures.Add(reg.Register(structure.CPUNode(n)))
			}
			for _, st := range p.Structures.Items() {
				if e := ca.At(st.Slot); e != nil {
					p.AmortPrice = p.AmortPrice.Add(cache.AmortShare(e, cfg.AmortN))
					p.MaintPrice = p.MaintPrice.Add(cache.MaintDue(e, func(e *cache.Entry) money.Amount {
						return m.MaintCost(e.S.Kind == structure.KindCPUNode, e.S.Bytes, ca.Clock()-e.MaintPaidUntil)
					}))
					continue
				}
				p.AmortPrice = p.AmortPrice.Add(buildPrice(st).DivInt(cfg.AmortN))
				p.Missing = append(p.Missing, st)
			}
			plans = append(plans, p)
		}
	}
	return plans
}

// samePlans compares two plan sets field by field; structure lists must
// hold the same registry objects in the same order.
func samePlans(t *testing.T, when string, got, want []*plan.Plan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d plans, reference has %d", when, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Query != w.Query || g.Location != w.Location || g.Nodes != w.Nodes ||
			g.UsesIndex != w.UsesIndex || g.Index != w.Index || g.Outcome != w.Outcome ||
			g.ExecPrice != w.ExecPrice || g.AmortPrice != w.AmortPrice || g.MaintPrice != w.MaintPrice ||
			!slices.Equal(g.Structures.Items(), w.Structures.Items()) || !slices.Equal(g.Missing, w.Missing) {
			t.Fatalf("%s: plan %d is\n%+v (structures %v)\nreference says\n%+v (structures %v)",
				when, i, *g, g.Structures.Items(), *w, w.Structures.Items())
		}
	}
}

// TestPlanTablesMatchPerVariantPricing drives the compiled plan tables
// and the per-variant reference through the same seeded history of build
// starts, completions, evictions, clock advances and settlements, over all
// seven paper templates, as econ-col and as econ-cheap plan. Two
// optimizers share the one cache — the scheme's own and an observer that
// only looks now and then — and both must agree with the reference on
// every field of every plan at every step.
func TestPlanTablesMatchPerVariantPricing(t *testing.T) {
	cat := catalog.TPCH(10)
	tpls := workload.PaperTemplates()
	for _, tpl := range tpls {
		if err := tpl.Validate(cat); err != nil {
			t.Fatal(err)
		}
	}
	for _, full := range []bool{false, true} {
		name := "econ-col"
		if full {
			name = "econ-cheap"
		}
		t.Run(name, func(t *testing.T) {
			m, err := cost.NewModel(cat, pricing.EC22008(), cost.DefaultTunables())
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Model: m, AmortN: 500, AllowIndexes: full, AllowNodes: full}
			own, _ := New(cfg)
			observer, _ := New(cfg)
			ca := cache.New(0)
			reg := ca.Registry()
			rng := rand.New(rand.NewSource(17))

			// The inventory builds draw from: every template column and
			// index candidate, and the extra CPU nodes.
			var inventory []*structure.Structure
			for _, tpl := range tpls {
				for _, ref := range tpl.Columns {
					st, _ := reg.Column(cat, ref)
					inventory = append(inventory, st)
				}
				for _, def := range tpl.IndexCandidates {
					st, _ := reg.Index(cat, def)
					inventory = append(inventory, st)
				}
			}
			for n := 2; n <= m.Tunables().MaxNodes; n++ {
				inventory = append(inventory, reg.Register(structure.CPUNode(n)))
			}

			// settle is what the economy does to the structures of a
			// chosen plan: collect the share, clear the arrears, touch.
			settle := func(p *plan.Plan) {
				for _, st := range p.Structures.Items() {
					e := ca.At(st.Slot)
					if e == nil {
						continue // evicted since the plan was enumerated
					}
					e.AmortRemaining = e.AmortRemaining.Sub(cache.AmortShare(e, cfg.AmortN))
					e.UnpaidMaint, e.MaintPaidUntil = 0, ca.Clock()
					ca.TouchAt(st.Slot)
				}
			}

			epochs, runnable, lateEvictions := map[int64]bool{}, 0, 0
			for step := 0; step < 12_000; step++ {
				ca.Advance(ca.Clock() + time.Duration(rng.Intn(90_000))*time.Millisecond)
				ca.CompleteDue()
				switch r := rng.Intn(100); {
				case r < 12:
					st := inventory[rng.Intn(len(inventory))]
					if ca.At(st.Slot) == nil && !ca.BuildingAt(st.Slot) {
						price, out, err := own.BuildPrice(st, ca)
						if err != nil {
							t.Fatal(err)
						}
						if err := ca.StartBuild(st, ca.Clock()+out.Time/20, price); err != nil {
							t.Fatal(err)
						}
					}
				case r < 15 && ca.Len() > 0:
					ca.EvictAt(ca.Live()[rng.Intn(ca.Len())])
				}
				epochs[ca.Epoch()] = true

				tpl := tpls[rng.Intn(len(tpls))]
				q := &workload.Query{ID: int64(step + 1), Template: tpl, Arrival: ca.Clock(),
					Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin)}
				want := refEnumerate(t, cfg, q, ca)
				plans, err := own.Enumerate(q, ca)
				if err != nil {
					t.Fatal(err)
				}
				samePlans(t, fmt.Sprintf("step %d, %s", step, tpl.Name), plans, want)
				if step%7 == 0 {
					seen, err := observer.Enumerate(q, ca)
					if err != nil {
						t.Fatal(err)
					}
					samePlans(t, fmt.Sprintf("step %d, %s, observer", step, tpl.Name), seen, want)
				}

				// Settle the last runnable cache plan, if there is one — now
				// and then after evicting one of its structures, as the
				// economy's failure sweep does between Enumerate and settle:
				// the plans in hand must stay what they were.
				var chosen *plan.Plan
				for _, p := range plans {
					if p.Location == plan.Cache && p.Runnable() {
						chosen = p
					}
				}
				if chosen == nil {
					continue
				}
				runnable++
				if rng.Intn(40) == 0 {
					items := chosen.Structures.Items()
					ca.EvictAt(items[rng.Intn(len(items))].Slot)
					lateEvictions++
					samePlans(t, fmt.Sprintf("step %d, %s, after a late eviction", step, tpl.Name), plans, want)
				}
				settle(chosen)
			}
			if len(epochs) < 500 || runnable < 500 || lateEvictions < 5 {
				t.Errorf("history too tame: %d epochs, %d runnable cache plans, %d late evictions", len(epochs), runnable, lateEvictions)
			}
		})
	}
}
