package workload

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/money"
)

func paperCatalog() *catalog.Catalog { return catalog.TPCH(10) }

func TestPaperTemplatesValidate(t *testing.T) {
	c := paperCatalog()
	tpls := PaperTemplates()
	if len(tpls) != 7 {
		t.Fatalf("template count = %d, want 7 (§VII-A)", len(tpls))
	}
	seen := map[string]bool{}
	for _, tpl := range tpls {
		if err := tpl.Validate(c); err != nil {
			t.Errorf("template %s invalid: %v", tpl.Name, err)
		}
		if seen[tpl.Name] {
			t.Errorf("duplicate template name %s", tpl.Name)
		}
		seen[tpl.Name] = true
		if len(tpl.IndexCandidates) == 0 {
			t.Errorf("template %s has no index candidates", tpl.Name)
		}
	}
}

func TestTemplateValidateRejections(t *testing.T) {
	c := paperCatalog()
	base := PaperTemplates()[0]
	mk := func(mut func(*Template)) *Template {
		cp := *base
		mut(&cp)
		return &cp
	}
	bad := []*Template{
		mk(func(x *Template) { x.Name = "" }),
		mk(func(x *Template) { x.Columns = nil }),
		mk(func(x *Template) { x.Columns = []catalog.ColumnRef{catalog.Col("zz", "y")} }),
		mk(func(x *Template) { x.SelMin = 0 }),
		mk(func(x *Template) { x.SelMax = x.SelMin / 2 }),
		mk(func(x *Template) { x.SelMax = 1.5 }),
		mk(func(x *Template) { x.IndexSelectivity = 0 }),
		mk(func(x *Template) { x.IndexSelectivity = 2 }),
		mk(func(x *Template) { x.ResultFraction = 0 }),
		mk(func(x *Template) { x.IndexCandidates = []catalog.IndexDef{{Table: "zz"}} }),
	}
	for i, tpl := range bad {
		if err := tpl.Validate(c); err == nil {
			t.Errorf("case %d: invalid template accepted", i)
		}
	}
}

func TestQuerySizing(t *testing.T) {
	c := paperCatalog()
	tpl := PaperTemplates()[3] // Q6, lineitem-only
	q := &Query{Template: tpl, Selectivity: 1e-3}
	group, err := tpl.GroupBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := q.ScanBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(float64(group) * 1e-3); scan != want {
		t.Errorf("ScanBytes = %d, want %d", scan, want)
	}
	idxScan, _ := q.IndexScanBytes(c)
	if want := int64(float64(scan) * tpl.IndexSelectivity); idxScan != want {
		t.Errorf("IndexScanBytes = %d, want %d", idxScan, want)
	}
	res, _ := q.ResultBytes(c)
	if want := int64(float64(scan) * tpl.ResultFraction); res != want {
		t.Errorf("ResultBytes = %d, want %d", res, want)
	}
	if idxScan >= scan {
		t.Error("index scan must be cheaper than full scan")
	}
	if res >= scan {
		t.Error("result must be smaller than scan for these templates")
	}
}

func TestQuerySizingFloorsAtOneByte(t *testing.T) {
	c := catalog.TPCH(0.001)
	tpl := PaperTemplates()[3]
	q := &Query{Template: tpl, Selectivity: tpl.SelMin}
	for _, f := range []func(*catalog.Catalog) (int64, error){q.ScanBytes, q.IndexScanBytes, q.ResultBytes} {
		got, err := f(c)
		if err != nil || got < 1 {
			t.Errorf("sizing = %d, %v; want >= 1", got, err)
		}
	}
}

func TestFixedArrival(t *testing.T) {
	a := NewFixedArrival(10 * time.Second)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if a.NextGap(r) != 10*time.Second {
			t.Fatal("fixed gap varies")
		}
	}
	if a.Mean() != 10*time.Second {
		t.Error("Mean wrong")
	}
}

func TestPoissonArrivalMean(t *testing.T) {
	a := NewPoissonArrival(2 * time.Second)
	r := rand.New(rand.NewSource(42))
	var total time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		g := a.NextGap(r)
		if g < 0 {
			t.Fatal("negative gap")
		}
		total += g
	}
	mean := total / n
	if ratio := float64(mean) / float64(2*time.Second); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("empirical mean %v deviates from 2s (ratio %.3f)", mean, ratio)
	}
	if a.Mean() != 2*time.Second {
		t.Error("Mean wrong")
	}
}

func TestPoissonZeroMean(t *testing.T) {
	a := NewPoissonArrival(0)
	if g := a.NextGap(rand.New(rand.NewSource(1))); g != 0 {
		t.Errorf("zero-mean gap = %v", g)
	}
}

func TestBurstyArrival(t *testing.T) {
	b := &BurstyArrival{BurstLen: 3, BurstGap: time.Second, IdleGap: time.Minute}
	r := rand.New(rand.NewSource(1))
	// First call starts a burst with the idle gap, then 3 burst gaps, then idle.
	gaps := []time.Duration{}
	for i := 0; i < 8; i++ {
		gaps = append(gaps, b.NextGap(r))
	}
	wantIdle := 0
	for _, g := range gaps {
		if g == time.Minute {
			wantIdle++
		}
	}
	if wantIdle != 2 {
		t.Errorf("idle gaps = %d in %v, want 2", wantIdle, gaps)
	}
	if b.Mean() <= time.Second || b.Mean() >= time.Minute {
		t.Errorf("Mean = %v out of range", b.Mean())
	}
}

func TestZipfDistribution(t *testing.T) {
	z := MustNewZipf(7, 1.1)
	r := rand.New(rand.NewSource(7))
	counts := make([]int, 7)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Monotone-ish decreasing counts.
	if counts[0] <= counts[6] {
		t.Errorf("rank 0 (%d) should dominate rank 6 (%d)", counts[0], counts[6])
	}
	// Empirical vs analytic probability of rank 0.
	emp := float64(counts[0]) / n
	if math.Abs(emp-z.Prob(0)) > 0.01 {
		t.Errorf("empirical P(0)=%.3f vs analytic %.3f", emp, z.Prob(0))
	}
	// Probabilities sum to 1.
	var sum float64
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probs sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(99) != 0 {
		t.Error("out-of-range Prob must be 0")
	}
}

func TestZipfUniformTheta0(t *testing.T) {
	z := MustNewZipf(4, 0)
	for i := 0; i < 4; i++ {
		if math.Abs(z.Prob(i)-0.25) > 1e-9 {
			t.Errorf("P(%d) = %v, want 0.25", i, z.Prob(i))
		}
	}
}

func TestZipfRejections(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(3, -1); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewZipf(3, math.NaN()); err == nil {
		t.Error("NaN theta accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	c := paperCatalog()
	mk := func() []*Query {
		g, err := NewGenerator(Config{Catalog: c, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return g.Generate(200)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Template.Name != b[i].Template.Name || a[i].Selectivity != b[i].Selectivity || a[i].Arrival != b[i].Arrival {
			t.Fatalf("query %d differs between identical seeds", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	c := paperCatalog()
	g1, _ := NewGenerator(Config{Catalog: c, Seed: 1})
	g2, _ := NewGenerator(Config{Catalog: c, Seed: 2})
	same := 0
	for i := 0; i < 100; i++ {
		if g1.Next().Template.Name == g2.Next().Template.Name {
			same++
		}
	}
	if same == 100 {
		t.Error("different seeds produced identical template streams")
	}
}

func TestGeneratorArrivalsMonotone(t *testing.T) {
	c := paperCatalog()
	g, _ := NewGenerator(Config{Catalog: c, Seed: 3, Arrival: NewPoissonArrival(time.Second)})
	var prev time.Duration
	for i := 0; i < 500; i++ {
		q := g.Next()
		if q.Arrival < prev {
			t.Fatalf("arrival went backwards at %d", i)
		}
		prev = q.Arrival
	}
	if g.Clock() != prev {
		t.Error("Clock() mismatch")
	}
}

func TestGeneratorSelectivityInRange(t *testing.T) {
	c := paperCatalog()
	g, _ := NewGenerator(Config{Catalog: c, Seed: 4})
	for i := 0; i < 1000; i++ {
		q := g.Next()
		if q.Selectivity < q.Template.SelMin || q.Selectivity > q.Template.SelMax {
			t.Fatalf("selectivity %g out of [%g,%g]", q.Selectivity, q.Template.SelMin, q.Template.SelMax)
		}
		if q.Budget == nil {
			t.Fatal("nil budget")
		}
		if q.ID != int64(i+1) {
			t.Fatalf("ID = %d, want %d", q.ID, i+1)
		}
	}
}

func TestGeneratorEvolutionShiftsPopularity(t *testing.T) {
	c := paperCatalog()
	g, err := NewGenerator(Config{
		Catalog: c, Seed: 5, Theta: 1.5, PhaseLength: 2000, EvolutionStride: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	countTop := func(n int) string {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			counts[g.Next().Template.Name]++
		}
		best, bestN := "", -1
		for name, c := range counts {
			if c > bestN {
				best, bestN = name, c
			}
		}
		return best
	}
	first := countTop(2000)
	second := countTop(2000)
	if first == second {
		t.Errorf("popularity did not shift across phases (top=%s twice)", first)
	}
}

func TestGeneratorNoEvolution(t *testing.T) {
	c := paperCatalog()
	g, err := NewGenerator(Config{Catalog: c, Seed: 6, PhaseLength: 100, EvolutionStride: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Stride 7 over 7 templates is a full rotation: order is unchanged.
	top := func(n int) string {
		counts := map[string]int{}
		for i := 0; i < n; i++ {
			counts[g.Next().Template.Name]++
		}
		best, bestN := "", -1
		for name, cnt := range counts {
			if cnt > bestN {
				best, bestN = name, cnt
			}
		}
		return best
	}
	if a, b := top(300), top(300); a != b {
		t.Errorf("full rotation should not change popularity: %s vs %s", a, b)
	}
}

func TestGeneratorConfigErrors(t *testing.T) {
	c := paperCatalog()
	cases := []Config{
		{},                            // no catalog
		{Catalog: c, Theta: -1},       // negative theta
		{Catalog: c, PhaseLength: -1}, // negative phase
		{Catalog: c, EvolutionStride: -1},
		{Catalog: c, Templates: []*Template{{Name: "bad"}}},
	}
	for i, cfg := range cases {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestScaledPolicyPricesScaleWithWork(t *testing.T) {
	p := DefaultScaledPolicy()
	q := &Query{}
	small := p.BudgetFor(q, 1<<20, 1<<18)
	big := p.BudgetFor(q, 1<<30, 1<<28)
	if small.At(time.Second) >= big.At(time.Second) {
		t.Error("bigger queries must carry bigger budgets")
	}
	if small.Tmax() != p.TMax {
		t.Error("Tmax not propagated")
	}
}

func TestFixedPolicy(t *testing.T) {
	p := &FixedPolicy{Shape: ShapeStep, Price: money.FromDollars(1), TMax: 5 * time.Second}
	b := p.BudgetFor(nil, 0, 0)
	if b.At(time.Second) != money.FromDollars(1) || b.Tmax() != 5*time.Second {
		t.Error("FixedPolicy wrong")
	}
}

func TestShapeString(t *testing.T) {
	for _, s := range []Shape{ShapeStep, ShapeLinear, ShapeConvex, ShapeConcave, Shape(9)} {
		if s.String() == "" {
			t.Error("empty shape string")
		}
	}
}

func TestShapeBuildVariants(t *testing.T) {
	price := money.FromDollars(1)
	for _, s := range []Shape{ShapeStep, ShapeLinear, ShapeConvex, ShapeConcave} {
		f := s.build(price, 10*time.Second)
		if f == nil {
			t.Fatalf("shape %v built nil", s)
		}
		if v := f.At(time.Second); v < 0 || v > price {
			t.Errorf("shape %v At out of range: %v", s, v)
		}
	}
}

func TestBatchMatchesNext(t *testing.T) {
	c := paperCatalog()
	g1, _ := NewGenerator(Config{Catalog: c, Seed: 21})
	g2, _ := NewGenerator(Config{Catalog: c, Seed: 21})
	want := make([]*Query, 0, 50)
	for i := 0; i < 50; i++ {
		want = append(want, g1.Next())
	}
	got := g2.Batch(50, nil)
	if len(got) != len(want) {
		t.Fatalf("batch length = %d", len(got))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Template.Name != want[i].Template.Name ||
			got[i].Selectivity != want[i].Selectivity || got[i].Arrival != want[i].Arrival {
			t.Errorf("query %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestBatchReusesBuffer(t *testing.T) {
	c := paperCatalog()
	g, _ := NewGenerator(Config{Catalog: c, Seed: 22})
	buf := make([]*Query, 0, 16)
	out := g.Batch(8, buf)
	if len(out) != 8 || cap(out) != 16 {
		t.Errorf("buffer not reused: len=%d cap=%d", len(out), cap(out))
	}
}

// drawRecycled draws total queries from src in batches of varying size,
// handing the one buffer back for every refill, and returns a copy of each
// query taken while its batch was live.
func drawRecycled(src Source, total int) []Query {
	var out []Query
	var buf []*Query
	for n := 1; len(out) < total; n = n%97 + 13 {
		buf = src.Batch(min(n, total-len(out)), buf[:0])
		for _, q := range buf {
			out = append(out, *q)
		}
	}
	return out
}

// TestBatchRecycledMatchesNext pins the recycled stream to the fresh one:
// a Batch that overwrites the queries left in its buffer yields, field for
// field including the Budget, what Next calls yield — across several
// evolution phases and with tenant tags drawn.
func TestBatchRecycledMatchesNext(t *testing.T) {
	cfg := Config{Catalog: paperCatalog(), Seed: 33, PhaseLength: 150, Tenants: 5, TenantTheta: 1}
	fresh, _ := NewGenerator(cfg)
	recycling, _ := NewGenerator(cfg)
	const total = 700 // > 4 phases
	got := drawRecycled(recycling, total)
	for i := range got {
		want := fresh.Next()
		if !reflect.DeepEqual(got[i], *want) {
			t.Fatalf("query %d: recycled batch gave %+v, Next gives %+v", i, got[i], *want)
		}
		if _, ok := got[i].Budget.(budget.Step); !ok {
			t.Fatalf("query %d: budget is %T, want the boxed budget.Step", i, got[i].Budget)
		}
	}

	// And it does recycle: a handed-back buffer comes back holding the
	// same Query objects.
	first := recycling.Batch(8, nil)
	ptrs := slices.Clone(first)
	second := recycling.Batch(8, first[:0])
	if !slices.Equal(second, ptrs) {
		t.Error("Batch allocated fresh queries instead of refilling the ones in its buffer")
	}
}

// TestNextAndGenerateAreNeverOverwritten pins the other half of the
// ownership rule: queries handed out by Next and Generate stay as they
// were whatever the generator is asked for afterwards.
func TestNextAndGenerateAreNeverOverwritten(t *testing.T) {
	g, _ := NewGenerator(Config{Catalog: paperCatalog(), Seed: 34, PhaseLength: 40})
	kept := g.Generate(8)
	kept = append(kept, g.Next(), g.Next())
	want := make([]Query, len(kept))
	for i, q := range kept {
		want[i] = *q
	}
	drawRecycled(g, 300)
	g.Generate(8)
	g.Next()
	for i, q := range kept {
		if !reflect.DeepEqual(*q, want[i]) {
			t.Errorf("query %d was overwritten: %+v, was %+v", i, *q, want[i])
		}
	}
}

// TestMergeKeepsItsQueries runs a merge of two generators with a recycled
// buffer against its twin drawn fresh: the same stream, and — Merge holds
// one query of each source ahead — no query changes after it was emitted.
func TestMergeKeepsItsQueries(t *testing.T) {
	mk := func() *Merge {
		a, _ := NewGenerator(Config{Catalog: paperCatalog(), Seed: 35, PhaseLength: 100, Arrival: NewPoissonArrival(3 * time.Second)})
		b, _ := NewGenerator(Config{Catalog: paperCatalog(), Seed: 36, PhaseLength: 100, Arrival: NewPoissonArrival(5 * time.Second)})
		return NewMerge(a, b)
	}
	fresh, recycling := mk(), mk()
	var emitted []*Query
	var buf []*Query
	for len(emitted) < 500 {
		buf = recycling.Batch(37, buf[:0])
		emitted = append(emitted, buf...)
	}
	for i, q := range emitted {
		if want := fresh.Next(); !reflect.DeepEqual(*q, *want) {
			t.Fatalf("merged query %d: %+v with a recycled buffer, %+v fresh", i, *q, *want)
		}
	}
}
