package cost

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/pricing"
	"repro/internal/workload"
)

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(catalog.TPCH(10), pricing.EC22008(), DefaultTunables())
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func testQuery(t *testing.T, tplIdx int, sel float64) *workload.Query {
	t.Helper()
	tpl := workload.PaperTemplates()[tplIdx]
	if sel < tpl.SelMin {
		sel = tpl.SelMin
	}
	return &workload.Query{ID: 1, Template: tpl, Selectivity: sel}
}

func TestNewModelValidation(t *testing.T) {
	cat, sched := catalog.TPCH(1), pricing.EC22008()
	if _, err := NewModel(nil, sched, DefaultTunables()); err == nil {
		t.Error("nil catalog accepted")
	}
	if _, err := NewModel(cat, nil, DefaultTunables()); err == nil {
		t.Error("nil schedule accepted")
	}
	bad := sched.Clone()
	bad.NetworkThroughput = 0
	if _, err := NewModel(cat, bad, DefaultTunables()); err == nil {
		t.Error("invalid schedule accepted")
	}
	badTun := DefaultTunables()
	badTun.MaxNodes = 0
	if _, err := NewModel(cat, sched, badTun); err == nil {
		t.Error("invalid tunables accepted")
	}
}

func TestTunablesValidate(t *testing.T) {
	mut := func(f func(*Tunables)) Tunables {
		tun := DefaultTunables()
		f(&tun)
		return tun
	}
	bad := []Tunables{
		mut(func(x *Tunables) { x.BytesPerCostUnit = 0 }),
		mut(func(x *Tunables) { x.PageSize = 0 }),
		mut(func(x *Tunables) { x.RowStoreFactor = 0.5 }),
		mut(func(x *Tunables) { x.SortFactor = 0 }),
		mut(func(x *Tunables) { x.SpeedupPerExtraNode = -1 }),
		mut(func(x *Tunables) { x.OverheadPerExtraNode = -1 }),
		mut(func(x *Tunables) { x.MaxNodes = 0 }),
		mut(func(x *Tunables) { x.IndexProbeCPUSeconds = -1 }),
	}
	for i, tun := range bad {
		if err := tun.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultTunables().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestPaperScalingLaw(t *testing.T) {
	m := testModel(t)
	// "a query can be sped up 2x using only 25% extra CPU overhead using
	// 3 CPU nodes in parallel" [17].
	if got := m.Speedup(3); got != 2.0 {
		t.Errorf("Speedup(3) = %v, want 2", got)
	}
	if got := m.Overhead(3); got != 1.25 {
		t.Errorf("Overhead(3) = %v, want 1.25", got)
	}
	if m.Speedup(1) != 1 || m.Overhead(1) != 1 {
		t.Error("single node must be the identity")
	}
	if m.Speedup(0) != 1 || m.Overhead(-1) != 1 {
		t.Error("degenerate node counts must be the identity")
	}
}

func TestCacheExecScalesWithSelectivity(t *testing.T) {
	m := testModel(t)
	small, err := m.CacheExec(testQuery(t, 0, 2e-3), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.CacheExec(testQuery(t, 0, 7e-3), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Time >= big.Time {
		t.Errorf("time: %v !< %v", small.Time, big.Time)
	}
	if small.Usage.CPUSeconds >= big.Usage.CPUSeconds {
		t.Error("cpu should grow with selectivity")
	}
	if small.Usage.IOOps >= big.Usage.IOOps {
		t.Error("io should grow with selectivity")
	}
	if small.Usage.NetBytes != 0 {
		t.Error("cache execution must not touch the WAN")
	}
}

func TestCacheExecIndexFaster(t *testing.T) {
	m := testModel(t)
	q := testQuery(t, 3, 9.6e-3) // Q6 at max selectivity, IndexSelectivity 0.12
	noIdx, _ := m.CacheExec(q, false, 1)
	idx, _ := m.CacheExec(q, true, 1)
	if idx.Time >= noIdx.Time {
		t.Errorf("index exec %v not faster than scan %v", idx.Time, noIdx.Time)
	}
	ratio := idx.Time.Seconds() / noIdx.Time.Seconds()
	if ratio > 0.3 { // 0.12 selectivity + probe overhead
		t.Errorf("index time ratio %.3f, want < 0.3", ratio)
	}
}

func TestCacheExecParallel(t *testing.T) {
	m := testModel(t)
	q := testQuery(t, 0, 5e-4) // Q1 is parallelizable
	one, _ := m.CacheExec(q, false, 1)
	three, _ := m.CacheExec(q, false, 3)
	// 2x faster.
	if r := one.Time.Seconds() / three.Time.Seconds(); math.Abs(r-2) > 0.01 {
		t.Errorf("3-node speedup = %.3f, want 2", r)
	}
	// 25% more CPU.
	if r := three.Usage.CPUSeconds / one.Usage.CPUSeconds; math.Abs(r-1.25) > 0.01 {
		t.Errorf("3-node overhead = %.3f, want 1.25", r)
	}
	// Clamped to MaxNodes.
	ten, _ := m.CacheExec(q, false, 10)
	if ten.Time != three.Time {
		t.Error("nodes beyond MaxNodes must clamp")
	}
}

func TestCacheExecNonParallelizableIgnoresNodes(t *testing.T) {
	m := testModel(t)
	q := testQuery(t, 4, 3e-4) // Q10 is not parallelizable
	one, _ := m.CacheExec(q, false, 1)
	three, _ := m.CacheExec(q, false, 3)
	if one.Time != three.Time || one.Usage.CPUSeconds != three.Usage.CPUSeconds {
		t.Error("non-parallelizable template must ignore extra nodes")
	}
}

func TestBackendExecSlowerAndShipsResult(t *testing.T) {
	m := testModel(t)
	q := testQuery(t, 0, 5e-4)
	cacheOut, _ := m.CacheExec(q, false, 1)
	backOut, err := m.BackendExec(q)
	if err != nil {
		t.Fatal(err)
	}
	if backOut.Time <= cacheOut.Time {
		t.Errorf("backend %v should be slower than cache %v", backOut.Time, cacheOut.Time)
	}
	res, _ := q.ResultBytes(m.Catalog())
	if backOut.Usage.NetBytes != res {
		t.Errorf("NetBytes = %d, want result size %d", backOut.Usage.NetBytes, res)
	}
	// Transfer time is part of response time.
	transfer := m.Schedule().TransferTime(res)
	if backOut.Time < transfer {
		t.Error("backend time must include the transfer")
	}
}

func TestBuildColumn(t *testing.T) {
	m := testModel(t)
	ref := catalog.Col("lineitem", "l_shipdate")
	out, err := m.BuildColumn(ref)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := m.Catalog().ColumnBytes(ref)
	if out.Usage.NetBytes != size {
		t.Errorf("NetBytes = %d, want %d", out.Usage.NetBytes, size)
	}
	want := m.Schedule().TransferTime(size)
	if out.Time != want {
		t.Errorf("Time = %v, want %v", out.Time, want)
	}
	// fn=1: CPU burned equals transfer seconds.
	if math.Abs(out.Usage.CPUSeconds-want.Seconds()) > 1e-9 {
		t.Errorf("CPUSeconds = %v, want %v", out.Usage.CPUSeconds, want.Seconds())
	}
	if _, err := m.BuildColumn(catalog.Col("zz", "y")); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestBuildIndexIncludesMissingColumns(t *testing.T) {
	m := testModel(t)
	def := catalog.IndexDef{Table: "lineitem", Columns: []string{"l_shipdate", "l_discount"}}
	// No columns cached: build must ship both columns.
	noneCached, err := m.BuildIndex(def, func(catalog.ColumnRef) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	allCached, err := m.BuildIndex(def, func(catalog.ColumnRef) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if noneCached.Usage.NetBytes <= allCached.Usage.NetBytes {
		t.Error("missing columns must add transfer bytes")
	}
	if allCached.Usage.NetBytes != 0 {
		t.Error("fully cached index build must not touch the WAN")
	}
	if noneCached.Time <= allCached.Time {
		t.Error("missing columns must add build time")
	}
	// Sort CPU is charged either way.
	if allCached.Usage.CPUSeconds <= 0 {
		t.Error("sort CPU missing")
	}
	// nil predicate behaves as nothing-cached.
	nilPred, err := m.BuildIndex(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nilPred.Usage.NetBytes != noneCached.Usage.NetBytes {
		t.Error("nil predicate should mean nothing cached")
	}
	if _, err := m.BuildIndex(catalog.IndexDef{Table: "zz"}, nil); err == nil {
		t.Error("bad index accepted")
	}
}

func TestBuildCPUNode(t *testing.T) {
	m := testModel(t)
	out := m.BuildCPUNode()
	if out.Time != m.Schedule().BootTime {
		t.Errorf("Time = %v, want boot time", out.Time)
	}
	if out.Usage.Boots != 1 {
		t.Errorf("Boots = %d", out.Usage.Boots)
	}
}

func TestMaintCost(t *testing.T) {
	m := testModel(t)
	// CPU node: one hour of rent = $0.10.
	if got := m.MaintCost(true, 0, time.Hour); got != m.Schedule().CPUCost(time.Hour, 1) {
		t.Errorf("cpu maintenance = %v", got)
	}
	// Column: a GiB-month = $0.15.
	month := 30 * 24 * time.Hour
	if got := m.MaintCost(false, 1<<30, month); got != m.Schedule().StorageCost(1<<30, month) {
		t.Errorf("storage maintenance = %v", got)
	}
	if got := m.MaintCost(false, 1<<30, 0); got != 0 {
		t.Errorf("zero duration = %v", got)
	}
}

func TestPriceUsage(t *testing.T) {
	s := pricing.EC22008()
	u := Usage{CPUSeconds: 3600, IOOps: 1_000_000, NetBytes: 1 << 30, Boots: 1}
	got := Price(s, u)
	want := s.CPUCost(time.Hour, 1).
		Add(s.IOCost(1_000_000)).
		Add(s.TransferCost(1 << 30)).
		Add(s.BootCost())
	if got != want {
		t.Errorf("Price = %v, want %v", got, want)
	}
	if Price(s, Usage{}) != 0 {
		t.Error("empty usage should be free")
	}
}

func TestUsageAdd(t *testing.T) {
	u := Usage{CPUSeconds: 1, IOOps: 2, NetBytes: 3, Boots: 1}
	u.Add(Usage{CPUSeconds: 0.5, IOOps: 1, NetBytes: 4, Boots: 2})
	if u.CPUSeconds != 1.5 || u.IOOps != 3 || u.NetBytes != 7 || u.Boots != 3 {
		t.Errorf("Add = %+v", u)
	}
}

func TestNetOnlyModelPricesOnlyNetwork(t *testing.T) {
	m, err := NewModel(catalog.TPCH(10), pricing.NetOnly(), DefaultTunables())
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t, 0, 5e-4)
	cacheOut, _ := m.CacheExec(q, false, 1)
	if Price(m.Schedule(), cacheOut.Usage) != 0 {
		t.Error("net-only cache execution must be free (no WAN bytes)")
	}
	backOut, _ := m.BackendExec(q)
	if Price(m.Schedule(), backOut.Usage) == 0 {
		t.Error("net-only backend execution must price the transfer")
	}
}

func TestResponseTimeInPaperBand(t *testing.T) {
	// With the 2.5 TB catalog and paper calibration, typical cache scans
	// should land in the 1-10 s band of Fig. 5 and back-end executions
	// above them.
	m, err := NewModel(catalog.Paper(), pricing.EC22008(), DefaultTunables())
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range workload.PaperTemplates() {
		mid := (tpl.SelMin + tpl.SelMax) / 2
		q := &workload.Query{Template: tpl, Selectivity: mid}
		out, err := m.CacheExec(q, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Time < 200*time.Millisecond || out.Time > 30*time.Second {
			t.Errorf("%s cache scan = %v, outside the plausible band", tpl.Name, out.Time)
		}
		back, _ := m.BackendExec(q)
		if back.Time <= out.Time {
			t.Errorf("%s backend %v not slower than cache %v", tpl.Name, back.Time, out.Time)
		}
	}
}

// TestCacheScanMatchesPerVariantPricing pins the per-size scan pricing
// the optimizer enumerates with to the per-variant path it replaced:
// CacheExecSized on each node count, then Price of its usage. Every paper
// template, plain scan and index probe, every node count from below 1 to
// past MaxNodes (both clamps), over scan sizes at the edges — 0 and 1
// byte, either side of a page boundary — and across the paper's range,
// under the paper's schedule, the network-only one and perturbed
// tunables: the outcome and the price must be bit-identical.
func TestCacheScanMatchesPerVariantPricing(t *testing.T) {
	cat := catalog.TPCH(10)
	wide := DefaultTunables()
	wide.MaxNodes, wide.SpeedupPerExtraNode, wide.OverheadPerExtraNode = 6, 0.37, 0.091
	wide.IndexProbeCPUSeconds, wide.PageSize, wide.BytesPerCostUnit = 0.0173, 4096, 3<<20
	rng := rand.New(rand.NewSource(7))
	variants := 0
	for _, sched := range []*pricing.Schedule{pricing.EC22008(), pricing.NetOnly()} {
		for _, tun := range []Tunables{DefaultTunables(), wide} {
			m, err := NewModel(cat, sched, tun)
			if err != nil {
				t.Fatal(err)
			}
			page := tun.PageSize
			sizes := []int64{0, 1, 2, page - 1, page, page + 1, 2*page - 1, 2 * page, 2*page + 1, 1 << 30, 4 << 40}
			for range 40 {
				sizes = append(sizes, rng.Int63n(1<<uint(1+rng.Intn(42))))
			}
			for _, tpl := range workload.PaperTemplates() {
				// The template's own sizes across its selectivity range too.
				for range 10 {
					q := &workload.Query{Template: tpl, Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin)}
					sz, err := q.Sizes(cat)
					if err != nil {
						t.Fatal(err)
					}
					sizes = append(sizes, sz.Scan, sz.IndexScan)
				}
				for _, size := range sizes {
					sz := workload.Sizes{Scan: size, IndexScan: size, Result: 1}
					for _, useIndex := range []bool{false, true} {
						scan := m.CacheScan(tpl, sz, useIndex)
						for nodes := -1; nodes <= tun.MaxNodes+2; nodes++ {
							want := m.CacheExecSized(tpl, sz, useIndex, nodes)
							wantPrice := Price(sched, want.Usage)
							got, price := scan.At(nodes)
							if got != want || price != wantPrice {
								t.Fatalf("%s, %s, %d bytes, index %v, %d nodes: CacheScan says %+v at %v, per-variant path %+v at %v",
									sched, tpl.Name, size, useIndex, nodes, got, price, want, wantPrice)
							}
							variants++
						}
					}
				}
			}
		}
	}
	if variants < 10_000 {
		t.Errorf("only %d variants compared", variants)
	}
}
