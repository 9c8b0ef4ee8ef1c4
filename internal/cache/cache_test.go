package cache

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/money"
	"repro/internal/structure"
)

func colStruct(t *testing.T, table, col string) *structure.Structure {
	t.Helper()
	s, err := structure.ColumnStructure(catalog.TPCH(1), catalog.Col(table, col))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildLifecycle(t *testing.T) {
	c := New(0)
	st := colStruct(t, "lineitem", "l_shipdate")
	price := money.FromDollars(2)

	if err := c.StartBuild(st, 10*time.Second, price); err != nil {
		t.Fatal(err)
	}
	if !c.Building(st.ID) || c.Has(st.ID) {
		t.Error("build should be pending, not resident")
	}
	if c.PendingCount() != 1 {
		t.Error("PendingCount wrong")
	}
	// Not due yet.
	c.Advance(5 * time.Second)
	if done := c.CompleteDue(); len(done) != 0 {
		t.Error("build completed early")
	}
	// Due now.
	c.Advance(10 * time.Second)
	done := c.CompleteDue()
	if len(done) != 1 || done[0].S.ID != st.ID {
		t.Fatalf("CompleteDue = %v", done)
	}
	e := done[0]
	if e.BuiltAt != 10*time.Second || e.MaintPaidUntil != 10*time.Second {
		t.Errorf("entry times wrong: %+v", e)
	}
	if e.BuildPrice != price || e.AmortRemaining != price {
		t.Errorf("entry prices wrong: %+v", e)
	}
	if !c.Has(st.ID) || c.Building(st.ID) {
		t.Error("structure should now be resident")
	}
	if c.ResidentBytes() != st.Bytes {
		t.Errorf("ResidentBytes = %d, want %d", c.ResidentBytes(), st.Bytes)
	}
}

func TestStartBuildRejections(t *testing.T) {
	c := New(0)
	st := colStruct(t, "orders", "o_orderdate")
	if err := c.StartBuild(nil, 0, 0); err == nil {
		t.Error("nil structure accepted")
	}
	if err := c.StartBuild(st, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.StartBuild(st, 0, 0); err == nil {
		t.Error("duplicate pending build accepted")
	}
	c.CompleteDue()
	if err := c.StartBuild(st, 0, 0); err == nil {
		t.Error("build of resident structure accepted")
	}
}

func TestBuildReadyInPastClampsToNow(t *testing.T) {
	c := New(0)
	c.Advance(time.Minute)
	st := colStruct(t, "orders", "o_custkey")
	if err := c.StartBuild(st, time.Second, 0); err != nil {
		t.Fatal(err)
	}
	done := c.CompleteDue()
	if len(done) != 1 || done[0].BuiltAt != time.Minute {
		t.Errorf("past-ready build should complete at current clock: %v", done)
	}
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	c := New(0)
	c.Advance(time.Minute)
	defer func() {
		if recover() == nil {
			t.Error("backwards clock did not panic")
		}
	}()
	c.Advance(time.Second)
}

func TestTouchAndLRU(t *testing.T) {
	c := New(0)
	a := colStruct(t, "lineitem", "l_quantity")
	b := colStruct(t, "lineitem", "l_discount")
	d := colStruct(t, "lineitem", "l_tax")
	for _, st := range []*structure.Structure{a, b, d} {
		if err := c.StartBuild(st, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.CompleteDue()

	c.Advance(10 * time.Second)
	c.Touch(a.ID)
	c.Advance(20 * time.Second)
	c.Touch(d.ID)
	// b never touched since build -> coldest; EnsureRoom's victim order
	// is pinned by TestEnsureRoomEvictsLRU.
	for _, want := range []struct {
		id       structure.ID
		uses     int64
		lastUsed time.Duration
	}{{b.ID, 0, 0}, {a.ID, 1, 10 * time.Second}, {d.ID, 1, 20 * time.Second}} {
		if e, _ := c.Get(want.id); e.Uses != want.uses || e.LastUsed != want.lastUsed {
			t.Errorf("%s: uses %d, last used %v; want %d, %v", want.id, e.Uses, e.LastUsed, want.uses, want.lastUsed)
		}
	}
	// Touch of non-resident is a no-op.
	c.Touch("nope")
}

func TestEvict(t *testing.T) {
	c := New(0)
	st := colStruct(t, "part", "p_retailprice")
	c.StartBuild(st, 0, money.FromDollars(1))
	c.CompleteDue()
	e, ok := c.Evict(st.ID)
	if !ok || e.S.ID != st.ID {
		t.Fatal("evict failed")
	}
	if c.Has(st.ID) || c.ResidentBytes() != 0 {
		t.Error("evict did not clean up")
	}
	if _, ok := c.Evict(st.ID); ok {
		t.Error("double evict succeeded")
	}
}

func TestEnsureRoomEvictsLRU(t *testing.T) {
	cat := catalog.TPCH(1)
	a, _ := structure.ColumnStructure(cat, catalog.Col("lineitem", "l_quantity")) // 48MB
	b, _ := structure.ColumnStructure(cat, catalog.Col("lineitem", "l_tax"))      // 48MB
	cap := a.Bytes + b.Bytes
	c := New(cap)
	c.StartBuild(a, 0, 0)
	c.StartBuild(b, 0, 0)
	c.CompleteDue()
	c.Advance(time.Second)
	c.Touch(b.ID) // a becomes LRU

	// No room needed: no evictions.
	ev, ok := c.EnsureRoom(0)
	if !ok || len(ev) != 0 {
		t.Error("zero need must be free")
	}
	// Need half a column: evict exactly a.
	ev, ok = c.EnsureRoom(a.Bytes / 2)
	if !ok || len(ev) != 1 || ev[0].S.ID != a.ID {
		t.Errorf("EnsureRoom evicted %v", ev)
	}
	if c.Has(a.ID) || !c.Has(b.ID) {
		t.Error("wrong victim evicted")
	}
	// Impossible need: report false, evict nothing further.
	before := c.Len()
	if _, ok := c.EnsureRoom(cap * 2); ok {
		t.Error("impossible need accepted")
	}
	if c.Len() != before {
		t.Error("impossible need evicted structures")
	}
}

func TestEnsureRoomUnlimited(t *testing.T) {
	c := New(0)
	ev, ok := c.EnsureRoom(1 << 40)
	if !ok || len(ev) != 0 {
		t.Error("unlimited cache must always have room")
	}
}

func TestEnsureRoomSkipsCPUNodes(t *testing.T) {
	cat := catalog.TPCH(1)
	col, _ := structure.ColumnStructure(cat, catalog.Col("lineitem", "l_tax"))
	c := New(col.Bytes)
	c.StartBuild(structure.CPUNode(2), 0, 0)
	c.StartBuild(col, 0, 0)
	c.CompleteDue()
	// Cache is at capacity with the column; CPU node occupies no disk.
	ev, ok := c.EnsureRoom(col.Bytes / 2)
	if !ok {
		t.Fatal("EnsureRoom failed")
	}
	for _, e := range ev {
		if e.S.Kind == structure.KindCPUNode {
			t.Error("CPU node evicted for disk pressure")
		}
	}
	if !c.Has(structure.CPUNodeID(2)) {
		t.Error("CPU node should survive disk pressure")
	}
}

func TestNodeAccounting(t *testing.T) {
	c := New(0)
	if c.NodeCount() != 0 || c.MaxNodeOrdinal() != 1 {
		t.Error("empty cache node state wrong")
	}
	c.StartBuild(structure.CPUNode(2), 0, 0)
	c.StartBuild(structure.CPUNode(3), 0, 0)
	c.CompleteDue()
	if c.NodeCount() != 2 {
		t.Errorf("NodeCount = %d", c.NodeCount())
	}
	if c.MaxNodeOrdinal() != 3 {
		t.Errorf("MaxNodeOrdinal = %d", c.MaxNodeOrdinal())
	}
	c.Evict(structure.CPUNodeID(3))
	if c.MaxNodeOrdinal() != 2 {
		t.Errorf("after evict MaxNodeOrdinal = %d", c.MaxNodeOrdinal())
	}
}

func TestEntriesSorted(t *testing.T) {
	c := New(0)
	c.StartBuild(colStruct(t, "lineitem", "l_tax"), 0, 0)
	c.StartBuild(colStruct(t, "lineitem", "l_discount"), 0, 0)
	c.StartBuild(structure.CPUNode(2), 0, 0)
	c.CompleteDue()
	es := c.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].S.ID >= es[i].S.ID {
			t.Error("Entries not sorted by ID")
		}
	}
}

func TestNegativeCapacityMeansUnlimited(t *testing.T) {
	c := New(-5)
	if c.Capacity() != 0 {
		t.Error("negative capacity should normalize to 0")
	}
}

func TestForEach(t *testing.T) {
	c := New(0)
	c.StartBuild(colStruct(t, "lineitem", "l_tax"), 0, 0)
	c.StartBuild(colStruct(t, "lineitem", "l_discount"), 0, 0)
	c.CompleteDue()
	var n int
	var bytes int64
	c.ForEach(func(e *Entry) {
		n++
		bytes += e.S.Bytes
	})
	if n != 2 {
		t.Errorf("visited %d entries, want 2", n)
	}
	if bytes != c.ResidentBytes() {
		t.Errorf("ForEach bytes %d != ResidentBytes %d", bytes, c.ResidentBytes())
	}
	// Empty cache: no calls.
	empty := New(0)
	empty.ForEach(func(*Entry) { t.Error("callback on empty cache") })
}

func TestTouchSetsFirstUsed(t *testing.T) {
	c := New(0)
	st := colStruct(t, "orders", "o_totalprice")
	c.StartBuild(st, 0, 0)
	c.CompleteDue()
	c.Advance(10 * time.Second)
	c.Touch(st.ID)
	c.Advance(20 * time.Second)
	c.Touch(st.ID)
	e, _ := c.Get(st.ID)
	if e.FirstUsed != 10*time.Second {
		t.Errorf("FirstUsed = %v, want 10s (must not move on later touches)", e.FirstUsed)
	}
	if e.LastUsed != 20*time.Second || e.Uses != 2 {
		t.Errorf("LastUsed/Uses = %v/%d", e.LastUsed, e.Uses)
	}
}

// TestAmortShareMemo: the memoized Eq. 7 share is the plain division,
// capped by what remains to amortize, as the remainder runs down, when n
// changes between callers and when the build price behind the memo is
// rewritten.
func TestAmortShareMemo(t *testing.T) {
	e := &Entry{S: colStruct(t, "lineitem", "l_tax"), Record: Record{BuildPrice: 1_000_003, AmortRemaining: 1_000_003}}
	for i, n := range []int64{7, 7, 7, 1000, 7, 3, 3, 1} {
		if i == 6 {
			e.BuildPrice = 999
		}
		want := money.MaxAmount(0, money.MinAmount(e.BuildPrice.DivInt(n), e.AmortRemaining))
		if got := AmortShare(e, n); got != want {
			t.Fatalf("step %d: AmortShare(n=%d) = %v, want %v", i, n, got, want)
		}
		e.AmortRemaining = e.AmortRemaining.Sub(want).Sub(10_000)
	}
	if AmortShare(e, 0) != 0 || AmortShare(nil, 7) != 0 {
		t.Error("n = 0 or no entry must owe nothing")
	}
	if e.AmortRemaining = 0; AmortShare(e, 7) != 0 {
		t.Error("a fully amortized entry must owe nothing")
	}
}
