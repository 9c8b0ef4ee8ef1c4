package structure

import (
	"slices"
	"testing"

	"repro/internal/catalog"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	return catalog.TPCH(1)
}

func TestCPUNode(t *testing.T) {
	s := CPUNode(2)
	if s.Kind != KindCPUNode || s.NodeOrdinal != 2 || s.Bytes != 0 {
		t.Errorf("CPUNode(2) = %+v", s)
	}
	if s.ID != "cpu:2" || s.ID != CPUNodeID(2) {
		t.Errorf("ID = %q", s.ID)
	}
}

func TestColumnStructure(t *testing.T) {
	c := testCatalog(t)
	ref := catalog.Col("lineitem", "l_shipdate")
	s, err := ColumnStructure(c, ref)
	if err != nil {
		t.Fatalf("ColumnStructure: %v", err)
	}
	if s.Kind != KindColumn || s.Column != ref {
		t.Errorf("structure = %+v", s)
	}
	want, _ := c.ColumnBytes(ref)
	if s.Bytes != want {
		t.Errorf("Bytes = %d, want %d", s.Bytes, want)
	}
	if s.ID != "col:lineitem.l_shipdate" {
		t.Errorf("ID = %q", s.ID)
	}
	if _, err := ColumnStructure(c, catalog.Col("zzz", "a")); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestIndexStructure(t *testing.T) {
	c := testCatalog(t)
	def := catalog.IndexDef{Table: "lineitem", Columns: []string{"l_shipdate", "l_partkey"}}
	s, err := IndexStructure(c, def)
	if err != nil {
		t.Fatalf("IndexStructure: %v", err)
	}
	if s.Kind != KindIndex || s.ID != ID(def.Name()) {
		t.Errorf("structure = %+v", s)
	}
	want, _ := c.IndexBytes(def)
	if s.Bytes != want || s.Bytes <= 0 {
		t.Errorf("Bytes = %d, want %d", s.Bytes, want)
	}
	if _, err := IndexStructure(c, catalog.IndexDef{Table: "bad"}); err == nil {
		t.Error("bad index accepted")
	}
}

func TestKindOf(t *testing.T) {
	c := testCatalog(t)
	col, _ := ColumnStructure(c, catalog.Col("orders", "o_orderdate"))
	idx, _ := IndexStructure(c, catalog.IndexDef{Table: "orders", Columns: []string{"o_orderdate"}})
	tests := []struct {
		id   ID
		want Kind
	}{
		{CPUNode(3).ID, KindCPUNode},
		{col.ID, KindColumn},
		{idx.ID, KindIndex},
	}
	for _, tt := range tests {
		if got := KindOf(tt.id); got != tt.want {
			t.Errorf("KindOf(%q) = %v, want %v", tt.id, got, tt.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindCPUNode.String() != "cpu-node" || KindColumn.String() != "column" || KindIndex.String() != "index" {
		t.Error("Kind strings wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestSetBasics(t *testing.T) {
	c := testCatalog(t)
	col, _ := ColumnStructure(c, catalog.Col("lineitem", "l_quantity"))
	cpu := CPUNode(2)

	s := NewSet(col, cpu, col) // duplicate dropped
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(col.ID) || !s.Contains(cpu.ID) {
		t.Error("Contains wrong")
	}
	if s.Contains("nope") {
		t.Error("phantom member")
	}
	got, ok := s.Get(col.ID)
	if !ok || got != col {
		t.Error("Get wrong")
	}
	if _, ok := s.Get("nope"); ok {
		t.Error("Get phantom")
	}
	// Insertion order preserved.
	items := s.Items()
	if items[0] != col || items[1] != cpu {
		t.Error("order not preserved")
	}
	if s.TotalBytes() != col.Bytes {
		t.Errorf("TotalBytes = %d, want %d (cpu nodes are diskless)", s.TotalBytes(), col.Bytes)
	}
}

func TestSetZeroValueUsable(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Contains("x") || s.TotalBytes() != 0 {
		t.Error("zero Set misbehaves")
	}
	if !s.Add(CPUNode(2)) {
		t.Error("Add to zero Set failed")
	}
	if s.Len() != 1 {
		t.Error("Add did not register")
	}
	if s.Add(CPUNode(2)) {
		t.Error("duplicate Add reported true")
	}
}

func TestStructureString(t *testing.T) {
	if CPUNode(2).String() == "" {
		t.Error("empty String")
	}
}

func TestRegistrySlotsAndIDOrder(t *testing.T) {
	r := NewRegistry()
	if r.Lookup("cpu:2") != 0 || r.Len() != 1 {
		t.Fatal("fresh registry must know nothing and reserve slot 0")
	}
	// First-sight order is deliberately not ID order.
	names := []ID{"idx_t(a)", "col:t.b", "cpu:3", "col:t.a", "zzz", "aaa"}
	var live []Slot
	for i, id := range names {
		s := r.Intern(id)
		if int(s) != i+1 || r.Intern(id) != s || r.Lookup(id) != s || r.ID(s) != id {
			t.Fatalf("Intern(%s) = %d, want stable slot %d", id, s, i+1)
		}
		live = r.Insert(live, s)
	}
	var walked []ID
	for _, s := range live {
		walked = append(walked, r.ID(s))
	}
	want := []ID{"aaa", "col:t.a", "col:t.b", "cpu:3", "idx_t(a)", "zzz"}
	if len(walked) != len(want) {
		t.Fatalf("live list = %v", walked)
	}
	for i := range want {
		if walked[i] != want[i] || r.ID(r.Ordered()[i]) != want[i] {
			t.Fatalf("ID order: live %v, Ordered %v, want %v", walked, r.Ordered(), want)
		}
	}
	live = r.Remove(live, r.Lookup("cpu:3"))
	live = r.Remove(live, r.Lookup("aaa"))
	if len(live) != 4 || r.ID(live[0]) != "col:t.a" || r.ID(live[3]) != "zzz" {
		t.Errorf("after Remove: %v", live)
	}
}

func TestRegistryOwnsCopies(t *testing.T) {
	r, other := NewRegistry(), NewRegistry()
	free := CPUNode(2)
	own := r.Register(free)
	if own == free || free.Slot != 0 {
		t.Fatal("Register must copy, never adopt or modify, its argument")
	}
	if own.Slot == 0 || own.ID != free.ID || r.Structure(own.Slot) != own || r.Register(CPUNode(2)) != own {
		t.Fatalf("canonical structure = %+v", own)
	}
	// Ownership is checked, not assumed: a free-standing structure and
	// one owned by another registry resolve by name.
	other.Intern("pad")
	foreign := other.Register(CPUNode(2))
	if foreign.Slot == own.Slot {
		t.Fatal("test needs the two registries to disagree on the slot")
	}
	for _, st := range []*Structure{own, free, foreign} {
		if r.Find(st) != own.Slot || r.SlotOf(st) != own.Slot {
			t.Errorf("Find/SlotOf(%p) = %d/%d, want %d", st, r.Find(st), r.SlotOf(st), own.Slot)
		}
	}
	unknown := CPUNode(9)
	if r.Find(unknown) != 0 {
		t.Error("Find must not register")
	}
	if s := r.SlotOf(unknown); s == 0 || r.Structure(s).NodeOrdinal != 9 {
		t.Error("SlotOf must register an unknown structure")
	}
	// A slot interned by name holds no structure until one is registered.
	s := r.Intern("col:lineitem.l_shipdate")
	if r.Structure(s) != nil {
		t.Error("interned name already has a structure")
	}
	c := testCatalog(t)
	col, err := r.Column(c, catalog.Col("lineitem", "l_shipdate"))
	if err != nil || col.Slot != s || r.ColumnSlot(col.Column) != s {
		t.Errorf("Column = %+v, %v; want slot %d", col, err, s)
	}
	if again, _ := r.Column(c, col.Column); again != col {
		t.Error("Column must return the registered structure")
	}
	def := catalog.IndexDef{Table: "lineitem", Columns: []string{"l_shipdate"}}
	idx, err := r.Index(c, def)
	if again, _ := r.Index(c, def); err != nil || again != idx || idx.Slot == 0 {
		t.Errorf("Index = %+v, %v", idx, err)
	}
}

// TestRegistryRemove pins Remove on hits and misses: a slot that is not in
// the list must leave the list alone — not delete the neighbour at its
// insertion point, and not run off the end.
func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	a, b, c, d := r.Intern("a"), r.Intern("b"), r.Intern("c"), r.Intern("d")
	cases := []struct {
		name   string
		live   []Slot
		remove Slot
		want   []Slot
	}{
		{"present first", []Slot{a, b, c}, a, []Slot{b, c}},
		{"present middle", []Slot{a, b, c}, b, []Slot{a, c}},
		{"present last", []Slot{a, b, c}, c, []Slot{a, b}},
		{"only element", []Slot{b}, b, []Slot{}},
		{"absent, sorts first", []Slot{b, c}, a, []Slot{b, c}},
		{"absent, sorts between", []Slot{a, c}, b, []Slot{a, c}},
		{"absent, sorts last", []Slot{a, b, c}, d, []Slot{a, b, c}},
		{"empty list", nil, b, nil},
	}
	for _, tc := range cases {
		got := r.Remove(slices.Clone(tc.live), tc.remove)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: Remove(%v, %d) = %v, want %v", tc.name, tc.live, tc.remove, got, tc.want)
		}
	}
}
