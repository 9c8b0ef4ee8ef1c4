package structure

import (
	"slices"
	"sort"

	"repro/internal/catalog"
)

// Slot is the dense integer a Registry assigns to one structure ID. The
// decision path (cache residency, regret ledgers, market bookkeeping,
// build-price memos, plan structure sets) indexes plain slices by Slot
// instead of hashing ID strings; the strings survive only at the edges
// (snapshots, events, HTTP/wire views, tests). Slot 0 is never assigned,
// so the zero Structure is recognisably unregistered and a slot-indexed
// read of it finds nothing.
type Slot int32

// Registry is the one name→slot table of a cache and everything that
// decides against it (optimizer, economy, scheme). The inventory is
// catalog-bounded — a column per catalog column, the templates' index
// candidates, CPU nodes 2..MaxNodes — so slots are assigned on first
// sight and never reclaimed: the optimizer registers a template's whole
// structure set the first time it plans the template, restores intern the
// IDs a snapshot names, and an ID nobody has resolved to a Structure yet
// (a regret row restored by name) holds a slot with a nil Structure until
// someone does.
//
// Determinism rule: slot numbers depend on the order structures were
// first seen, which differs between a live run and its restored twin.
// Nothing observable may follow slot-assignment order. Every ordered walk
// (snapshots, the Eq. 3 investment scan, the failure sweep, build
// completion) follows ID order, which the registry keeps as a rank per
// slot: containers hold their live slots sorted by rank (Insert/Remove)
// and never sort strings on the decision path.
//
// A Registry is not safe for concurrent use; it shares its cache's
// single owner.
type Registry struct {
	byID  map[ID]Slot
	ids   []ID         // slot → ID; ids[0] is the unassigned slot
	items []*Structure // slot → registry-owned structure, nil until resolved
	rank  []int32      // slot → position in ID order
	order []Slot       // assigned slots in ID order

	cols map[catalog.ColumnRef]Slot // column reference → slot of its structure
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:  make(map[ID]Slot),
		ids:   make([]ID, 1),
		items: make([]*Structure, 1),
		rank:  make([]int32, 1),
		cols:  make(map[catalog.ColumnRef]Slot),
	}
}

// Len returns the size a slot-indexed slice needs to hold every assigned
// slot (the highest slot plus one).
func (r *Registry) Len() int { return len(r.ids) }

// Grow extends a slot-indexed table with zero rows until it covers every
// slot r has assigned, and returns it. Tables grow on demand — the
// registry does not know who indexes by its slots.
func Grow[T any](rows []T, r *Registry) []T {
	if n := r.Len(); n > len(rows) {
		rows = append(rows, make([]T, n-len(rows))...)
	}
	return rows
}

// Intern returns the slot of an ID, assigning the next one on first
// sight. This is the by-name entry point: one string hash, for restores
// and tests — the decision path carries slots.
func (r *Registry) Intern(id ID) Slot {
	if s, ok := r.byID[id]; ok {
		return s
	}
	s := Slot(len(r.ids))
	r.byID[id] = s
	r.ids = append(r.ids, id)
	r.items = append(r.items, nil)
	// Keep the ID order: later slots shift up one rank, which preserves
	// the relative order every sorted live list relies on.
	pos := sort.Search(len(r.order), func(i int) bool { return r.ids[r.order[i]] > id })
	r.order = slices.Insert(r.order, pos, s)
	r.rank = append(r.rank, 0)
	for i := pos; i < len(r.order); i++ {
		r.rank[r.order[i]] = int32(i)
	}
	return s
}

// Lookup returns the slot of an ID, or 0 when the registry has never
// seen it.
func (r *Registry) Lookup(id ID) Slot { return r.byID[id] }

// Register makes the registry's own copy of st — Slot filled in — the
// canonical structure of its ID and returns it; a structure already
// registered under that ID wins and is returned instead. The argument is
// never modified or retained, so callers may pass free-standing
// structures (or ones owned by another registry) freely.
func (r *Registry) Register(st *Structure) *Structure {
	s := r.Intern(st.ID)
	if own := r.items[s]; own != nil {
		return own
	}
	own := new(Structure)
	*own = *st
	own.Slot = s
	r.items[s] = own
	if own.Kind == KindColumn {
		r.cols[own.Column] = s
	}
	return own
}

// Find returns the slot of st in this registry without registering
// anything: the structure's own Slot when the registry owns it (one
// bounds check and a pointer compare), otherwise a lookup by ID — 0 when
// unknown.
func (r *Registry) Find(st *Structure) Slot {
	if r.owns(st) {
		return st.Slot
	}
	return r.byID[st.ID]
}

// SlotOf is Find that registers an unknown structure first.
func (r *Registry) SlotOf(st *Structure) Slot {
	if r.owns(st) {
		return st.Slot
	}
	return r.Register(st).Slot
}

// owns reports whether st is this registry's own copy, so that its Slot
// can be trusted.
func (r *Registry) owns(st *Structure) bool {
	s := st.Slot
	return s > 0 && int(s) < len(r.items) && r.items[s] == st
}

// ID returns the ID behind a slot.
func (r *Registry) ID(s Slot) ID { return r.ids[s] }

// Structure returns the registered structure behind a slot, or nil when
// the slot was interned by name only.
func (r *Registry) Structure(s Slot) *Structure { return r.items[s] }

// Ordered returns every assigned slot in ID order. The slice is the
// registry's own; callers must not modify it.
func (r *Registry) Ordered() []Slot { return r.order }

// Column returns the registered structure of a catalog column, sizing and
// registering it from the catalog on first use.
func (r *Registry) Column(c *catalog.Catalog, ref catalog.ColumnRef) (*Structure, error) {
	if s, ok := r.cols[ref]; ok {
		return r.items[s], nil
	}
	st, err := ColumnStructure(c, ref)
	if err != nil {
		return nil, err
	}
	return r.Register(st), nil
}

// ColumnSlot returns the slot of a column's structure, or 0 when no such
// structure was ever registered (so it cannot be resident).
func (r *Registry) ColumnSlot(ref catalog.ColumnRef) Slot { return r.cols[ref] }

// Index returns the registered structure of an index definition, sizing
// and registering it from the catalog on first use.
func (r *Registry) Index(c *catalog.Catalog, def catalog.IndexDef) (*Structure, error) {
	if s := r.byID[IndexID(def)]; s != 0 && r.items[s] != nil {
		return r.items[s], nil
	}
	st, err := IndexStructure(c, def)
	if err != nil {
		return nil, err
	}
	return r.Register(st), nil
}

// Insert adds slot s to a live list kept in ID order and returns the
// list. The caller guarantees s is not already present.
func (r *Registry) Insert(live []Slot, s Slot) []Slot {
	return slices.Insert(live, r.search(live, s), s)
}

// Remove deletes slot s from a live list kept in ID order and returns
// the list; a list that does not hold s comes back unchanged.
func (r *Registry) Remove(live []Slot, s Slot) []Slot {
	i := r.search(live, s)
	if i == len(live) || live[i] != s {
		return live
	}
	return slices.Delete(live, i, i+1)
}

// search returns the position of s (or where it belongs) in an
// ID-ordered live list.
func (r *Registry) search(live []Slot, s Slot) int {
	rk := r.rank[s]
	return sort.Search(len(live), func(i int) bool { return r.rank[live[i]] >= rk })
}
