// Package structure defines the physical cache structures the cloud can
// invest in. §V-C fixes the inventory to three kinds: CPU nodes (N), table
// columns (T) and indexes (I). Structures are identified by a stable string
// ID — the name snapshots, events and views carry — and, inside one cache,
// by the dense Slot its Registry assigns that ID: the cache's residency
// state, the economy's regret ledgers (§IV-C) and the optimizer's price
// memo are slices indexed by slot, so the per-query decision path hashes
// no names. Slot numbers follow first-sight order and mean nothing outside
// their registry; anything ordered or observable follows ID order (see
// Registry).
package structure

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
)

// Kind enumerates the three structure types of §V-C.
type Kind int

// The structure kinds.
const (
	KindCPUNode Kind = iota // N: an extra CPU node booted on demand
	KindColumn              // T: a table column cached from the back-end
	KindIndex               // I: an index built in the cache
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPUNode:
		return "cpu-node"
	case KindColumn:
		return "column"
	case KindIndex:
		return "index"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ID is the canonical identifier of a structure. The textual forms are:
//
//	cpu:2                          the second CPU node (the first is free)
//	col:lineitem.l_shipdate        a cached column
//	idx_lineitem(l_shipdate,...)   an index (catalog.IndexDef.Name)
type ID string

// Structure describes one buildable structure. It is immutable once
// constructed; residency and accounting state live in the cache and the
// economy respectively.
type Structure struct {
	ID   ID
	Kind Kind

	// Column is set for KindColumn.
	Column catalog.ColumnRef
	// Index is set for KindIndex.
	Index catalog.IndexDef
	// NodeOrdinal is set for KindCPUNode: 2 for the first extra node,
	// 3 for the second, and so on (node 1 is the always-on coordinator
	// worker and is never a structure).
	NodeOrdinal int

	// Bytes is the disk footprint of the structure. CPU nodes occupy no
	// disk; columns occupy size(T) (Eq. 13); indexes size(I) (Eq. 15).
	Bytes int64

	// Slot is the structure's index in the Registry that owns it; 0 for
	// a free-standing structure. Only meaningful to that registry — use
	// Registry.Find/SlotOf when the owner is not known.
	Slot Slot
}

// CPUNode returns the structure describing the n-th CPU node (n ≥ 2).
func CPUNode(n int) *Structure {
	return &Structure{
		ID:          ID(fmt.Sprintf("cpu:%d", n)),
		Kind:        KindCPUNode,
		NodeOrdinal: n,
	}
}

// ColumnStructure returns the structure for caching one table column,
// sized from the catalog.
func ColumnStructure(c *catalog.Catalog, ref catalog.ColumnRef) (*Structure, error) {
	bytes, err := c.ColumnBytes(ref)
	if err != nil {
		return nil, err
	}
	return &Structure{
		ID:     ColumnID(ref),
		Kind:   KindColumn,
		Column: ref,
		Bytes:  bytes,
	}, nil
}

// IndexStructure returns the structure for building an index, sized from
// the catalog.
func IndexStructure(c *catalog.Catalog, def catalog.IndexDef) (*Structure, error) {
	bytes, err := c.IndexBytes(def)
	if err != nil {
		return nil, err
	}
	return &Structure{
		ID:    ID(def.Name()),
		Kind:  KindIndex,
		Index: def,
		Bytes: bytes,
	}, nil
}

// ColumnID returns the canonical ID for a cached column.
func ColumnID(ref catalog.ColumnRef) ID { return ID("col:" + ref.String()) }

// IndexID returns the canonical ID for an index definition.
func IndexID(def catalog.IndexDef) ID { return ID(def.Name()) }

// CPUNodeID returns the canonical ID for the n-th CPU node.
func CPUNodeID(n int) ID { return ID(fmt.Sprintf("cpu:%d", n)) }

// KindOf parses the kind out of an ID without needing the Structure —
// for code that has only a name; the decision path reads Structure.Kind.
func KindOf(id ID) Kind {
	s := string(id)
	switch {
	case strings.HasPrefix(s, "cpu:"):
		return KindCPUNode
	case strings.HasPrefix(s, "col:"):
		return KindColumn
	default:
		return KindIndex
	}
}

// String implements fmt.Stringer.
func (s *Structure) String() string {
	return fmt.Sprintf("%s(%s, %dB)", s.Kind, s.ID, s.Bytes)
}

// Set is an ordered collection of unique structures, used for a plan's
// structure list. Order is insertion order; uniqueness is by ID. Plan
// sets hold a handful of entries (the scanned columns, at most one index
// and the extra CPU nodes), so membership is a linear scan over the item
// slice — no side index, which keeps an empty Set allocation-free. The
// optimizer builds one per plan variant and shares it, unmodified, between
// every plan enumerated from that variant.
type Set struct {
	items []*Structure
}

// NewSet builds a set from the given structures, dropping duplicates.
func NewSet(items ...*Structure) *Set {
	s := &Set{}
	for _, it := range items {
		s.Add(it)
	}
	return s
}

// Add inserts a structure if its ID is not already present. It reports
// whether the structure was added.
func (s *Set) Add(st *Structure) bool {
	for _, it := range s.items {
		if it.ID == st.ID {
			return false
		}
	}
	s.items = append(s.items, st)
	return true
}

// Extend appends structures without the duplicate scan. The caller
// guarantees they are distinct from each other and from the set's
// contents.
func (s *Set) Extend(items ...*Structure) {
	s.items = append(s.items, items...)
}

// Contains reports whether the ID is in the set.
func (s *Set) Contains(id ID) bool {
	for _, it := range s.items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// Get returns the structure with the given ID, if present.
func (s *Set) Get(id ID) (*Structure, bool) {
	for _, it := range s.items {
		if it.ID == id {
			return it, true
		}
	}
	return nil, false
}

// Len returns the number of structures.
func (s *Set) Len() int { return len(s.items) }

// Items returns the structures in insertion order. The returned slice is
// shared; callers must not mutate it.
func (s *Set) Items() []*Structure { return s.items }

// TotalBytes sums the disk footprint of all structures in the set.
func (s *Set) TotalBytes() int64 {
	var total int64
	for _, it := range s.items {
		total += it.Bytes
	}
	return total
}
