// Package cache tracks the state of the cloud cache: which structures
// (columns, indexes, CPU nodes) are resident, which are being built, how
// much disk they occupy, when each was last used, and how much maintenance
// rent has accrued against each since it was last paid off (§V-C
// footnote 3).
//
// The cache is purely mechanical: it does not price anything and takes no
// decisions. Schemes and the economy decide what to build and what to
// evict; the simulator advances the clock.
//
// Each cache owns the structure.Registry that names its inventory, and
// keeps its state in slices indexed by the registry's slots. The slot
// methods (At, BuildingAt, TouchAt, EvictAt) are the decision path; the
// ID methods (Has, Get, Building, Touch, Evict) resolve the name first and
// serve the edges — views, restores, tests. Every walk the cache offers
// (ForEach, Entries, CompleteDue, Snapshot) is in structure-ID order,
// never slot-assignment order, so a restored cache — whose slots were
// assigned in a different order — behaves and serialises identically.
package cache

import (
	"fmt"
	"time"

	"repro/internal/money"
	"repro/internal/structure"
)

// Entry is one resident structure plus its bookkeeping.
type Entry struct {
	S *structure.Structure
	Record

	// share memoizes AmortShare's Eq. 7 quotient BuildPrice/shareN, as
	// divided from a BuildPrice of shareOf: the build price is fixed from
	// build to eviction and so is n, so every query that prices or settles
	// the entry reads the quotient instead of dividing again. Derived
	// state: never persisted, recomputed when either input differs.
	share, shareOf money.Amount
	shareN         int64
}

// Record is one structure's residency history and money: what an Entry
// keeps and a snapshot's EntryState persists, declared once for both.
type Record struct {
	// BuiltAt is when the structure became usable.
	BuiltAt time.Duration
	// FirstUsed is when a selected plan first employed the structure
	// (zero until then). Value rates are measured from first use so the
	// idle window while the rest of a plan's structure set was still
	// building does not dilute them.
	FirstUsed time.Duration
	// LastUsed is when a selected plan last employed the structure.
	LastUsed time.Duration
	// Uses counts selected plans that employed the structure.
	Uses int64

	// BuildPrice is what the cloud paid to build the structure, the
	// basis of amortization (Eq. 6) and of the maintenance-failure
	// threshold.
	BuildPrice money.Amount
	// AmortRemaining is the unamortized share of BuildPrice still to be
	// recovered from future queries.
	AmortRemaining money.Amount

	// MaintPaidUntil is the clock point up to which maintenance rent
	// has been charged to users (footnote 3: each selected plan pays the
	// accumulated maintenance since the previous payer).
	MaintPaidUntil time.Duration
	// UnpaidMaint is rent accrued but not yet recovered from any user.
	UnpaidMaint money.Amount
	// EarnedValue accumulates the measured value the structure has
	// produced: amortization shares collected plus its share of each
	// chosen plan's price advantage over the back-end alternative. The
	// economy's rent-vs-yield eviction compares rent since last use
	// against EarnedValue per use.
	EarnedValue money.Amount
}

// pendingBuild is an in-flight investment.
type pendingBuild struct {
	entry   *Entry
	readyAt time.Duration
}

// Cache is the mutable cache state. It is not safe for concurrent use; a
// simulation owns exactly one cache.
//
// Residency and pending builds are slices indexed by the structure's
// registry slot, each with a live list of the occupied slots kept in ID
// order: the per-query reads (is this column resident? what does it owe?)
// are one slice index, and every ordered walk — build completion, the
// failure sweep, snapshots — follows the live list without sorting.
type Cache struct {
	clock time.Duration
	reg   *structure.Registry

	entries     []*Entry         // slot → resident entry, nil when not resident
	live        []structure.Slot // resident slots in ID order
	pending     []*pendingBuild  // slot → in-flight build, nil when none
	pendingLive []structure.Slot // building slots in ID order

	resident int64 // disk bytes of resident structures
	capacity int64 // 0 = unlimited (economy schemes); >0 = hard cap (net-only)

	// nodes and maxNode count the resident extra CPU nodes and track the
	// highest resident ordinal, maintained by CompleteDue and Evict so
	// the rent integrators read them without walking the residents.
	nodes   int
	maxNode int

	// epoch counts mutations that can change what is resident or being
	// built (build starts, completions, evictions). Callers memoizing
	// residency-dependent computations (the optimizer's build pricing)
	// invalidate when it moves.
	epoch int64
}

// New creates an empty cache with its own structure registry.
// capacityBytes of 0 means unlimited.
func New(capacityBytes int64) *Cache {
	if capacityBytes < 0 {
		capacityBytes = 0
	}
	return &Cache{
		reg:      structure.NewRegistry(),
		capacity: capacityBytes,
		maxNode:  1,
	}
}

// Registry returns the slot table shared by this cache and everything
// that decides against it. The optimizer and the economy take their
// slots from here, so a plan enumerated against a cache indexes that
// cache's state directly.
func (c *Cache) Registry() *structure.Registry { return c.reg }

// Clock returns the cache's current time.
func (c *Cache) Clock() time.Duration { return c.clock }

// Epoch returns the residency-mutation counter: it moves whenever a
// build starts, completes, or a structure is evicted, and never
// otherwise. Memoize residency-dependent results against it.
func (c *Cache) Epoch() int64 { return c.epoch }

// Advance moves the clock forward. Moving backwards is a programming error
// and panics: simulation time is monotone.
func (c *Cache) Advance(now time.Duration) {
	if now < c.clock {
		panic(fmt.Sprintf("cache: clock moved backwards: %v -> %v", c.clock, now))
	}
	c.clock = now
}

// Capacity returns the disk cap in bytes (0 = unlimited).
func (c *Cache) Capacity() int64 { return c.capacity }

// ResidentBytes returns disk currently occupied by resident structures.
func (c *Cache) ResidentBytes() int64 { return c.resident }

// At returns the resident entry in a slot, or nil. Slots the cache has
// never seen (including the unassigned slot 0) hold nothing.
func (c *Cache) At(s structure.Slot) *Entry {
	if int(s) < len(c.entries) {
		return c.entries[s]
	}
	return nil
}

// BuildingAt reports whether a build for the slot is in flight.
func (c *Cache) BuildingAt(s structure.Slot) bool {
	return int(s) < len(c.pending) && c.pending[s] != nil
}

// Has reports whether the structure is resident (built and not evicted).
func (c *Cache) Has(id structure.ID) bool { return c.At(c.reg.Lookup(id)) != nil }

// Get returns the entry for a resident structure.
func (c *Cache) Get(id structure.ID) (*Entry, bool) {
	e := c.At(c.reg.Lookup(id))
	return e, e != nil
}

// Building reports whether a build for the structure is in flight.
func (c *Cache) Building(id structure.ID) bool { return c.BuildingAt(c.reg.Lookup(id)) }

// Len returns the number of resident structures.
func (c *Cache) Len() int { return len(c.live) }

// Live returns the resident slots in structure-ID order. The slice is
// the cache's own: read it, and finish before adding or removing entries.
func (c *Cache) Live() []structure.Slot { return c.live }

// ForEach calls f for every resident entry in structure-ID order, without
// allocating. f must not add or remove entries.
func (c *Cache) ForEach(f func(*Entry)) {
	for _, s := range c.live {
		f(c.entries[s])
	}
}

// Entries returns the resident entries in structure-ID order.
func (c *Cache) Entries() []*Entry {
	out := make([]*Entry, len(c.live))
	for i, s := range c.live {
		out[i] = c.entries[s]
	}
	return out
}

// grow sizes the slot-indexed slices to cover every assigned slot.
func (c *Cache) grow() {
	c.entries = structure.Grow(c.entries, c.reg)
	c.pending = structure.Grow(c.pending, c.reg)
}

// StartBuild registers an investment: the structure becomes resident at
// readyAt. Duplicate builds (already resident or already pending) are
// rejected so the economy cannot double-spend.
func (c *Cache) StartBuild(st *structure.Structure, readyAt time.Duration, buildPrice money.Amount) error {
	if st == nil {
		return fmt.Errorf("cache: nil structure")
	}
	s := c.reg.SlotOf(st)
	if c.At(s) != nil {
		return fmt.Errorf("cache: %s already resident", st.ID)
	}
	if c.BuildingAt(s) {
		return fmt.Errorf("cache: %s already building", st.ID)
	}
	if readyAt < c.clock {
		readyAt = c.clock
	}
	c.addPending(s, &pendingBuild{
		entry: &Entry{
			S:      c.reg.Structure(s),
			Record: Record{BuildPrice: buildPrice, AmortRemaining: buildPrice},
		},
		readyAt: readyAt,
	})
	c.epoch++
	return nil
}

// addPending files an in-flight build under its slot.
func (c *Cache) addPending(s structure.Slot, pb *pendingBuild) {
	c.grow()
	c.pending[s] = pb
	c.pendingLive = c.reg.Insert(c.pendingLive, s)
}

// addResident files a resident entry under its slot, maintaining the
// byte and CPU-node counters.
func (c *Cache) addResident(s structure.Slot, e *Entry) {
	c.grow()
	c.entries[s] = e
	c.live = c.reg.Insert(c.live, s)
	c.resident += e.S.Bytes
	if e.S.Kind == structure.KindCPUNode {
		c.nodes++
		if e.S.NodeOrdinal > c.maxNode {
			c.maxNode = e.S.NodeOrdinal
		}
	}
}

// CompleteDue promotes pending builds whose ready time has passed. It
// returns the newly resident entries in structure-ID order.
func (c *Cache) CompleteDue() []*Entry {
	var done []*Entry
	keep := c.pendingLive[:0]
	for _, s := range c.pendingLive {
		pb := c.pending[s]
		if pb.readyAt > c.clock {
			keep = append(keep, s)
			continue
		}
		pb.entry.BuiltAt = pb.readyAt
		pb.entry.LastUsed = pb.readyAt
		pb.entry.MaintPaidUntil = pb.readyAt
		c.pending[s] = nil
		c.addResident(s, pb.entry)
		done = append(done, pb.entry)
		c.epoch++
	}
	c.pendingLive = keep
	return done
}

// TouchAt records that a selected plan used the structure in the slot
// now.
func (c *Cache) TouchAt(s structure.Slot) {
	if e := c.At(s); e != nil {
		if e.Uses == 0 {
			e.FirstUsed = c.clock
		}
		e.LastUsed = c.clock
		e.Uses++
	}
}

// Touch records that a selected plan used the structure now.
func (c *Cache) Touch(id structure.ID) { c.TouchAt(c.reg.Lookup(id)) }

// EvictAt removes the resident structure in a slot and returns its
// entry.
func (c *Cache) EvictAt(s structure.Slot) (*Entry, bool) {
	e := c.At(s)
	if e == nil {
		return nil, false
	}
	c.entries[s] = nil
	c.live = c.reg.Remove(c.live, s)
	c.resident -= e.S.Bytes
	if e.S.Kind == structure.KindCPUNode {
		c.nodes--
		if e.S.NodeOrdinal == c.maxNode {
			c.maxNode = 1
			for _, ls := range c.live {
				if st := c.entries[ls].S; st.Kind == structure.KindCPUNode && st.NodeOrdinal > c.maxNode {
					c.maxNode = st.NodeOrdinal
				}
			}
		}
	}
	c.epoch++
	return e, true
}

// Evict removes a resident structure and returns its entry.
func (c *Cache) Evict(id structure.ID) (*Entry, bool) { return c.EvictAt(c.reg.Lookup(id)) }

// EnsureRoom evicts LRU disk structures until adding `need` bytes fits the
// capacity. It returns the evicted entries (possibly none). With no
// capacity cap it never evicts. Structures that would still not fit (need >
// capacity) leave the cache unchanged and report false.
func (c *Cache) EnsureRoom(need int64) ([]*Entry, bool) {
	if c.capacity == 0 || need <= 0 {
		return nil, true
	}
	if need > c.capacity {
		return nil, false
	}
	var evicted []*Entry
	for c.resident+need > c.capacity {
		// The least recently used disk structure, earliest ID among ties:
		// the live list is in ID order, so the first strict minimum wins.
		var victim *Entry
		for _, s := range c.live {
			if e := c.entries[s]; e.S.Bytes > 0 && (victim == nil || e.LastUsed < victim.LastUsed) {
				victim = e
			}
		}
		if victim == nil {
			return evicted, false
		}
		c.EvictAt(victim.S.Slot)
		evicted = append(evicted, victim)
	}
	return evicted, true
}

// NodeCount returns the number of resident extra CPU nodes.
func (c *Cache) NodeCount() int { return c.nodes }

// MaxNodeOrdinal returns the highest resident CPU node ordinal, or 1 when
// only the base worker exists. Plans may use nodes 1..MaxNodeOrdinal.
func (c *Cache) MaxNodeOrdinal() int { return c.maxNode }

// PendingCount returns the number of builds in flight.
func (c *Cache) PendingCount() int { return len(c.pendingLive) }
