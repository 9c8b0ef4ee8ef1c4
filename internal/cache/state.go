package cache

import (
	"fmt"
	"time"

	"repro/internal/money"
	"repro/internal/structure"
)

// EntryState is the exported form of one resident entry. The structure
// itself is stored by ID only: structures are immutable and derivable
// from the catalog, so restore reconstructs them through a resolver
// instead of persisting sizes that could drift from the catalog.
type EntryState struct {
	ID structure.ID
	Record
}

// PendingState is the exported form of one in-flight build.
type PendingState struct {
	ID             structure.ID
	ReadyAt        time.Duration
	BuildPrice     money.Amount
	AmortRemaining money.Amount
}

// State is the exported form of a Cache: clock, residency and pending
// builds. Entries and pending builds are in ID order (the live lists'
// order, whatever slots the structures happen to hold) so repeated
// snapshots of the same cache are byte-identical.
type State struct {
	Clock    time.Duration
	Capacity int64
	Entries  []EntryState
	Pending  []PendingState
}

// Snapshot exports the cache state.
func (c *Cache) Snapshot() State {
	st := State{Clock: c.clock, Capacity: c.capacity}
	for _, s := range c.live {
		e := c.entries[s]
		st.Entries = append(st.Entries, EntryState{ID: e.S.ID, Record: e.Record})
	}
	for _, s := range c.pendingLive {
		pb := c.pending[s]
		st.Pending = append(st.Pending, PendingState{
			ID:             pb.entry.S.ID,
			ReadyAt:        pb.readyAt,
			BuildPrice:     pb.entry.BuildPrice,
			AmortRemaining: pb.entry.AmortRemaining,
		})
	}
	return st
}

// Restore replaces the cache's state with a previously exported one.
// Structures are rebuilt through resolve (typically economy.ResolveID
// over the scheme's catalog), so a snapshot taken against a different
// catalog fails loudly instead of restoring stale sizes. The receiving
// cache must be empty (fresh from New) and its capacity must match the
// snapshot's: a capacity change means the scheme was reconfigured and
// the snapshot no longer describes this cache.
func (c *Cache) Restore(st State, resolve func(structure.ID) (*structure.Structure, error)) error {
	if len(c.live) != 0 || len(c.pendingLive) != 0 {
		return fmt.Errorf("cache: restore into non-empty cache")
	}
	if c.capacity != st.Capacity {
		return fmt.Errorf("cache: snapshot capacity %d != configured %d", st.Capacity, c.capacity)
	}
	if st.Clock < 0 {
		return fmt.Errorf("cache: snapshot clock %v is negative", st.Clock)
	}
	// Resolve everything before touching the cache, so a bad snapshot
	// leaves it empty.
	entries := make([]*Entry, 0, len(st.Entries))
	resident := make(map[structure.ID]bool, len(st.Entries))
	for _, es := range st.Entries {
		if resident[es.ID] {
			return fmt.Errorf("cache: duplicate entry %s in snapshot", es.ID)
		}
		resident[es.ID] = true
		s, err := resolve(es.ID)
		if err != nil {
			return fmt.Errorf("cache: restoring %s: %w", es.ID, err)
		}
		entries = append(entries, &Entry{S: c.reg.Register(s), Record: es.Record})
	}
	pending := make([]*pendingBuild, 0, len(st.Pending))
	building := make(map[structure.ID]bool, len(st.Pending))
	for _, ps := range st.Pending {
		if building[ps.ID] {
			return fmt.Errorf("cache: duplicate pending build %s in snapshot", ps.ID)
		}
		if resident[ps.ID] {
			return fmt.Errorf("cache: %s both resident and pending in snapshot", ps.ID)
		}
		building[ps.ID] = true
		s, err := resolve(ps.ID)
		if err != nil {
			return fmt.Errorf("cache: restoring pending %s: %w", ps.ID, err)
		}
		pending = append(pending, &pendingBuild{
			entry: &Entry{
				S:      c.reg.Register(s),
				Record: Record{BuildPrice: ps.BuildPrice, AmortRemaining: ps.AmortRemaining},
			},
			readyAt: ps.ReadyAt,
		})
	}
	c.clock = st.Clock
	for _, e := range entries {
		c.addResident(e.S.Slot, e)
	}
	for _, pb := range pending {
		c.addPending(pb.entry.S.Slot, pb)
	}
	c.epoch++ // residency changed under anyone who planned against the empty cache
	return nil
}
