package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/money"
	"repro/internal/structure"
)

// refCache is the plain map-keyed cache the slot-indexed one replaced,
// kept as the reference model: residency and pending builds are maps by
// structure ID, and every ordered result is produced by sorting IDs.
type refCache struct {
	clock    time.Duration
	entries  map[structure.ID]*Entry
	pending  map[structure.ID]*pendingBuild
	resident int64
	capacity int64
}

func newRefCache(capacity int64) *refCache {
	return &refCache{
		entries:  map[structure.ID]*Entry{},
		pending:  map[structure.ID]*pendingBuild{},
		capacity: capacity,
	}
}

func (r *refCache) sortedEntries() []*Entry {
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].S.ID < out[j].S.ID })
	return out
}

func (r *refCache) startBuild(st *structure.Structure, readyAt time.Duration, price money.Amount) bool {
	if r.entries[st.ID] != nil || r.pending[st.ID] != nil {
		return false
	}
	if readyAt < r.clock {
		readyAt = r.clock
	}
	r.pending[st.ID] = &pendingBuild{entry: &Entry{S: st, Record: Record{BuildPrice: price, AmortRemaining: price}}, readyAt: readyAt}
	return true
}

func (r *refCache) completeDue() []structure.ID {
	var done []structure.ID
	for id, pb := range r.pending {
		if pb.readyAt <= r.clock {
			pb.entry.BuiltAt, pb.entry.LastUsed, pb.entry.MaintPaidUntil = pb.readyAt, pb.readyAt, pb.readyAt
			r.entries[id] = pb.entry
			r.resident += pb.entry.S.Bytes
			done = append(done, id)
			delete(r.pending, id)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return done
}

func (r *refCache) touch(id structure.ID) {
	if e := r.entries[id]; e != nil {
		if e.Uses == 0 {
			e.FirstUsed = r.clock
		}
		e.LastUsed = r.clock
		e.Uses++
	}
}

func (r *refCache) evict(id structure.ID) bool {
	e := r.entries[id]
	if e == nil {
		return false
	}
	delete(r.entries, id)
	r.resident -= e.S.Bytes
	return true
}

func (r *refCache) ensureRoom(need int64) ([]structure.ID, bool) {
	if r.capacity == 0 || need <= 0 {
		return nil, true
	}
	if need > r.capacity {
		return nil, false
	}
	var evicted []structure.ID
	for r.resident+need > r.capacity {
		all := r.sortedEntries()
		sort.SliceStable(all, func(i, j int) bool { return all[i].LastUsed < all[j].LastUsed })
		var victim *Entry
		for _, e := range all {
			if e.S.Bytes > 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return evicted, false
		}
		r.evict(victim.S.ID)
		evicted = append(evicted, victim.S.ID)
	}
	return evicted, true
}

func (r *refCache) nodes() (count, maxOrdinal int) {
	maxOrdinal = 1
	for _, e := range r.entries {
		if e.S.Kind == structure.KindCPUNode {
			count++
			if e.S.NodeOrdinal > maxOrdinal {
				maxOrdinal = e.S.NodeOrdinal
			}
		}
	}
	return count, maxOrdinal
}

func (r *refCache) snapshot() State {
	st := State{Clock: r.clock, Capacity: r.capacity}
	for _, e := range r.sortedEntries() {
		st.Entries = append(st.Entries, EntryState{ID: e.S.ID, Record: e.Record})
	}
	for id, pb := range r.pending {
		st.Pending = append(st.Pending, PendingState{
			ID: id, ReadyAt: pb.readyAt, BuildPrice: pb.entry.BuildPrice, AmortRemaining: pb.entry.AmortRemaining,
		})
	}
	sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].ID < st.Pending[j].ID })
	return st
}

// diffPool is the structure inventory the differential runs draw from:
// CPU nodes, sized columns and indexes, and — standing in for IDs no
// catalog knows, interned lazily on first sight — a few structures with
// free-form names that sort before, between and after the regular ones.
func diffPool() []*structure.Structure {
	var pool []*structure.Structure
	for n := 2; n <= 5; n++ {
		pool = append(pool, structure.CPUNode(n))
	}
	for i := 0; i < 12; i++ {
		pool = append(pool, &structure.Structure{
			ID: structure.ID(fmt.Sprintf("col:t.c%02d", i)), Kind: structure.KindColumn, Bytes: int64(100 + 37*i),
		})
	}
	for i := 0; i < 6; i++ {
		pool = append(pool, &structure.Structure{
			ID: structure.ID(fmt.Sprintf("idx_t(c%02d)", i)), Kind: structure.KindIndex, Bytes: int64(40 + 11*i),
		})
	}
	for _, id := range []structure.ID{"aardvark", "col:t.c05x", "zzz", "idx_", "d"} {
		pool = append(pool, &structure.Structure{ID: id, Kind: structure.KindOf(id), Bytes: 64})
	}
	return pool
}

func ids(es []*Entry) []structure.ID {
	out := make([]structure.ID, 0, len(es))
	for _, e := range es {
		out = append(out, e.S.ID)
	}
	return out
}

// TestCacheMatchesMapModel drives the slot-indexed cache and the map
// model through the same seeded op sequences — builds, completions,
// touches, evictions, capacity evictions, and a Snapshot/Restore into a
// fresh cache mid-sequence, whose registry assigns slots in a different
// order than the live one did — and demands identical observable state
// after every op: the full snapshot, iteration order, completion order,
// eviction victims and the CPU-node counters.
func TestCacheMatchesMapModel(t *testing.T) {
	pool := diffPool()
	byID := map[structure.ID]*structure.Structure{}
	for _, st := range pool {
		byID[st.ID] = st
	}
	resolve := func(id structure.ID) (*structure.Structure, error) {
		if st := byID[id]; st != nil {
			return st, nil
		}
		return nil, fmt.Errorf("unknown %s", id)
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(0)
		if seed%2 == 0 {
			capacity = 900
		}
		c, ref := New(capacity), newRefCache(capacity)
		check := func(op string) {
			t.Helper()
			if got, want := c.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d after %s: snapshot\ngot  %+v\nwant %+v", seed, op, got, want)
			}
			if got, want := ids(c.Entries()), ids(ref.sortedEntries()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d after %s: Entries order %v, want %v", seed, op, got, want)
			}
			var walked []structure.ID
			c.ForEach(func(e *Entry) { walked = append(walked, e.S.ID) })
			if want := ids(ref.sortedEntries()); !reflect.DeepEqual(walked, want) && len(walked)+len(want) > 0 {
				t.Fatalf("seed %d after %s: ForEach order %v, want %v", seed, op, walked, want)
			}
			n, maxOrd := ref.nodes()
			if c.NodeCount() != n || c.MaxNodeOrdinal() != maxOrd {
				t.Fatalf("seed %d after %s: nodes %d/max %d, want %d/%d", seed, op, c.NodeCount(), c.MaxNodeOrdinal(), n, maxOrd)
			}
			if c.ResidentBytes() != ref.resident || c.Len() != len(ref.entries) || c.PendingCount() != len(ref.pending) {
				t.Fatalf("seed %d after %s: bytes %d len %d pending %d, want %d %d %d", seed, op,
					c.ResidentBytes(), c.Len(), c.PendingCount(), ref.resident, len(ref.entries), len(ref.pending))
			}
		}
		for step := 0; step < 600; step++ {
			st := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(10); op {
			case 0, 1, 2:
				ready := c.Clock() + time.Duration(rng.Intn(5))*time.Second
				price := money.Amount(rng.Intn(1000))
				err := c.StartBuild(st, ready, price)
				if ok := ref.startBuild(st, ready, price); ok != (err == nil) {
					t.Fatalf("seed %d step %d: StartBuild(%s) err=%v, model accepted=%v", seed, step, st.ID, err, ok)
				}
				check("StartBuild " + string(st.ID))
			case 3, 4:
				now := c.Clock() + time.Duration(rng.Intn(4))*time.Second
				c.Advance(now)
				ref.clock = now
				if got, want := ids(c.CompleteDue()), ref.completeDue(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("seed %d step %d: CompleteDue %v, want %v", seed, step, got, want)
				}
				check("CompleteDue")
			case 5, 6:
				c.Touch(st.ID)
				ref.touch(st.ID)
				if c.Has(st.ID) != (ref.entries[st.ID] != nil) || c.Building(st.ID) != (ref.pending[st.ID] != nil) {
					t.Fatalf("seed %d step %d: Has/Building(%s) disagree with the model", seed, step, st.ID)
				}
				check("Touch " + string(st.ID))
			case 7:
				_, ok := c.Evict(st.ID)
				if want := ref.evict(st.ID); ok != want {
					t.Fatalf("seed %d step %d: Evict(%s) = %v, want %v", seed, step, st.ID, ok, want)
				}
				check("Evict " + string(st.ID))
			case 8:
				need := int64(rng.Intn(500))
				evicted, ok := c.EnsureRoom(need)
				wantIDs, wantOK := ref.ensureRoom(need)
				if got := ids(evicted); ok != wantOK || (!reflect.DeepEqual(got, wantIDs) && len(got)+len(wantIDs) > 0) {
					t.Fatalf("seed %d step %d: EnsureRoom(%d) = %v,%v want %v,%v", seed, step, need, got, ok, wantIDs, wantOK)
				}
				check("EnsureRoom")
			case 9:
				// Restart: a fresh cache adopts the snapshot. Its registry
				// meets the IDs in snapshot (ID) order, not in the order the
				// live run first saw them.
				fresh := New(capacity)
				if err := fresh.Restore(c.Snapshot(), resolve); err != nil {
					t.Fatalf("seed %d step %d: Restore: %v", seed, step, err)
				}
				c = fresh
				check("Restore")
			}
		}
	}
}
