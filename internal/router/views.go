package router

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// viewTimeout bounds every backend round-trip a merged view makes.
const viewTimeout = 5 * time.Second

// Stats merges the cluster into one server.Stats, attributing each
// shard to the backend that owns it (a disowned replica's frozen
// counters would double-count). Aggregates are recomputed from the
// selected per-shard rows with the same arithmetic the single-process
// engine uses, so a client reading /v1/stats through the router sees
// the same shape and the same conservation properties.
//
// One approximation is unavoidable: the raw response-time reservoirs do
// not travel over the wire, so the cluster percentiles are the
// query-weighted mean of the per-shard percentiles rather than a true
// merged-reservoir estimate.
func (r *Router) Stats() server.Stats {
	owner := r.ownerSnapshot()
	per := make([]server.ShardStats, r.shards)
	byBackend := make([]*server.Stats, len(r.backends))

	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	agg := server.Stats{Shards: r.shards}
	for _, b := range r.backends {
		cl, err := b.pool.Get()
		if err != nil {
			continue
		}
		st, err := cl.Stats(ctx)
		if err != nil {
			continue
		}
		byBackend[b.id] = &st
		if agg.Scheme == "" {
			agg.Scheme, agg.Provider = st.Scheme, st.Provider
		}
		if st.Draining {
			agg.Draining = true
		}
	}
	for k := 0; k < r.shards; k++ {
		if bs := byBackend[owner[k]]; bs != nil && k < len(bs.PerShard) {
			per[k] = bs.PerShard[k]
		} else {
			// Owner unreachable: an honest hole, not stale numbers.
			per[k] = server.ShardStats{Shard: k, Scheme: agg.Scheme}
		}
	}

	agg.PerShard = per
	agg.Aggregate()
	if executed := float64(agg.Queries - agg.Declined); executed > 0 {
		var p50W, p95W, p99W float64
		for _, st := range per {
			w := float64(st.Queries - st.Declined)
			p50W += st.ResponseP50Sec * w
			p95W += st.ResponseP95Sec * w
			p99W += st.ResponseP99Sec * w
		}
		agg.ResponseP50Sec = p50W / executed
		agg.ResponseP95Sec = p95W / executed
		agg.ResponseP99Sec = p99W / executed
	}
	return agg
}

// TraceViewSnapshot concatenates the backends' trace rings. SampleEvery
// is taken from the first backend whose tracer is on (-1 if none).
func (r *Router) TraceViewSnapshot(tenant, template string, n int) server.TraceView {
	view := server.TraceView{SampleEvery: -1}
	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	for _, b := range r.backends {
		cl, err := b.pool.Get()
		if err != nil {
			continue
		}
		tv, err := cl.Trace(ctx, tenant, template, n)
		if err != nil {
			continue
		}
		if view.SampleEvery < 0 && tv.SampleEvery >= 0 {
			view.SampleEvery = tv.SampleEvery
		}
		view.Records = append(view.Records, tv.Records...)
	}
	if view.Records == nil {
		view.Records = []obs.Record{} // keep the []-not-null JSON contract
	}
	return view
}

// addTotals sums one backend's conservation totals into the cluster's.
func addTotals(sum *server.EventTotalsView, t server.EventTotalsView) {
	sum.Invests += t.Invests
	sum.Evicts += t.Evicts
	sum.Recovers += t.Recovers
	sum.InvestedUSD += t.InvestedUSD
	sum.EvictedUSD += t.EvictedUSD
	sum.RecoveredUSD += t.RecoveredUSD
}

// EventsViewSnapshot concatenates the backends' journals and sums their
// conservation totals. Events keep each backend's own Seq numbering —
// Seq orders a journal, not the cluster.
func (r *Router) EventsViewSnapshot(typ, tenant string, n int) server.EventsView {
	view := server.EventsView{}
	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	for _, b := range r.backends {
		cl, err := b.pool.Get()
		if err != nil {
			continue
		}
		ev, err := cl.Events(ctx, typ, tenant, n)
		if err != nil {
			continue
		}
		addTotals(&view.Totals, ev.Totals)
		view.Events = append(view.Events, ev.Events...)
	}
	if view.Events == nil {
		view.Events = []obs.Event{} // keep the []-not-null JSON contract
	}
	return view
}

// maxCursors bounds the EventsViewSince cursor table; past it the
// least-recently-used cursor is dropped (an events subscription holds
// exactly one and touches it on every poll, so live subscriptions
// survive churn in short-lived ones — evicting by lowest id would
// silently reset the longest-lived subscription and replay its whole
// buffer).
const maxCursors = 64

// cursorEntry is one live cursor: per-backend last-seen journal Seqs
// plus the logical access stamp LRU eviction orders by.
type cursorEntry struct {
	last []int64
	used int64
}

// EventsViewSince serves the incremental feed behind events
// subscriptions. Each backend numbers its journal independently, so the
// router's cursor is an opaque handle into a table of per-backend
// last-seen Seqs; pass 0 (or less) to open a new cursor, pass the
// returned value to resume it.
func (r *Router) EventsViewSince(since int64) (server.EventsView, int64) {
	r.curMu.Lock()
	ent, ok := r.cursors[since]
	if !ok {
		r.nextCursor++
		since = r.nextCursor
		ent = &cursorEntry{last: make([]int64, len(r.backends))}
		r.cursors[since] = ent
		if len(r.cursors) > maxCursors {
			lruID, lruUsed := int64(0), int64(1<<62)
			for id, e := range r.cursors {
				if id != since && e.used < lruUsed {
					lruID, lruUsed = id, e.used
				}
			}
			delete(r.cursors, lruID)
		}
	}
	r.curClock++
	ent.used = r.curClock
	last := append([]int64(nil), ent.last...)
	r.curMu.Unlock()

	view := server.EventsView{}
	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	for _, b := range r.backends {
		cl, err := b.pool.Get()
		if err != nil {
			continue
		}
		ev, err := cl.Events(ctx, "", "", 0)
		if err != nil {
			continue
		}
		addTotals(&view.Totals, ev.Totals)
		for _, e := range ev.Events {
			if e.Seq > last[b.id] {
				view.Events = append(view.Events, e)
				last[b.id] = e.Seq
			}
		}
	}
	if view.Events == nil {
		view.Events = []obs.Event{} // keep the []-not-null JSON contract
	}
	r.curMu.Lock()
	if e, ok := r.cursors[since]; ok {
		e.last = last
	}
	r.curMu.Unlock()
	return view, since
}

// Checkpoint is refused at the router: checkpoints are per-backend
// durable state, each written to its own backend's state path. Send
// the checkpoint frame to each backend's own listener instead. (The
// refusal travels as a tag-scoped error: the front connection that
// asked keeps serving.)
func (r *Router) Checkpoint() (string, int64, error) {
	return "", 0, errors.New("router: checkpoint is a per-backend operation; call the backend directly")
}

// FreezeShard relays to the shard's current owner — the first step of
// an operator-driven (non-router) migration.
func (r *Router) FreezeShard(shard int) error {
	if shard < 0 || shard >= r.shards {
		return fmt.Errorf("router: shard %d out of range [0,%d)", shard, r.shards)
	}
	cl, err := r.backends[r.Owner(shard)].pool.Get()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	return cl.FreezeShard(ctx, shard)
}

// ExtractShardPacket relays to the shard's current owner.
func (r *Router) ExtractShardPacket(shard int) ([]byte, error) {
	if shard < 0 || shard >= r.shards {
		return nil, fmt.Errorf("router: shard %d out of range [0,%d)", shard, r.shards)
	}
	cl, err := r.backends[r.Owner(shard)].pool.Get()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	return cl.ExtractShard(ctx, shard)
}

// InstallShardPacket is refused at the router: an install names a
// destination backend, which the wire frame cannot express. Use the
// router's /admin/migrate, or install on the backend directly.
func (r *Router) InstallShardPacket(shard int, data []byte) error {
	return errors.New("router: install needs a destination backend; use /admin/migrate or the backend directly")
}

// OwnedShards reports all-true: by construction the router serves every
// shard (bootstrap fails otherwise), so a router behind a router routes
// everything here.
func (r *Router) OwnedShards() []bool {
	own := make([]bool, r.shards)
	for i := range own {
		own[i] = true
	}
	return own
}

// TraceEnabled is false at the router: stage timing belongs to the
// backend that decides the query, and its records already include the
// full pipeline. BackfillEncode is the matching no-op.
func (r *Router) TraceEnabled() bool { return false }

// BackfillEncode is a no-op; see TraceEnabled.
func (r *Router) BackfillEncode(rs []wire.Reply, totalNanos int64) {}
