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

// viewTimeout bounds every backend round trip a merged view, a probe or
// a bootstrap freeze makes.
const viewTimeout = 5 * time.Second

// ask runs one request on b's pooled client, bounded by viewTimeout.
// req takes the client first, so a MuxClient method expression such as
// (*wire.MuxClient).Stats is a request.
func ask[T any](b *backend, req func(*wire.MuxClient, context.Context) (T, error)) (T, error) {
	cl, err := b.pool.Get()
	if err != nil {
		var zero T
		return zero, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), viewTimeout)
	defer cancel()
	return req(cl, ctx)
}

// Stats merges the cluster into one server.Stats, attributing each
// shard to the backend that owns it (a disowned replica's frozen
// counters would double-count). Aggregates are recomputed from the
// selected per-shard rows by the single-process engine's own
// server.Stats.Aggregate, response histograms included, so a client
// reading /v1/stats through the router sees the same shape, the same
// conservation properties and the same percentiles.
func (r *Router) Stats() server.Stats {
	owner := r.ownerSnapshot()
	per := make([]server.ShardStats, r.shards)
	byBackend := make([]*server.Stats, len(r.backends))

	agg := server.Stats{Shards: r.shards}
	for _, b := range r.backends {
		st, err := ask(b, (*wire.MuxClient).Stats)
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
	return agg
}

// TraceViewSnapshot concatenates the backends' trace rings. SampleEvery
// is taken from the first backend whose tracer is on (-1 if none).
func (r *Router) TraceViewSnapshot(tenant, template string, n int) server.TraceView {
	view := server.TraceView{SampleEvery: -1, Records: []obs.Record{}} // [], never null, in JSON
	for _, b := range r.backends {
		tv, err := ask(b, func(cl *wire.MuxClient, ctx context.Context) (server.TraceView, error) {
			return cl.Trace(ctx, tenant, template, n)
		})
		if err != nil {
			continue
		}
		if view.SampleEvery < 0 && tv.SampleEvery >= 0 {
			view.SampleEvery = tv.SampleEvery
		}
		view.Records = append(view.Records, tv.Records...)
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
	view := server.EventsView{Events: []obs.Event{}} // [], never null, in JSON
	for _, b := range r.backends {
		ev, err := ask(b, func(cl *wire.MuxClient, ctx context.Context) (server.EventsView, error) {
			return cl.Events(ctx, typ, tenant, n)
		})
		if err != nil {
			continue
		}
		addTotals(&view.Totals, ev.Totals)
		view.Events = append(view.Events, ev.Events...)
	}
	return view
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
	return freeze(r.backends[r.Owner(shard)], shard)
}

// freeze freezes shard on backend b.
func freeze(b *backend, shard int) error {
	_, err := ask(b, func(cl *wire.MuxClient, ctx context.Context) (struct{}, error) {
		return struct{}{}, cl.FreezeShard(ctx, shard)
	})
	return err
}

// ExtractShardPacket relays to the shard's current owner.
func (r *Router) ExtractShardPacket(shard int) ([]byte, error) {
	if shard < 0 || shard >= r.shards {
		return nil, fmt.Errorf("router: shard %d out of range [0,%d)", shard, r.shards)
	}
	return ask(r.backends[r.Owner(shard)], func(cl *wire.MuxClient, ctx context.Context) ([]byte, error) {
		return cl.ExtractShard(ctx, shard)
	})
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
