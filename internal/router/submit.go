package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
)

// maxShardAttempts bounds the not-owned retry loop per shard group. At
// the 500µs pause between refresh rounds this is a ~200ms budget —
// enough to ride out an externally-driven migration, short enough that
// a genuinely ownerless shard fails queries instead of wedging them.
const maxShardAttempts = 400

// SubmitBatch routes each query to its shard's owning backend and
// returns positional replies. Items bound for different shards travel
// in parallel; items for a shard in migration blackout park on the hold
// and replay after cutover. Per-backend failures come back tag-scoped
// in Reply.Err — one dead backend costs its own shards' items, never
// the batch or the connection.
func (r *Router) SubmitBatch(ctx context.Context, qs []wire.Query, _ int64) ([]wire.Reply, error) {
	if r.closedNow() {
		return nil, ErrClosed
	}
	if len(qs) == 0 {
		return nil, errors.New("router: empty batch")
	}
	r.queries.Add(int64(len(qs)))
	// Shard each item with the same hash the backends use — shared by
	// construction, not by convention.
	ks := make([]int, len(qs))
	single := true
	for i := range qs {
		ks[i] = server.ShardIndexFor(qs[i].Tenant, qs[i].Template, r.shards)
		if ks[i] != ks[0] {
			single = false
		}
	}
	// Fast path: the whole batch is one shard group (always true for
	// batch=1, the router's hottest shape) — no index map, no fan-out
	// goroutine, no reply reshuffle.
	if single {
		return r.submitShardGroup(ctx, ks[0], qs), nil
	}
	replies := make([]wire.Reply, len(qs))
	groups := make(map[int][]int)
	for i, k := range ks {
		groups[k] = append(groups[k], i)
	}
	var wg sync.WaitGroup
	for k, idxs := range groups {
		wg.Add(1)
		go func(k int, idxs []int) {
			defer wg.Done()
			sub := make([]wire.Query, len(idxs))
			for j, i := range idxs {
				sub[j] = qs[i]
			}
			rs := r.submitShardGroup(ctx, k, sub)
			for j, i := range idxs {
				replies[i] = rs[j]
			}
		}(k, idxs)
	}
	wg.Wait()
	return replies, nil
}

// SubmitBatchAsync satisfies wire.Engine: the router's submit path is
// already concurrent per shard, so async is a goroutine around the
// synchronous fan-out.
func (r *Router) SubmitBatchAsync(ctx context.Context, qs []wire.Query, decodeNanos int64, done func([]wire.Reply)) error {
	if r.closedNow() {
		return ErrClosed
	}
	if len(qs) == 0 {
		return errors.New("router: empty batch")
	}
	// The caller lends qs for this call only; the fan-out outlives it.
	qs = slices.Clone(qs)
	go func() {
		rs, err := r.SubmitBatch(ctx, qs, decodeNanos)
		if err != nil {
			rs = errReplies(len(qs), err)
		}
		done(rs)
	}()
	return nil
}

// submitShardGroup delivers one shard's slice of a batch to whoever
// owns the shard right now. Two retry triggers, with sharply different
// rules:
//
//   - "shard not owned here" (stale map, or a migration we did not
//     drive): nothing was decided — rejection touches no shard state —
//     so the group retries against refreshed ownership, bounded by
//     maxShardAttempts.
//   - connection death mid-submit: the group is NOT retried. The
//     backend may have decided the batch before the connection broke,
//     and economy decisions happen exactly once; the caller sees the
//     error per item and owns any retry.
func (r *Router) submitShardGroup(ctx context.Context, shard int, qs []wire.Query) []wire.Reply {
	var lastErr error
	for attempt := 0; attempt < maxShardAttempts; attempt++ {
		own, err := r.waitHold(ctx, shard)
		if err != nil {
			return errReplies(len(qs), err)
		}
		rs, err := r.submitVia(ctx, r.backends[own], qs)
		if err != nil {
			var te *wire.TaggedError
			if errors.As(err, &te) && strings.Contains(te.Msg, "shard not owned here") {
				lastErr = err
				r.noteStale(ctx, shard, attempt)
				continue
			}
			// Backend down or batch-fatal error. Fail the items
			// tag-scoped — the pool's backoff already bounds how often
			// the dispatcher re-dials, and parking queries behind a dead
			// backend would turn one failure into a pile-up. (A dead
			// connection is NOT retried here: the backend may have
			// decided the batch before the connection broke.)
			return errReplies(len(qs), fmt.Errorf("router: shard %d backend %d: %w", shard, own, err))
		}
		if repliesNotOwned(rs) {
			lastErr = fmt.Errorf("router: backend %d rejected shard %d", own, shard)
			r.noteStale(ctx, shard, attempt)
			continue
		}
		return rs
	}
	return errReplies(len(qs), fmt.Errorf("router: shard %d ownership unresolved after %d attempts: %w", shard, maxShardAttempts, lastErr))
}

// waitHold parks until the shard is out of migration blackout, then
// returns the current owner. The common case — no hold — is one
// mutex acquisition.
func (r *Router) waitHold(ctx context.Context, shard int) (int, error) {
	for {
		r.mu.Lock()
		hold := r.holds[shard]
		own := r.owner[shard]
		r.mu.Unlock()
		if hold == nil {
			return own, nil
		}
		select {
		case <-hold:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-r.stop:
			return 0, ErrClosed
		}
	}
}

// noteStale records a reroute and refreshes ownership for a shard the
// mapped backend just disclaimed. Router-driven migrations never get
// here (the hold covers their window); this is the path for ownership
// moved under us — a second router, or an operator driving the
// backends directly.
func (r *Router) noteStale(ctx context.Context, shard, attempt int) {
	r.reroutes.Add(1)
	if r.refreshOwner(shard) {
		return
	}
	// Nobody owns the shard right now: an extract/install window is
	// open somewhere. Back off briefly and let the retry loop re-ask.
	select {
	case <-time.After(500 * time.Microsecond):
	case <-ctx.Done():
	}
}

// refreshOwner re-learns one shard's owner from the backends' own
// answers. Returns true if exactly one backend claims it.
func (r *Router) refreshOwner(shard int) bool {
	var claimant = -1
	for _, b := range r.backends {
		own, err := r.probeOwners(b)
		if err != nil || shard >= len(own) || !own[shard] {
			continue
		}
		if claimant >= 0 {
			return false // multiple claimants: let the next reject sort it out
		}
		claimant = b.id
	}
	if claimant < 0 {
		return false
	}
	r.mu.Lock()
	if r.holds[shard] == nil {
		r.owner[shard] = claimant
	}
	r.mu.Unlock()
	return true
}

func errReplies(n int, err error) []wire.Reply {
	rs := make([]wire.Reply, n)
	for i := range rs {
		rs[i] = wire.Reply{Err: err.Error()}
	}
	return rs
}

func repliesNotOwned(rs []wire.Reply) bool {
	// A disowned shard rejects the whole drain, so checking any item
	// would do; scan them all in case a mixed batch ever appears.
	for i := range rs {
		if strings.Contains(rs[i].Err, "shard not owned here") {
			return true
		}
	}
	return false
}
