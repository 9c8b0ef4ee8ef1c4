package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
)

const (
	// maxShardAttempts bounds the not-owned replay rounds of one client
	// frame: with the 500µs pause between refreshes, a ~200ms budget to
	// ride out a migration driven elsewhere before failing the items.
	maxShardAttempts = 400
	notOwned         = "shard not owned here"
)

// SubmitBatch is SubmitBatchAsync plus a wait, so a routed batch travels
// one path whether or not the caller blocks; the replies are the caller's.
func (r *Router) SubmitBatch(ctx context.Context, qs []wire.Query, decodeNanos int64) ([]wire.Reply, error) {
	return server.AwaitBatch(ctx, func(done func([]wire.Reply)) error { return r.SubmitBatchAsync(ctx, qs, decodeNanos, done) })
}

// SubmitBatchAsync routes each query to its shard's owning backend: one
// frame per backend touched, whose reply lands on that connection's
// reader goroutine; the last to land calls done with the positional
// replies. They are lent: the frame holding them is recycled once done
// returns. A failed backend costs its own items tag-scoped errors, never
// the batch or the connection.
func (r *Router) SubmitBatchAsync(ctx context.Context, qs []wire.Query, _ int64, done func([]wire.Reply)) error {
	if r.closedNow() {
		return ErrClosed
	}
	if len(qs) == 0 {
		return errors.New("router: empty batch")
	}
	r.queries.Add(int64(len(qs)))
	f := r.frames.Get().(*frame)
	f.ctx, f.done = ctx, done
	f.qs = append(f.qs[:0], qs...)
	f.replies = server.Resize(f.replies, len(qs))
	r.carve(f, nil)
	return nil
}

// frame is one client batch in the router: its own copy of the queries
// (the caller's is borrowed for the call), the positional replies and the
// carve's buffers. Frames are pooled per router and recycled once done
// has returned.
type frame struct {
	r       *Router
	ctx     context.Context
	done    func([]wire.Reply)
	qs      []wire.Query
	replies []wire.Reply
	parts   []part       // parts[b] is bound for backend b
	ints    []int        // the carve's scratch: item backends, positions by backend
	pending atomic.Int32 // parts of the current round still in flight

	// The slow path: held items wait out a migration hold, stale ones
	// (guarded by mu) were answered "not owned"; replay waits on wake.
	held  []int
	mu    sync.Mutex
	stale []int
	wake  chan struct{}
}

// part is one frame's items bound for one backend, by position, sent on
// cl as one backend frame. complete is p.arrive, bound once per part so
// a send allocates no closure.
type part struct {
	f        *frame
	b        *backend
	pos      []int
	cl       *wire.MuxClient
	complete func([]wire.Reply, error)
}

// newFrame is the frame pool's constructor: one part per backend.
func (r *Router) newFrame() any {
	f := &frame{r: r, parts: make([]part, len(r.backends))}
	for b := range f.parts {
		p := &f.parts[b]
		p.f, p.b = f, r.backends[b]
		p.complete = p.arrive
	}
	return f
}

func (r *Router) shardOf(q *wire.Query) int {
	return server.ShardIndexFor(q.Tenant, q.Template, r.shards)
}

// carve sends the items at positions pos (all when nil) as one part per
// owning backend, read under one r.mu hold; held shards' items join
// f.held. The shard hash is the backends' own, by construction.
func (r *Router) carve(f *frame, pos []int) {
	n, nb := len(f.qs), len(r.backends)
	if pos != nil {
		n = len(pos)
	}
	at := func(i int) int {
		if pos == nil {
			return i
		}
		return pos[i]
	}
	// dest[i] is item i's backend (nb: held); slot groups by backend.
	f.ints = server.Resize(f.ints, 2*n)
	dest, slot := f.ints[:n], f.ints[n:n]
	r.mu.Lock()
	for i := range dest {
		k := r.shardOf(&f.qs[at(i)])
		if dest[i] = r.owner[k]; r.holds[k] != nil {
			dest[i] = nb
		}
	}
	r.mu.Unlock()
	sends := 0
	for b := range nb + 1 {
		from := len(slot)
		for i, d := range dest {
			if d == b {
				slot = append(slot, at(i))
			}
		}
		if b == nb {
			f.held = append(f.held, slot[from:]...)
		} else if f.parts[b].pos = slot[from:len(slot):len(slot)]; len(slot) > from {
			sends++
		}
	}
	if sends == 0 {
		f.roundDone()
		return
	}
	f.pending.Store(int32(sends))
	// The last part to land may finish the frame and recycle it into
	// another batch, so f is not read again once every part is sent.
	for b := 0; sends > 0; b++ {
		if p := &f.parts[b]; len(p.pos) > 0 {
			sends--
			p.b.send(p, false)
		}
	}
}

// land files one part's replies, or its failure, into the frame. The
// replies are the connection's lent slice, so they are copied here.
func (f *frame) land(p *part, rs []wire.Reply, err error) {
	var stale []int
	for j, i := range p.pos {
		switch {
		case err != nil: // never retried: the backend may have decided it
			f.replies[i] = wire.Reply{Err: fmt.Sprintf("router: shard %d backend %d: %v", f.r.shardOf(&f.qs[i]), p.b.id, err)}
		case strings.Contains(rs[j].Err, notOwned): // decided nothing
			stale = append(stale, i)
		default:
			f.replies[i] = rs[j]
		}
	}
	if stale != nil {
		f.mu.Lock()
		f.stale = append(f.stale, stale...)
		f.mu.Unlock()
	}
	if f.pending.Add(-1) == 0 {
		f.roundDone()
	}
}

// roundDone runs when a round's last part lands: the frame completes,
// or the replay goroutine (started now, or waiting) takes over.
func (f *frame) roundDone() {
	switch {
	case f.wake != nil:
		f.wake <- struct{}{}
	case len(f.held) == 0 && len(f.stale) == 0:
		f.finish()
	default:
		f.wake = make(chan struct{}, 1)
		go f.r.replay(f)
	}
}

// finish answers the frame and recycles it: once done has returned,
// nothing reads the replies any more.
func (f *frame) finish() {
	f.done(f.replies)
	clear(f.qs) // the pool must not pin the strings and budgets
	f.ctx, f.done, f.wake = nil, nil, nil
	f.r.frames.Put(f)
}

// replay is the slow path, one goroutine per frame that needs it: each
// round refreshes every stale shard's owner, parks on every hold and
// carves the items again; stale items fail after maxShardAttempts.
func (r *Router) replay(f *frame) {
	for attempt := 1; ; attempt++ {
		f.mu.Lock()
		held, stale := f.held, f.stale
		f.held, f.stale = nil, nil
		f.mu.Unlock()
		if attempt > maxShardAttempts {
			for _, i := range stale {
				f.replies[i] = wire.Reply{Err: fmt.Sprintf("router: shard %d ownership unresolved after %d attempts", r.shardOf(&f.qs[i]), maxShardAttempts)}
			}
			stale = nil
		}
		pos := slices.Concat(held, stale)
		if len(pos) == 0 {
			break
		}
		slices.Sort(pos) // a shard's items replay in batch order
		refreshed := make(map[int]bool)
		for _, i := range stale {
			if k := r.shardOf(&f.qs[i]); !refreshed[k] {
				refreshed[k] = true
				r.noteStale(f.ctx, k)
			}
		}
		var err error
		for _, i := range pos {
			if err = r.waitHold(f.ctx, r.shardOf(&f.qs[i])); err != nil {
				break
			}
		}
		if err != nil {
			for _, i := range pos {
				f.replies[i] = wire.Reply{Err: err.Error()}
			}
			break
		}
		r.carve(f, pos)
		<-f.wake
	}
	f.finish()
}

// waitHold parks until the shard is out of migration blackout. The
// common case — no hold — is one mutex acquisition.
func (r *Router) waitHold(ctx context.Context, shard int) error {
	for {
		r.mu.Lock()
		hold := r.holds[shard]
		r.mu.Unlock()
		if hold == nil {
			return nil
		}
		select {
		case <-hold:
		case <-ctx.Done():
			return ctx.Err()
		case <-r.stop:
			return ErrClosed
		}
	}
}

// noteStale records a reroute and refreshes ownership for a shard the
// mapped backend just disclaimed: ownership moved under us (a second
// router, an operator driving the backends directly), or a frame was
// already on its way to the source when a migration's hold went up.
func (r *Router) noteStale(ctx context.Context, shard int) {
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

// gather recycles the buffers a backend frame's queries are gathered
// into; SubmitAsync encodes them before it returns.
var gather = sync.Pool{New: func() any { return new([]wire.Query) }}

// send puts p on the wire as one frame; a part that cannot be sent fails
// its items on the spot. Only a send with dial set may dial: the others
// run on connection reader goroutines, which a connect or a hello must
// never stall, and leave a backend with no live connection to a
// goroutine of its own.
func (b *backend) send(p *part, dial bool) {
	cl := b.pool.Live()
	if cl == nil && !dial {
		go b.send(p, true)
		return
	}
	var err error
	if cl == nil {
		cl, err = b.pool.Get()
	}
	if err == nil {
		buf := gather.Get().(*[]wire.Query)
		qs := (*buf)[:0]
		for _, i := range p.pos {
			qs = append(qs, p.f.qs[i])
		}
		p.cl = cl
		err = cl.SubmitAsync(qs, p.complete)
		clear(qs) // the pool must not pin the strings and budgets
		*buf = qs
		gather.Put(buf)
		b.markDead(cl, err)
	}
	if err != nil {
		p.f.land(p, nil, err)
	}
}

func (b *backend) markDead(cl *wire.MuxClient, err error) {
	if errors.Is(err, wire.ErrClientClosed) {
		b.pool.MarkDead(cl)
	}
}

// arrive runs on the backend connection's reader goroutine.
func (p *part) arrive(rs []wire.Reply, err error) {
	p.b.markDead(p.cl, err)
	p.f.land(p, rs, err)
}
