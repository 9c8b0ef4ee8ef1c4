package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/persist"
	"repro/internal/server"
)

// Engine is what the protocol loops serve: the decision engine behind
// one listener. The in-process server is the canonical implementation
// (via ServerEngine); the cluster router implements the same surface by
// fanning batches out to backend engines over their own connections —
// which is why the submit methods traffic in wire Queries, not
// materialized server Requests: a router must be able to forward the
// items it decoded without re-deriving their budget closures.
//
// decodeNanos is the wall time the caller spent decoding the batch's
// frame, forwarded so per-query stage traces include it; engines without
// tracing ignore it. A nil done callback is never passed. qs is borrowed
// for the call: the protocol loop hands over its decode scratch and
// reuses it for the next frame, so an engine that needs the queries
// after a submit method returns copies them first.
type Engine interface {
	// SubmitBatch decides a batch and returns positional replies, the
	// caller's to keep. Per-item failures ride Reply.Err; a returned error
	// fails the whole batch. The protocol loop itself only ever submits
	// asynchronously; this is the form in-process callers (HTTP handlers,
	// replays) use.
	SubmitBatch(ctx context.Context, qs []Query, decodeNanos int64) ([]Reply, error)
	// SubmitBatchAsync hands a batch to the engine and returns without
	// waiting; done fires exactly once with the positional replies —
	// possibly before the call returns, on the caller's goroutine, when
	// the engine could answer on the spot. The replies are lent: valid
	// only until done returns, so done encodes or copies them. An error
	// means done will never fire.
	SubmitBatchAsync(ctx context.Context, qs []Query, decodeNanos int64, done func([]Reply)) error

	Stats() server.Stats
	TraceViewSnapshot(tenant, template string, n int) server.TraceView
	EventsViewSnapshot(typ, tenant string, n int) server.EventsView
	EventsViewSince(since int64) (server.EventsView, int64)

	// Checkpoint persists the engine's durable state now (the checkpoint
	// admin frame); engines without a state path answer an error.
	Checkpoint() (path string, size int64, err error)

	// Shard migration admin. Packets travel as opaque persist-encoded
	// bytes so a router can relay them without decoding; install verifies
	// the packet names the slot the caller thinks it is filling before
	// touching anything.
	FreezeShard(shard int) error
	ExtractShardPacket(shard int) ([]byte, error)
	InstallShardPacket(shard int, data []byte) error
	OwnedShards() []bool

	// TraceEnabled gates the protocol loops' stage timing; BackfillEncode
	// files the encode stage (totalNanos across the batch) into whatever
	// trace records the replies reference. No-ops without tracing.
	TraceEnabled() bool
	BackfillEncode(rs []Reply, totalNanos int64)
}

// ServerEngine adapts the in-process server to the Engine surface the
// protocol loops serve. Materializing wire queries into engine requests
// (budget closures included) happens here, so every front — direct or
// routed — shares one conversion with identical error wording.
func ServerEngine(srv *server.Server) Engine {
	e := &serverEngine{srv: srv}
	e.calls.New = func() any {
		c := &engineCall{e: e}
		c.finish = c.complete
		return c
	}
	return e
}

type serverEngine struct {
	srv   *server.Server
	calls sync.Pool // *engineCall
}

// requests materializes wire queries into dst (one request per query),
// spreading the caller's decode time across them for the stage trace.
func requests(dst []server.Request, qs []Query, decodeNanos int64) error {
	share := max(decodeNanos, 0) / int64(max(len(qs), 1))
	for i := range qs {
		req, err := qs[i].Request()
		if err != nil {
			return fmt.Errorf("batch[%d]: %w", i, err)
		}
		req.DecodeNanos = share
		dst[i] = req
	}
	return nil
}

// engineCall holds one SubmitBatchAsync's buffers: the engine requests,
// which the server copies before deciding any, and the wire replies done
// borrows. Calls are pooled and return to the pool once done has
// returned, or once the submit failed and done never will fire.
type engineCall struct {
	e       *serverEngine
	reqs    []server.Request
	replies []Reply
	done    func([]Reply)
	finish  func([]server.BatchItem) // complete, bound once per call
}

func (c *engineCall) complete(items []server.BatchItem) {
	c.replies = server.Resize(c.replies, len(items))
	for i := range items {
		if items[i].Err != nil {
			c.replies[i] = Reply{Err: items[i].Err.Error()}
		} else {
			c.replies[i] = Reply{Resp: items[i].Resp}
		}
	}
	c.done(c.replies)
	c.recycle()
}

func (c *engineCall) recycle() {
	clear(c.reqs) // the pool must not pin the strings and budgets
	c.done = nil
	c.e.calls.Put(c)
}

// SubmitBatch is SubmitBatchAsync plus a wait; the replies are the caller's.
func (e *serverEngine) SubmitBatch(ctx context.Context, qs []Query, decodeNanos int64) ([]Reply, error) {
	return server.AwaitBatch(ctx, func(done func([]Reply)) error { return e.SubmitBatchAsync(ctx, qs, decodeNanos, done) })
}

func (e *serverEngine) SubmitBatchAsync(ctx context.Context, qs []Query, decodeNanos int64, done func([]Reply)) error {
	c := e.calls.Get().(*engineCall)
	c.reqs = server.Resize(c.reqs, len(qs))
	err := requests(c.reqs, qs, decodeNanos)
	if err == nil {
		c.done = done
		err = e.srv.SubmitBatchAsync(ctx, c.reqs, c.finish)
	}
	if err != nil {
		c.recycle()
	}
	return err
}

func (e *serverEngine) Stats() server.Stats { return e.srv.Stats() }

func (e *serverEngine) TraceViewSnapshot(tenant, template string, n int) server.TraceView {
	return e.srv.TraceViewSnapshot(tenant, template, n)
}

func (e *serverEngine) EventsViewSnapshot(typ, tenant string, n int) server.EventsView {
	return e.srv.EventsViewSnapshot(typ, tenant, n)
}

func (e *serverEngine) EventsViewSince(since int64) (server.EventsView, int64) {
	return e.srv.EventsViewSince(since)
}

func (e *serverEngine) Checkpoint() (string, int64, error) { return e.srv.Checkpoint() }

func (e *serverEngine) FreezeShard(shard int) error { return e.srv.FreezeShard(shard) }

// maxShardPacketBytes bounds an extracted packet so both frames that
// carry it — the msgShardState reply and the msgShardInstall request
// that follows — stay under MaxFrame. The margin covers the frame's
// type byte and two uvarints (tag, shard).
const maxShardPacketBytes = MaxFrame - (1 + 2*binary.MaxVarintLen64)

func (e *serverEngine) ExtractShardPacket(shard int) ([]byte, error) {
	// The size check runs as ExtractShardChecked's commit gate: a packet
	// too large for one frame aborts the extract with the shard's state
	// and ownership untouched, instead of destroying an economy whose
	// reply frame could never be written.
	var data []byte
	_, err := e.srv.ExtractShardChecked(shard, func(pkt *persist.ShardPacket) error {
		data = persist.EncodeShardPacket(pkt)
		if len(data) > maxShardPacketBytes {
			return fmt.Errorf("wire: shard %d packet is %d bytes, over the %d-byte frame bound; shard left in place", shard, len(data), maxShardPacketBytes)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

func (e *serverEngine) InstallShardPacket(shard int, data []byte) error {
	pkt, err := persist.DecodeShardPacket(data)
	if err != nil {
		return err
	}
	if pkt.State.Index != shard {
		return fmt.Errorf("wire: packet is for shard %d, install names shard %d", pkt.State.Index, shard)
	}
	return e.srv.InstallShard(shard, pkt)
}

func (e *serverEngine) OwnedShards() []bool { return e.srv.OwnedShards() }

func (e *serverEngine) TraceEnabled() bool {
	tr := e.srv.Tracer()
	return tr != nil && tr.Enabled()
}

func (e *serverEngine) BackfillEncode(rs []Reply, totalNanos int64) {
	tr := e.srv.Tracer()
	if tr == nil || len(rs) == 0 {
		return
	}
	share := totalNanos / int64(len(rs))
	for i := range rs {
		if rs[i].Err == "" && rs[i].Resp.TraceSeq != 0 {
			tr.SetEncode(rs[i].Resp.Shard, rs[i].Resp.TraceSeq, share)
		}
	}
}
