package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/server"
)

// ErrClientClosed is returned by MuxClient calls after Close, or after
// the connection died underneath the client.
var ErrClientClosed = errors.New("wire: client closed")

// TaggedError is a tag-scoped server failure: the batch or subscription
// it names failed, the connection did not. Submit returns it unwrapped
// in error form; it exists as a type so callers can distinguish "my
// batch was refused" (retryable elsewhere) from a dead connection.
type TaggedError struct {
	Tag uint64
	Msg string
}

func (e *TaggedError) Error() string {
	return fmt.Sprintf("wire: server error (tag %d): %s", e.Tag, e.Msg)
}

// muxCall is one in-flight tagged batch: Submit waits on ch, SubmitAsync
// gave done.
type muxCall struct {
	n    int // queries sent, for the reply-count sanity check
	ch   chan muxResult
	done func([]Reply, error)
}

// muxCallPool recycles calls and their buffered result channels. A call
// returns to the pool once its result was received (or its callback
// started), so a pooled channel is always empty; abandoned calls (ctx
// cancellation, a failed encode) are left to the garbage collector.
var muxCallPool = sync.Pool{New: func() any { return &muxCall{ch: make(chan muxResult, 1)} }}

// deliver completes a call the reader (or teardown) just took out of the
// table, so exactly once; a callback runs here, on the reader goroutine.
func (call *muxCall) deliver(rs []Reply, err error) {
	done := call.done
	if done == nil {
		call.ch <- muxResult{replies: rs, err: err}
		return
	}
	call.done = nil
	muxCallPool.Put(call)
	done(rs, err)
}

func (call *muxCall) fail(err error) { call.deliver(nil, err) }

type muxResult struct {
	replies []Reply
	err     error
}

// waiter is what an open tag waits on — a batch (*muxCall), a
// subscription (*Sub) or an admin call — as teardown and tagged errors
// see it.
type waiter interface{ fail(err error) }

type adminCall chan adminResult

func (a adminCall) fail(err error) { a <- adminResult{err: err} }

// adminResult is one admin request's outcome on the client side: an
// ack (freeze, install), a state packet (extract), an ownership map
// (owners) or a checkpoint receipt, depending on which frame the tag was
// opened for.
type adminResult struct {
	shard  int
	packet []byte
	owned  []bool
	path   string
	size   int64
	err    error
}

// Sub is one client-side subscription to a server-pushed view. Values
// arrive on C as the server pushes them; the channel is closed when the
// subscription ends (Close, a tag-scoped server error, or connection
// teardown). A slow consumer drops pushes rather than stalling the
// connection's reader — stats are snapshots, not deltas, so the next
// push still reconciles.
type Sub[T any] struct {
	C <-chan T
	c chan T

	cl  *MuxClient
	tag uint64
	// push is the frame type this subscription receives; unsub the frame
	// type Close sends.
	push, unsub byte

	mu     sync.Mutex
	closed bool
	err    error
}

// StatsSub streams engine snapshots (SubscribeStats).
type StatsSub = Sub[server.Stats]

// subscription is what the reader needs of a Sub of any view type.
type subscription interface {
	waiter
	deliver(payload []byte) error
}

// Err reports why the subscription ended, once C is closed; nil means a
// clean Close.
func (s *Sub[T]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close unsubscribes: the server stops pushing and C is closed. Safe to
// call more than once.
func (s *Sub[T]) Close() error {
	if s.finish(nil) {
		s.cl.unsubscribe(s.tag, s.unsub)
	}
	return nil
}

func (s *Sub[T]) fail(cause error) { s.finish(cause) }

// finish closes C exactly once, recording the cause; reports whether
// this call was the one that closed it.
func (s *Sub[T]) finish(cause error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	s.err = cause
	close(s.c)
	return true
}

// deliver decodes one push frame and hands it to the consumer without
// racing finish: the mutex serializes the send against the close, and a
// slow consumer drops the push rather than stalling the reader. An
// undecodable push is a protocol violation and comes back as an error.
func (s *Sub[T]) deliver(payload []byte) error {
	var view T
	if _, err := decodeJSONPush(payload, s.push, &view); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	select {
	case s.c <- view:
	default:
	}
	return nil
}

// MuxClient is the protocol's client: one connection,
// any number of goroutines, any number of outstanding batches. Each
// Submit rides a tagged frame; a reader goroutine demultiplexes replies
// back to their callers as the server completes them — out of order
// when the server's shard groups finish out of order. Every frame queues
// for the connection's writer goroutine (writer.go), which coalesces
// concurrent submitters' frames into shared flushes: writing a lone
// call's frame on its caller instead gained the routed path nothing and
// cost a pipelining router's backend hop 4 % (EXPERIMENTS.md). Callbacks
// run on the reader goroutine; a router's writes its client's reply,
// which may touch that client's socket but never blocks on it. The zero
// value is not usable; DialMux or NewMuxClient.
type MuxClient struct {
	conn net.Conn
	w    writer

	mu      sync.Mutex // guards the open tags and their waiters
	tags    map[uint64]waiter
	nextTag uint64
	err     error // sticky: why the connection died
	done    chan struct{}

	// names interns the strings the read loop decodes out of replies, and
	// replies is its decode scratch, which SubmitAsync callbacks borrow.
	names   interner
	replies []Reply
}

// helloTimeout bounds the connect and the hello exchange, so a peer that
// accepts but never answers fails the dial instead of hanging it.
const helloTimeout = 5 * time.Second

// DialMux connects to a binary-protocol listener and performs the hello
// exchange.
func DialMux(addr string) (*MuxClient, error) {
	conn, err := net.DialTimeout("tcp", addr, helloTimeout)
	if err != nil {
		return nil, err
	}
	cl, err := NewMuxClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return cl, nil
}

// NewMuxClient performs the hello exchange on an established connection
// and starts the reader and writer goroutines. On error the connection
// is left to the caller to close.
func NewMuxClient(conn net.Conn) (*MuxClient, error) {
	c := &MuxClient{
		conn: conn,
		tags: make(map[uint64]waiter),
		done: make(chan struct{}),
	}
	c.w.init(conn)

	// The hello exchange is the one lockstep moment: write ours, read
	// theirs, before any concurrency exists.
	conn.SetDeadline(time.Now().Add(helloTimeout))
	if err := c.w.writeLocked(true, AppendHello(nil, ProtocolV2)); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	payload, err := ReadFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("wire: reading hello reply: %w", err)
	}
	if payload[0] == msgError {
		msg, err := DecodeError(payload)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("wire: server rejected hello: %s", msg)
	}
	version, err := DecodeHello(payload)
	if err != nil {
		return nil, err
	}
	if version < ProtocolV2 {
		return nil, fmt.Errorf("wire: server protocol version %d < %d", version, ProtocolV2)
	}
	conn.SetDeadline(time.Time{})

	go c.w.loop()
	go c.readLoop(br)
	return c, nil
}

// Close tears the connection down; in-flight Submits return
// ErrClientClosed and subscription channels close.
func (c *MuxClient) Close() error {
	err := c.conn.Close()
	<-c.done // reader observed the close and failed everything in flight
	return err
}

// readLoop demultiplexes inbound frames to their tags until the
// connection dies, then fails every outstanding call and subscription.
func (c *MuxClient) readLoop(br *bufio.Reader) {
	var rbuf []byte
	var fatal error
	for fatal == nil {
		payload, err := ReadFrame(br, rbuf)
		if err != nil {
			fatal = err
			break
		}
		rbuf = payload[:0]
		fatal = c.handleFrame(payload)
	}

	// Fail everything in flight, exactly once, then stop the writer.
	c.mu.Lock()
	if c.err == nil {
		c.err = fatal
	}
	tags := c.tags
	c.tags = make(map[uint64]waiter)
	c.mu.Unlock()
	closed := fmt.Errorf("%w: %v", ErrClientClosed, fatal)
	for _, w := range tags {
		w.fail(closed)
	}
	c.w.stop()
	close(c.done)
}

// handleFrame routes one inbound frame (never empty: ReadFrame rejects
// those) to whoever opened its tag. Replies to abandoned tags (ctx
// cancellation, a closed subscription) are dropped; a returned error is
// fatal to the connection.
func (c *MuxClient) handleFrame(payload []byte) error {
	switch payload[0] {
	case msgTaggedReplyBatch:
		// Decoded into the reader's scratch, which a SubmitAsync callback
		// borrows until it returns; a Submit caller gets its own copy.
		// The template and location names — a small closed set — are
		// shared through the reader's interner.
		tag, replies, err := readTaggedReplyBatch(payload, c.replies, &c.names)
		if err != nil {
			return err
		}
		c.replies = replies
		call, ok := take[*muxCall](c, tag)
		if !ok {
			return nil
		}
		if len(replies) != call.n {
			call.deliver(nil, fmt.Errorf("wire: %d replies for %d queries (tag %d)", len(replies), call.n, tag))
			return nil
		}
		if call.done == nil {
			replies = slices.Clone(replies)
		}
		call.deliver(replies, nil)

	case msgTaggedError:
		tag, msg, err := DecodeTaggedError(payload)
		if err != nil {
			return err
		}
		if w, ok := take[waiter](c, tag); ok {
			w.fail(&TaggedError{Tag: tag, Msg: msg})
		}

	case msgStatsPush, msgTracePush, msgEventsPush:
		r := binenc.NewReader(payload)
		tag := readTag(&r, payload[0])
		if err := r.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		sub, ok := c.tags[tag].(subscription)
		c.mu.Unlock()
		if ok {
			return sub.deliver(payload)
		}

	case msgShardAck:
		tag, shard, err := DecodeShardAck(payload)
		if err != nil {
			return err
		}
		c.completeAdmin(tag, adminResult{shard: shard})

	case msgShardState:
		// DecodeShardState copies the packet out of the read buffer, so
		// the caller owns it outright.
		tag, shard, packet, err := DecodeShardState(payload)
		if err != nil {
			return err
		}
		c.completeAdmin(tag, adminResult{shard: shard, packet: packet})

	case msgOwnersReply:
		tag, owned, err := DecodeOwnersReply(payload)
		if err != nil {
			return err
		}
		c.completeAdmin(tag, adminResult{owned: owned})

	case msgCheckpointReply:
		tag, path, size, err := DecodeCheckpointReply(payload)
		if err != nil {
			return err
		}
		c.completeAdmin(tag, adminResult{path: path, size: size})

	case msgError:
		msg, err := DecodeError(payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("wire: server error: %s", msg)

	default:
		return fmt.Errorf("wire: unexpected message type %d", payload[0])
	}
	return nil
}

// completeAdmin hands an admin reply to the call waiting on its tag.
func (c *MuxClient) completeAdmin(tag uint64, res adminResult) {
	if a, ok := take[adminCall](c, tag); ok {
		a <- res
	}
}

// take removes tag's waiter if it is a W; a frame of the wrong kind for
// its tag leaves it in place.
func take[W waiter](c *MuxClient, tag uint64) (W, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.tags[tag].(W)
	if ok {
		delete(c.tags, tag)
	}
	return w, ok
}

// register opens a fresh tag for w, failing fast on a dead connection.
func (c *MuxClient) register(w waiter) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, fmt.Errorf("%w: %v", ErrClientClosed, c.err)
	}
	c.nextTag++
	c.tags[c.nextTag] = w
	return c.nextTag, nil
}

// Submit sends one tagged query batch and waits for its replies. Safe
// for concurrent use: any number of goroutines may have batches in
// flight on the one connection, and each gets its own freshly allocated
// reply slice, sized to the batch. Per-item failures ride Reply.Err; a
// batch-scoped failure (a draining server, a decode error) returns a
// *TaggedError with the connection still healthy.
func (c *MuxClient) Submit(ctx context.Context, qs []Query) ([]Reply, error) {
	call := muxCallPool.Get().(*muxCall)
	tag, err := c.start(call, qs)
	if err != nil {
		return nil, err
	}
	select {
	case res := <-call.ch:
		muxCallPool.Put(call)
		return res.replies, res.err
	case <-ctx.Done():
		// Abandon the tag; the reader drops the late reply on the floor.
		take[*muxCall](c, tag)
		return nil, ctx.Err()
	}
}

// SubmitAsync sends one tagged query batch without waiting: done fires
// exactly once with what Submit would return, on the connection's reader
// goroutine, so it must not block. The replies are lent, not given: they
// live in the reader's decode scratch and are valid only until done
// returns, so done copies what it keeps. qs is encoded before SubmitAsync
// returns. An error means nothing was sent and done never fires.
func (c *MuxClient) SubmitAsync(qs []Query, done func([]Reply, error)) error {
	call := muxCallPool.Get().(*muxCall)
	call.done = done
	if _, err := c.start(call, qs); err != nil {
		call.done = nil
		return err
	}
	return nil
}

// start registers call under a fresh tag and queues its frame. An error
// means the call will never complete; a failed encode whose tag teardown
// claimed first reports success, as teardown completes the call.
func (c *MuxClient) start(call *muxCall, qs []Query) (uint64, error) {
	call.n = len(qs)
	tag, err := c.register(call)
	if err != nil {
		return 0, err
	}
	payload, err := AppendTaggedQueryBatch(slices.Grow(c.w.free.get(), sizeTaggedQueryBatch(qs)), tag, qs)
	if err != nil {
		if _, ok := take[*muxCall](c, tag); ok {
			return 0, err
		}
		return tag, nil
	}
	c.w.send(payload, false)
	return tag, nil
}

// subscribe opens a tag for a server-pushed view of type T, sends the
// frame build makes for it, and returns the subscription the reader will
// deliver pushes of type push to. buf is C's capacity.
func subscribe[T any](c *MuxClient, buf int, push, unsub byte, build func(tag uint64) []byte) (*Sub[T], error) {
	ch := make(chan T, buf)
	sub := &Sub[T]{C: ch, c: ch, cl: c, push: push, unsub: unsub}
	tag, err := c.register(sub)
	if err != nil {
		return nil, err
	}
	sub.tag = tag // the reader never reads it; Close and fetch do
	c.w.send(build(tag), false)
	return sub, nil
}

// fetch is the one-shot form: a request the server answers with exactly
// one push (and keeps no ticker for).
func fetch[T any](ctx context.Context, c *MuxClient, push byte, build func(tag uint64) []byte) (T, error) {
	var zero T
	sub, err := subscribe[T](c, 1, push, 0, build)
	if err != nil {
		return zero, err
	}
	defer c.dropSub(sub.tag)
	select {
	case view, ok := <-sub.C:
		if !ok {
			return zero, sub.Err()
		}
		return view, nil
	case <-c.done:
		return zero, ErrClientClosed
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// dropSub forgets a subscription tag; reports whether the connection is
// still alive to be told about it.
func (c *MuxClient) dropSub(tag uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tags, tag)
	return c.err == nil
}

// unsubscribe tells the server a subscription tag is done — unless the
// connection is already dead and there is no one to tell.
func (c *MuxClient) unsubscribe(tag uint64, typ byte) {
	if c.dropSub(tag) {
		c.w.send(appendTag(nil, typ, tag), false)
	}
}

// SubscribeStats opens a server-pushed stats stream: one snapshot
// immediately, then one every interval (floored by the server at its
// minimum cadence). The pushes arrive on the returned sub's C. Close
// the sub to stop the stream.
func (c *MuxClient) SubscribeStats(interval float64) (*StatsSub, error) {
	return subscribe[server.Stats](c, 4, msgStatsPush, msgStatsUnsubscribe, func(tag uint64) []byte {
		return AppendStatsSubscribe(nil, tag, interval)
	})
}

// Stats fetches one live engine snapshot — the binary front's answer to
// GET /v1/stats, merged per-tenant ledgers included — as a one-shot
// subscription (interval 0).
func (c *MuxClient) Stats(ctx context.Context) (server.Stats, error) {
	return fetch[server.Stats](ctx, c, msgStatsPush, func(tag uint64) []byte {
		return AppendStatsSubscribe(nil, tag, 0)
	})
}

// Trace fetches the server's sampled decision traces over the query
// connection — the binary twin of GET /v1/trace. tenant and template
// filter ("" matches everything); n <= 0 applies the server's default
// bound.
func (c *MuxClient) Trace(ctx context.Context, tenant, template string, n int) (server.TraceView, error) {
	return fetch[server.TraceView](ctx, c, msgTracePush, func(tag uint64) []byte {
		return AppendTraceRequest(nil, tag, tenant, template, uint64(max(n, 0)))
	})
}

// Events fetches one economy-events snapshot — the binary twin of GET
// /v1/events. typ and tenant filter ("" matches everything); n <= 0
// applies the server's default bound.
func (c *MuxClient) Events(ctx context.Context, typ, tenant string, n int) (server.EventsView, error) {
	return fetch[server.EventsView](ctx, c, msgEventsPush, func(tag uint64) []byte {
		return AppendEventsRequest(nil, tag, typ, tenant, uint64(max(n, 0)))
	})
}

// Done is closed when the connection has died and every in-flight call
// has been failed; pools poll it to decide whether a cached client is
// still usable.
func (c *MuxClient) Done() <-chan struct{} { return c.done }

// adminCall opens a tag, sends the frame built by build, and waits for
// the admin reply. A tag-scoped refusal comes back as *TaggedError; a
// dead connection as ErrClientClosed.
func (c *MuxClient) adminCall(ctx context.Context, build func(tag uint64) []byte) (adminResult, error) {
	ch := make(adminCall, 1)
	tag, err := c.register(ch)
	if err != nil {
		return adminResult{}, err
	}
	c.w.send(build(tag), false)
	select {
	case res := <-ch:
		return res, res.err
	case <-ctx.Done():
		take[adminCall](c, tag)
		return adminResult{}, ctx.Err()
	}
}

// FreezeShard tells the engine to stop deciding a shard's traffic: it
// answers "shard not owned here" from then on. Idempotent; the router's
// bootstrap move for slots another backend owns.
func (c *MuxClient) FreezeShard(ctx context.Context, shard int) error {
	_, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendShardFreeze(nil, tag, shard)
	})
	return err
}

// ExtractShard freezes a shard and moves its state out as an opaque
// persist-encoded packet — step one of a live migration. The source
// keeps an empty, disowned slot.
func (c *MuxClient) ExtractShard(ctx context.Context, shard int) ([]byte, error) {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendShardExtract(nil, tag, shard)
	})
	if err != nil {
		return nil, err
	}
	if res.shard != shard || len(res.packet) == 0 {
		return nil, fmt.Errorf("wire: extract of shard %d answered shard %d (%d packet bytes)", shard, res.shard, len(res.packet))
	}
	return res.packet, nil
}

// InstallShard adopts an extracted packet into the named slot — step
// two of a live migration. The slot must be frozen and unused; the
// engine validates the packet's fingerprint before touching anything.
func (c *MuxClient) InstallShard(ctx context.Context, shard int, packet []byte) error {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendShardInstall(nil, tag, shard, packet)
	})
	if err != nil {
		return err
	}
	if res.shard != shard {
		return fmt.Errorf("wire: install of shard %d acked shard %d", shard, res.shard)
	}
	return nil
}

// Owners fetches the engine's shard-ownership map: one bool per slot,
// true where it decides traffic. A router bootstraps and audits its
// routing table with this.
func (c *MuxClient) Owners(ctx context.Context) ([]bool, error) {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendOwnersRequest(nil, tag)
	})
	if err != nil {
		return nil, err
	}
	return res.owned, nil
}

// Checkpoint asks the engine to persist its economy state to its
// configured state path right now, and returns where the snapshot
// landed and its encoded size. An engine running without a state path —
// or a router, whose checkpoints are per-backend — refuses with a
// *TaggedError; the connection keeps serving.
func (c *MuxClient) Checkpoint(ctx context.Context) (path string, size int64, err error) {
	res, err := c.adminCall(ctx, func(tag uint64) []byte {
		return AppendCheckpointRequest(nil, tag)
	})
	return res.path, res.size, err
}
