package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/binenc"
	"repro/internal/server"
)

// maxSubs bounds the concurrent streaming subscriptions (stats and
// events together) one connection may hold open: each costs a goroutine,
// and a hostile client must not be able to mint unbounded ones.
const maxSubs = 16

// minSubInterval floors a subscription's push cadence so a hostile 1 ns
// interval cannot turn the push path into a busy loop.
const minSubInterval = time.Millisecond

// muxConn is one server connection: a read loop that dispatches tagged
// frames without waiting for prior batches, the connection's writer
// (writer.go), which other goroutines complete frames into (batch
// completions arrive on shard goroutines, stats pushes on subscription
// goroutines), and the bookkeeping tying them together. The reader is its
// own writer of first resort: a reply completed while the reader is still
// inside the submit call that produced it — idle shards decided the
// batch on the reader's goroutine — is written by the reader and flushed
// when it has nothing further to read, so a batch on idle shards is read,
// decided and answered without waking anyone. A reply completed later
// (on a shard loop, a router's backend reader) and alone in flight goes
// to the socket from there, never blocking: a stalled client stalls no
// economy.
type muxConn struct {
	eng Engine
	br  *bufio.Reader
	w   writer

	// mu guards submitting, parked, active and subs.
	mu sync.Mutex
	// submitting is the sequence number of the SubmitBatchAsync call the
	// reader is inside (0 outside one); a completion that finds its own
	// number there leaves its reply frame in parked for the reader
	// instead of sending it. seq, the reader's own, numbers the calls.
	submitting uint64
	parked     []byte
	seq        uint64
	active     int // batches in flight: is a completion's frame alone?
	// unflushed, also the reader's own, counts the reply bytes the reader
	// wrote into the writer's buffer that still wait for its flush.
	unflushed int

	// inflight counts batches handed to SubmitBatchAsync whose
	// completions have not yet handed over their reply frame; connection
	// teardown waits for it so no completion touches a stopped writer.
	inflight sync.WaitGroup

	// subs maps subscription tags to their stop channels.
	subs   map[uint64]chan struct{}
	subsWG sync.WaitGroup

	// queries and names are the read loop's decode scratch: the reused
	// item slice and the connection's tenant/template interner.
	queries []Query
	names   interner
}

// serveMux runs one connection whose first frame was a hello. That
// frame has already been read (it is how the listener knew to come
// here). The hello reply is written before any goroutine exists, so it
// is first on the wire whoever writes next.
func serveMux(conn net.Conn, br *bufio.Reader, hello []byte, eng Engine) {
	version, err := DecodeHello(hello)
	if err == nil && version < ProtocolV2 {
		err = fmt.Errorf("wire: unsupported protocol version %d (server speaks %d)", version, ProtocolV2)
	}
	if err != nil {
		refuse(conn, err)
		return
	}

	c := &muxConn{
		eng:  eng,
		br:   br,
		subs: make(map[uint64]chan struct{}),
	}
	c.w.init(conn)
	if c.w.writeLocked(true, AppendHello(nil, ProtocolV2)) != nil {
		return
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.w.loop()
	}()

	c.readLoop()
	c.flush() // a reader that quit on a bad frame may still hold replies

	// Teardown order matters: stop the subscription tickers, wait out
	// in-flight batch completions (the shard loops always answer, so this
	// terminates), then let the writer drain whatever they enqueued and
	// exit. Writes to a dead peer fail silently inside the writer.
	c.stopAllSubs()
	c.subsWG.Wait()
	c.inflight.Wait()
	c.w.stop()
	<-writerDone
	conn.Close()
}

// send queues a frame that is not a batch reply; never blocks.
func (c *muxConn) send(payload []byte) { c.w.send(payload, false) }

// complete hands over one batch's reply frame: to the reader, when the
// reader is still inside the submit call numbered seq that produced it,
// else to the writer — straight to the socket when no other batch is in
// flight on the connection.
func (c *muxConn) complete(seq uint64, frame []byte) {
	c.mu.Lock()
	c.active--
	if c.submitting == seq {
		c.parked = frame
		c.mu.Unlock()
		return
	}
	alone := c.active == 0
	c.mu.Unlock()
	c.w.send(frame, alone)
}

// flushBytes is one Ethernet TCP segment's payload.
const flushBytes = 1460

// frameBuffered reports whether the next inbound frame is already
// complete in the read buffer, so reading it will not block. A buffered
// fragment does not count: a client that sent a frame and a half is
// waiting for the first frame's reply.
func (c *muxConn) frameBuffered() bool {
	n := c.br.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := c.br.Peek(4)
	return uint64(n) >= 4+uint64(binary.LittleEndian.Uint32(hdr))
}

// reply sends a frame the reader holds: into the write buffer, without
// waking the writer goroutine and without flushing — readLoop flushes
// when its next read would block, so a pipelined burst of lone queries
// shares one flush and a closed-loop client gets its reply in the same
// breath as the decision. The frame goes to the writer goroutine instead
// when someone else holds the write side.
func (c *muxConn) reply(frame []byte) {
	if !c.w.wmu.TryLock() {
		c.send(frame)
		return
	}
	c.w.writeLocked(false, frame)
	c.w.wmu.Unlock()
	c.unflushed += 4 + len(frame)
	c.w.free.put(frame)
}

// flush pushes the replies the reader buffered out to the client; the
// reader may block here, but only on its own client. When the writer
// goroutine or a direct send holds the write side, it is about to write
// the whole buffer — the reader's bytes, written earlier, included — or
// to leave what the kernel refused to the writer goroutine.
func (c *muxConn) flush() {
	c.unflushed = 0
	if c.w.wmu.TryLock() {
		c.w.writeLocked(true)
		c.w.wmu.Unlock()
	}
}

// readLoop accepts frames until the client goes away or commits an
// unscopable protocol violation, which is answered with one msgError
// before the connection is torn down.
func (c *muxConn) readLoop() {
	var rbuf []byte
	for {
		// Replies the reader buffered go out when it is about to block —
		// a closed-loop client is waiting for exactly that reply — or,
		// mid-burst, as soon as they would fill a packet: holding more
		// saves nothing on the wire and only delays a pipelining client,
		// which works on the first replies while the rest are decided.
		// Flushing before every read gained a closed-loop caller nothing and
		// cost pipelining ones up to a fifth of their queries/s (EXPERIMENTS.md).
		if c.unflushed >= flushBytes || (c.unflushed > 0 && !c.frameBuffered()) {
			c.flush()
		}
		payload, err := ReadFrame(c.br, rbuf)
		if err != nil {
			return
		}
		rbuf = payload[:0]
		if err := c.handleFrame(payload); err != nil {
			c.send(appendErrorPayload(nil, err.Error()))
			return
		}
	}
}

// handleFrame serves one inbound frame (never empty: ReadFrame rejects
// those). Tagged failures — a bad batch body, a drained server, one
// subscription too many, a refused admin call — answer a tagged error
// and keep the connection, which may be carrying a cluster's control
// plane; only a frame no tag can scope (unknown type, unparseable head)
// is returned as an error, and kills it.
func (c *muxConn) handleFrame(payload []byte) error {
	switch payload[0] {
	case msgTaggedQueryBatch:
		return c.submitBatch(payload)

	case msgStatsSubscribe:
		tag, intervalSec, err := DecodeStatsSubscribe(payload)
		if err != nil {
			return err
		}
		c.startSub(tag, intervalSec, func() { c.pushJSON(msgStatsPush, tag, c.eng.Stats()) })

	case msgEventsSubscribe:
		tag, intervalSec, err := DecodeEventsSubscribe(payload)
		if err != nil {
			return err
		}
		// Cursored by journal sequence number: the first installment is
		// everything the journals buffer, later ones only what is new.
		var cursor int64
		c.startSub(tag, intervalSec, func() {
			var view server.EventsView
			view, cursor = c.eng.EventsViewSince(cursor)
			c.pushJSON(msgEventsPush, tag, view)
		})

	case msgStatsUnsubscribe, msgEventsUnsubscribe:
		tag, err := decodeTagOnly(payload, payload[0])
		if err != nil {
			return err
		}
		c.stopSub(tag)

	case msgTraceRequest:
		tag, tenant, template, n, err := DecodeTraceRequest(payload)
		if err != nil {
			return err
		}
		c.pushJSON(msgTracePush, tag, c.eng.TraceViewSnapshot(tenant, template, int(min(n, MaxBatch))))

	case msgEventsRequest:
		tag, typ, tenant, n, err := DecodeEventsRequest(payload)
		if err != nil {
			return err
		}
		if err := server.CheckEventType(typ); err != nil {
			c.answer(tag, nil, err)
		} else {
			c.pushJSON(msgEventsPush, tag, c.eng.EventsViewSnapshot(typ, tenant, int(min(n, MaxBatch))))
		}

	case msgCheckpointRequest:
		tag, err := DecodeCheckpointRequest(payload)
		if err != nil {
			return err
		}
		path, size, err := c.eng.Checkpoint()
		c.answer(tag, AppendCheckpointReply(nil, tag, path, size), err)

	case msgShardFreeze:
		tag, shard, err := DecodeShardFreeze(payload)
		if err != nil {
			return err
		}
		c.answer(tag, AppendShardAck(nil, tag, shard), c.eng.FreezeShard(shard))

	case msgShardExtract:
		tag, shard, err := DecodeShardExtract(payload)
		if err != nil {
			return err
		}
		packet, err := c.eng.ExtractShardPacket(shard)
		c.answer(tag, AppendShardState(nil, tag, shard, packet), err)

	case msgShardInstall:
		tag, shard, packet, err := DecodeShardInstall(payload)
		if err != nil {
			return err
		}
		c.answer(tag, AppendShardAck(nil, tag, shard), c.eng.InstallShardPacket(shard, packet))

	case msgOwnersRequest:
		tag, err := DecodeOwnersRequest(payload)
		if err != nil {
			return err
		}
		c.send(AppendOwnersReply(nil, tag, c.eng.OwnedShards()))

	default:
		return fmt.Errorf("wire: unexpected message type %d", payload[0])
	}
	return nil
}

// answer sends a tagged call's reply frame — or, when the call failed,
// the tag-scoped error that replaces it.
func (c *muxConn) answer(tag uint64, frame []byte, err error) {
	if err != nil {
		frame = AppendTaggedError(nil, tag, err.Error())
	}
	c.send(frame)
}

// pushJSON sends one JSON-bodied view frame under tag.
func (c *muxConn) pushJSON(typ byte, tag uint64, view any) {
	frame, err := appendJSONPush(nil, typ, tag, view)
	c.answer(tag, frame, err)
}

// submitBatch decodes one tagged query batch and hands it to the engine
// without waiting: the completion encodes the reply frame whenever the
// batch's last shard group finishes and hands it to the writer — or, if
// that happens before the engine call returns, back to the reader.
func (c *muxConn) submitBatch(payload []byte) error {
	// Stage timing is paid only while tracing is live: one clock read
	// pair per BATCH, amortized over its queries.
	traceOn := c.eng.TraceEnabled()
	var decStart time.Time
	if traceOn {
		decStart = time.Now()
	}
	// The tag is parsed first so any body error can be scoped to it;
	// only an unparseable tag kills the connection.
	r := binenc.NewReader(payload)
	tag := readTag(&r, msgTaggedQueryBatch)
	err := r.Err()
	if err != nil {
		return err
	}
	c.queries, err = readQueryItems(&r, c.queries, &c.names)
	if err != nil {
		c.send(AppendTaggedError(nil, tag, err.Error()))
		return nil
	}
	var decodeNanos int64
	if traceOn {
		decodeNanos = time.Since(decStart).Nanoseconds()
	}
	c.seq++
	seq := c.seq
	c.mu.Lock()
	c.submitting = seq
	c.active++
	c.mu.Unlock()
	c.inflight.Add(1)
	// The engine borrows the decode scratch for the call only; the next
	// frame reuses it.
	err = c.eng.SubmitBatchAsync(context.Background(), c.queries, decodeNanos, func(replies []Reply) {
		defer c.inflight.Done()
		var encStart time.Time
		if traceOn {
			encStart = time.Now()
		}
		frame := AppendTaggedReplyBatch(c.w.free.get(), tag, replies)
		if traceOn {
			// Back-fill the encode stage into the sampled records: the
			// shard published them before the reply bytes existed.
			c.eng.BackfillEncode(replies, time.Since(encStart).Nanoseconds())
		}
		c.complete(seq, frame)
	})
	c.mu.Lock()
	c.submitting = 0
	frame := c.parked
	c.parked = nil
	if err != nil {
		c.active--
	}
	c.mu.Unlock()
	if err != nil {
		// ErrServerClosed during drain — or a malformed budget in the
		// batch body: this batch fails, the connection survives to serve
		// the client's other tags.
		c.inflight.Done()
		c.send(AppendTaggedError(nil, tag, err.Error()))
	} else if frame != nil {
		c.reply(frame)
	}
	return nil
}

// startSub opens one subscription: an immediate push, then one every
// interval, all on one goroutine at a time (the read loop's, then the
// ticker's), so push may keep state between calls. A non-positive (or
// non-finite) interval is the one-shot form — push once, hold nothing.
// Subscribing an active tag or exceeding the per-connection cap answers
// a tagged error. Stats and events streams share the tag space and the
// cap.
func (c *muxConn) startSub(tag uint64, intervalSec float64, push func()) {
	interval := time.Duration(0)
	if intervalSec > 0 { // NaN compares false: one-shot
		interval = max(time.Duration(intervalSec*float64(time.Second)), minSubInterval)
	}
	c.mu.Lock()
	if _, dup := c.subs[tag]; dup {
		c.mu.Unlock()
		c.send(AppendTaggedError(nil, tag, "wire: subscription tag already active"))
		return
	}
	if interval > 0 && len(c.subs) >= maxSubs {
		c.mu.Unlock()
		c.send(AppendTaggedError(nil, tag, fmt.Sprintf("wire: too many subscriptions (max %d)", maxSubs)))
		return
	}
	var stop chan struct{}
	if interval > 0 {
		stop = make(chan struct{})
		c.subs[tag] = stop
	}
	c.mu.Unlock()

	push()
	if interval == 0 {
		return
	}
	c.subsWG.Add(1)
	go func() {
		defer c.subsWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				push()
			case <-stop:
				return
			}
		}
	}()
}

// stopSub ends one subscription; unknown tags are a no-op (the stream
// may have been one-shot, or already closed).
func (c *muxConn) stopSub(tag uint64) {
	c.mu.Lock()
	stop, ok := c.subs[tag]
	if ok {
		delete(c.subs, tag)
	}
	c.mu.Unlock()
	if ok {
		close(stop)
	}
}

// stopAllSubs ends every subscription at connection teardown.
func (c *muxConn) stopAllSubs() {
	c.mu.Lock()
	subs := c.subs
	c.subs = make(map[uint64]chan struct{})
	c.mu.Unlock()
	for _, stop := range subs {
		close(stop)
	}
}
