package wire_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
)

// newMuxServer is newWireServer with per-shard decision delays the
// out-of-order tests use to scramble completion order.
func newMuxServer(t *testing.T, shards int, delays []atomic.Int64) (*server.Server, string) {
	t.Helper()
	if delays == nil {
		return newWireServer(t, shards)
	}
	return newHookedServer(t, shards, func(shard int) {
		if d := delays[shard].Load(); d > 0 {
			// A real delay, so completions genuinely race one another.
			time.Sleep(time.Duration(d))
		}
	})
}

// newHookedServer is newWireServer with a hook every shard calls before
// each mailbox drain (server.Config.DecideDelay).
func newHookedServer(t *testing.T, shards int, hook func(shard int)) (*server.Server, string) {
	t.Helper()
	return newTestServer(t, shards, func(cfg *server.Config) { cfg.DecideDelay = hook })
}

// shardTenants finds one tenant name per shard, so each worker in the
// parity test owns a shard outright. QueryIDs come off a global counter
// — the one cross-shard nondeterminism — so the comparison zeroes them;
// everything else a shard computes depends only on its own arrival
// order, which per-tenant pinning makes deterministic.
func shardTenants(srv *server.Server, shards int) []string {
	tenants := make([]string, shards)
	found := 0
	for i := 0; found < shards; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		idx := srv.ShardIndex(server.Request{Tenant: name})
		if tenants[idx] == "" {
			tenants[idx] = name
			found++
		}
	}
	return tenants
}

// TestMuxOutOfOrderParity is the determinism contract under fire: N
// goroutines share one MuxClient against a server whose shards sleep
// random amounts before deciding, so replies complete in scrambled
// order. Every tagged reply must still be byte-identical (modulo the
// global QueryID counter) to a sequential replay on a fresh
// identically-seeded server — then the whole thing drains gracefully.
func TestMuxOutOfOrderParity(t *testing.T) {
	const shards = 4
	const rounds = 25
	delays := make([]atomic.Int64, shards)
	srv, addr := newMuxServer(t, shards, delays)
	tenants := shardTenants(srv, shards)

	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i].Store(int64(time.Duration(rng.Intn(300)) * time.Microsecond))
	}

	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q999"}
	batchFor := func(worker, round int) []wire.Query {
		qs := make([]wire.Query, 1+round%3)
		for i := range qs {
			qs[i] = wire.Query{
				Tenant:   tenants[worker],
				Template: templates[(worker+round+i)%len(templates)],
			}
		}
		return qs
	}

	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][][]wire.Reply, shards) // [worker][round]
	var wg sync.WaitGroup
	errCh := make(chan error, shards)
	for w := 0; w < shards; w++ {
		got[w] = make([][]wire.Reply, rounds)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				replies, err := cl.Submit(context.Background(), batchFor(w, r))
				if err != nil {
					errCh <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
				got[w][r] = replies
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Graceful drain: server first, then the client; both must come back.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Sequential replay on a fresh twin, in process — the reference is the
	// order, not a codec. Worker-major order is fine: each worker's
	// queries live on their own shard, so per-shard arrival order is
	// identical to the concurrent run's.
	srv2, _ := newMuxServer(t, shards, nil)
	if want := tenants; !equalStrings(want, shardTenants(srv2, shards)) {
		t.Fatal("twin server hashed tenants differently")
	}
	ref := wire.ServerEngine(srv2)
	for w := 0; w < shards; w++ {
		for r := 0; r < rounds; r++ {
			want, err := ref.SubmitBatch(context.Background(), batchFor(w, r), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !repliesEqualModuloID(t, got[w][r], want) {
				t.Fatalf("worker %d round %d: pipelined replies diverge from sequential replay\n got: %+v\nwant: %+v",
					w, r, got[w][r], want)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// repliesEqualModuloID compares two reply slices byte-for-byte on the
// wire encoding after zeroing QueryID — the one field minted from a
// global counter that concurrent shards race for.
func repliesEqualModuloID(t *testing.T, a, b []wire.Reply) bool {
	t.Helper()
	norm := func(rs []wire.Reply) []byte {
		c := make([]wire.Reply, len(rs))
		copy(c, rs)
		for i := range c {
			c[i].Resp.QueryID = 0
		}
		return wire.AppendTaggedReplyBatch(nil, 0, c)
	}
	return bytes.Equal(norm(a), norm(b))
}

// TestMuxRawOutOfOrder proves reordering at the frame level: with the
// first tenant's shard pinned slow, a batch tagged 2 sent after a batch
// tagged 1 comes back first.
func TestMuxRawOutOfOrder(t *testing.T) {
	const shards = 4
	delays := make([]atomic.Int64, shards)
	srv, addr := newMuxServer(t, shards, delays)
	tenants := shardTenants(srv, shards)
	slowShard := srv.ShardIndex(server.Request{Tenant: tenants[0]})
	delays[slowShard].Store(int64(150 * time.Millisecond))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.AppendHello(nil, wire.ProtocolV2)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		t.Fatalf("hello reply: %v", err)
	}

	slow, err := wire.AppendTaggedQueryBatch(nil, 1, []wire.Query{{Tenant: tenants[0], Template: "Q1"}})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := wire.AppendTaggedQueryBatch(nil, 2, []wire.Query{{Tenant: tenants[1], Template: "Q6"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, slow); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, fast); err != nil {
		t.Fatal(err)
	}

	var order []uint64
	for len(order) < 2 {
		payload, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		tag, replies, err := wire.DecodeTaggedReplyBatch(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(replies) != 1 || replies[0].Err != "" {
			t.Fatalf("tag %d: replies = %+v", tag, replies)
		}
		order = append(order, tag)
	}
	if order[0] != 2 || order[1] != 1 {
		t.Errorf("completion order = %v, want [2 1] (fast batch overtakes slow)", order)
	}
}

// TestMuxTaggedErrorKeepsConnection: a malformed batch body fails only
// its own tag; the connection keeps serving.
func TestMuxTaggedErrorKeepsConnection(t *testing.T) {
	srv, addr := newMuxServer(t, 2, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.AppendHello(nil, wire.ProtocolV2)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn, nil); err != nil {
		t.Fatal(err)
	}

	// Tag 7 with a truncated body: type byte, tag, then garbage where the
	// query count should parse.
	good, err := wire.AppendTaggedQueryBatch(nil, 7, []wire.Query{{Template: "Q1"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := good[:3] // enough for type+tag, body cut mid-structure
	if err := wire.WriteFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	tag, msg, err := wire.DecodeTaggedError(payload)
	if err != nil {
		t.Fatalf("expected tagged error frame, got %v", err)
	}
	if tag != 7 || msg == "" {
		t.Errorf("tagged error = (%d, %q), want tag 7 with a message", tag, msg)
	}

	// Same connection, same tag, now well-formed: still served.
	if err := wire.WriteFrame(conn, good); err != nil {
		t.Fatal(err)
	}
	payload, err = wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	tag, replies, err := wire.DecodeTaggedReplyBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 7 || len(replies) != 1 || replies[0].Err != "" {
		t.Fatalf("post-error submit: tag=%d replies=%+v", tag, replies)
	}
	if st := srv.Stats(); st.Queries != 1 {
		t.Errorf("queries = %d, want 1", st.Queries)
	}
}

// TestMuxStatsStreaming: a subscription pushes immediately and then on
// its cadence; Close stops the stream and closes the channel.
func TestMuxStatsStreaming(t *testing.T) {
	_, addr := newMuxServer(t, 2, nil)
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Submit(context.Background(), []wire.Query{{Template: "Q6"}}); err != nil {
		t.Fatal(err)
	}
	sub, err := cl.SubscribeStats(0.005)
	if err != nil {
		t.Fatal(err)
	}
	var pushes int
	deadline := time.After(5 * time.Second)
	for pushes < 3 {
		select {
		case st, ok := <-sub.C:
			if !ok {
				t.Fatalf("stream closed after %d pushes: %v", pushes, sub.Err())
			}
			if st.Queries != 1 {
				t.Errorf("pushed stats queries = %d, want 1", st.Queries)
			}
			pushes++
		case <-deadline:
			t.Fatalf("only %d pushes before deadline", pushes)
		}
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	// The channel must close promptly once unsubscribed (a straggler push
	// or two may still be buffered).
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				if sub.Err() != nil {
					t.Errorf("clean close recorded err = %v", sub.Err())
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("subscription channel never closed after Close")
		}
	}
}

// TestMuxStatsOneShot: MuxClient.Stats is a single server push, and it
// sees the same engine an in-process caller does.
func TestMuxStatsOneShot(t *testing.T) {
	srv, addr := newMuxServer(t, 2, nil)
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(context.Background(), []wire.Query{{Template: "Q1"}}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 {
		t.Errorf("stats queries = %d, want 3", st.Queries)
	}
	if want := srv.Stats(); st.Queries != want.Queries || len(st.Tenants) != len(want.Tenants) {
		t.Errorf("pushed stats disagree with direct snapshot: %+v vs %+v", st, want)
	}
}

// TestMuxSubscriptionCap: the 17th concurrent streaming subscription is
// refused with a tagged error — and only that tag suffers.
func TestMuxSubscriptionCap(t *testing.T) {
	_, addr := newMuxServer(t, 2, nil)
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	subs := make([]*wire.StatsSub, 0, 16)
	for i := 0; i < 16; i++ {
		sub, err := cl.SubscribeStats(10) // long cadence: just holding slots
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	over, err := cl.SubscribeStats(10)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-over.C:
		// The immediate push may land before the refusal is processed, but
		// the stream must end in a TaggedError either way.
		if ok {
			select {
			case _, ok2 := <-over.C:
				if ok2 {
					t.Fatal("over-cap subscription kept streaming")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("over-cap subscription never refused")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("over-cap subscription never answered")
	}
	if over.Err() == nil || !strings.Contains(over.Err().Error(), "too many") {
		t.Errorf("over-cap err = %v, want too-many-subscriptions", over.Err())
	}
	// The connection is still healthy for queries and the original subs.
	if _, err := cl.Submit(context.Background(), []wire.Query{{Template: "Q6"}}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxDrainInFlight: Submits racing a graceful shutdown either get
// full replies or a server-closed error — never a hang, and the
// connection survives to report the drain tag by tag.
func TestMuxDrainInFlight(t *testing.T) {
	srv, addr := newMuxServer(t, 4, nil)
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The drain begins once letThrough queries have been answered.
	const workers = 8
	const letThrough = 100
	var answered atomic.Int64
	through := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				replies, err := cl.Submit(context.Background(), []wire.Query{{
					Tenant:   fmt.Sprintf("drain-%d", w),
					Template: "Q1",
				}})
				if err != nil {
					var terr *wire.TaggedError
					if strings.Contains(err.Error(), "closed") || (asTagged(err, &terr) && strings.Contains(terr.Msg, "closed")) {
						return // drain reached this batch; expected
					}
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
				if len(replies) != 1 {
					errs <- fmt.Errorf("worker %d iter %d: %d replies", w, i, len(replies))
					return
				}
				if answered.Add(1) == letThrough {
					close(through)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-through:
	case <-done: // every worker failed; reported below
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers hung across drain")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMuxSubmitAsyncFiresOnce: batches sent with SubmitAsync and still
// held in the engine when the client closes each complete exactly once,
// with an error that wraps ErrClientClosed, and the replies the engine
// sends once it lets go fire nothing more.
func TestMuxSubmitAsyncFiresOnce(t *testing.T) {
	const n = 32
	release := make(chan struct{})
	var releaseOnce sync.Once
	let := func() { releaseOnce.Do(func() { close(release) }) }
	var held atomic.Int64
	srv, addr := newHookedServer(t, 4, func(int) {
		held.Add(1)
		<-release
	})
	t.Cleanup(let) // before the server's shutdown, which waits for the shards
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}

	var fired [n]atomic.Int32
	var errs [n]error
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		q := []wire.Query{{Tenant: fmt.Sprintf("async-%d", i), Template: "Q1"}}
		err := cl.SubmitAsync(q, func(rs []wire.Reply, err error) {
			if fired[i].Add(1) == 1 {
				errs[i] = err
				wg.Done()
			}
		})
		if err != nil {
			t.Fatalf("SubmitAsync %d: %v", i, err)
		}
	}
	for held.Load() == 0 {
		time.Sleep(time.Millisecond) // the engine has the batches in hand
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { wg.Wait(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("callbacks still pending after Close")
	}
	for i, err := range errs {
		if !errors.Is(err, wire.ErrClientClosed) {
			t.Fatalf("callback %d: err = %v, want one wrapping ErrClientClosed", i, err)
		}
	}

	// Let the engine decide what it had accepted and answer into the
	// closed connection; the drain returns once every answer is out.
	let()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cl.SubmitAsync([]wire.Query{{Tenant: "late", Template: "Q1"}}, func([]wire.Reply, error) {
		t.Error("a callback fired for a batch refused at the call")
	}); !errors.Is(err, wire.ErrClientClosed) {
		t.Fatalf("SubmitAsync after Close: err = %v, want ErrClientClosed", err)
	}
	for i := range fired {
		if got := fired[i].Load(); got != 1 {
			t.Fatalf("callback %d fired %d times, want exactly once", i, got)
		}
	}
}

func asTagged(err error, target **wire.TaggedError) bool {
	te, ok := err.(*wire.TaggedError)
	if ok {
		*target = te
	}
	return ok
}

// rawHello opens a raw protocol connection: hello out, hello reply in.
func rawHello(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.AppendHello(nil, wire.ProtocolV2)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		t.Fatalf("hello reply: %v", err)
	}
}

// TestMuxFrameAndAHalf: the connection's reader answers a lone query
// itself and flushes only when its next read would block — and "would
// block" must mean no COMPLETE frame is buffered. A client that sends one
// full frame plus half of the next in a single write, then waits for the
// first reply before sending the rest, must get that reply: bytes of an
// unfinished frame sitting in the read buffer are not work to do.
func TestMuxFrameAndAHalf(t *testing.T) {
	_, addr := newWireServer(t, 4)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawHello(t, conn)

	var stream bytes.Buffer
	for tag := uint64(1); tag <= 2; tag++ {
		frame, err := wire.AppendTaggedQueryBatch(nil, tag, []wire.Query{{Tenant: "half", Template: "Q6"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&stream, frame); err != nil {
			t.Fatal(err)
		}
	}
	cut := stream.Len() * 3 / 4 // all of frame 1, half of frame 2
	readReply := func(want uint64) {
		t.Helper()
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn, nil)
		if err != nil {
			t.Fatalf("reply %d: %v (a buffered half frame must not hold back the finished frame's reply)", want, err)
		}
		tag, replies, err := wire.DecodeTaggedReplyBatch(payload, nil)
		if err != nil || tag != want || len(replies) != 1 || replies[0].Err != "" {
			t.Fatalf("reply %d: tag %d, replies %+v, err %v", want, tag, replies, err)
		}
	}
	if _, err := conn.Write(stream.Bytes()[:cut]); err != nil {
		t.Fatal(err)
	}
	readReply(1)
	if _, err := conn.Write(stream.Bytes()[cut:]); err != nil {
		t.Fatal(err)
	}
	readReply(2)
}

// bytesPerRun is testing.AllocsPerRun for bytes, as in internal/server's
// shard_internal_test.go.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMuxRoundTripAllocs pins one MuxClient round trip to a warmed 4-shard
// engine on a loopback listener — client encode, the connection's reader
// deciding inline or handing off, reply encode and write, client decode,
// every goroutine of both ends counted — at 3 allocations and 416 bytes
// for a one-query batch, and at 2 allocations and 10 KiB for a 64-query
// batch spread over every shard, 9 KiB of which is the client's own reply
// slice.
func TestMuxRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q14"}
	for _, tc := range []struct {
		batch     int
		maxAllocs float64
		maxBytes  uint64
	}{{1, 3, 416}, {64, 2, 10 << 10}} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			clock := server.NewVirtualClock()
			_, addr := newTestServer(t, 4, func(cfg *server.Config) { cfg.Clock = clock })
			cl := dialMux(t, addr)
			qs := make([]wire.Query, tc.batch)
			i := 0
			roundTrip := func() {
				for j := range qs {
					qs[j] = wire.Query{Tenant: tenants[i%len(tenants)], Template: templates[i%len(templates)]}
					i++
				}
				clock.Advance(time.Second)
				replies, err := cl.Submit(ctx, qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range replies {
					if r.Err != "" {
						t.Fatal(r.Err)
					}
				}
			}
			for i < 5000 {
				roundTrip()
			}
			allocs := testing.AllocsPerRun(500, roundTrip)
			bytes := bytesPerRun(500, roundTrip)
			t.Logf("batch=%d: %.0f allocations, %d bytes per round trip", tc.batch, allocs, bytes)
			if allocs > tc.maxAllocs || bytes > tc.maxBytes {
				t.Errorf("a batch=%d round trip allocates %.1f times and %d bytes, gates %.0f and %d; `make profile` lists the engine's sites, `go test -run TestMuxRoundTripAllocs -memprofile mem.prof -memprofilerate 1 ./internal/server/wire` the front's",
					tc.batch, allocs, bytes, tc.maxAllocs, tc.maxBytes)
			}
		})
	}
}

// pipeListener hands the server in-memory connections. net.Pipe has no
// buffer at all, so a peer that does not read is, from the first byte, a
// client whose socket buffer is full.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { close(l.closed); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// tinyBufListener shrinks each accepted connection's send buffer to the
// kernel's floor and hands the connection on unwrapped, raw socket and
// all.
type tinyBufListener struct{ net.Listener }

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return c, err
}

// stallTCP dials addr with a 4 KiB receive buffer, says hello and sends
// n frames, one a millisecond so each is its connection's only batch in
// flight when it is answered, and never reads a reply. Their replies far
// outgrow both socket buffers, so the server's direct writes to it are
// refused and the rest parks with its writer goroutine. Sending stops
// early once the server stops reading (its reader parked on its own
// flush). The caller closes the connection.
func stallTCP(t *testing.T, addr string, n int, frame []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	rawHello(t, conn)
	for range n {
		conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if wire.WriteFrame(conn, frame) != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return conn
}

// TestMuxStalledClientSparesOthers: a client that sends queries and never
// reads the replies stalls whoever writes to it — its own connection's
// reader or writer goroutine — and nobody else. No shard goroutine and
// no shard lock is ever held across a blocking socket write, so another
// connection's queries to the SAME shard keep being answered, whether
// the stalled queries were decided inline (on the reader) or through the
// mailbox. Over net.Pipe, which has no buffer at all, every reply queues
// for the writer goroutine; over TCP, replies answered alone go straight
// to the socket from the goroutine that completes them until the kernel
// refuses one.
func TestMuxStalledClientSparesOthers(t *testing.T) {
	frame, err := wire.AppendTaggedQueryBatch(nil, 1, []wire.Query{{Tenant: "shared", Template: "Q6"}})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]wire.Query, 64)
	for i := range qs {
		qs[i] = wire.Query{Tenant: "shared", Template: "Q6"}
	}
	fat, err := wire.AppendTaggedQueryBatch(nil, 1, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"inline", "mailbox"} {
		var adjust func(*server.Config)
		if name == "mailbox" {
			adjust = func(cfg *server.Config) { cfg.DecideDelay = func(int) {} }
		}
		t.Run(name, func(t *testing.T) {
			t.Run("pipe", func(t *testing.T) {
				srv, addr := newTestServer(t, 4, adjust)
				pl := &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
				served := make(chan error, 1)
				go func() { served <- wire.Serve(pl, srv) }()
				defer func() {
					pl.Close()
					if err := <-served; err != nil {
						t.Errorf("wire.Serve: %v", err)
					}
				}()

				stalled, serverEnd := net.Pipe()
				defer stalled.Close() // fails the server's blocked write, freeing the connection
				pl.conns <- serverEnd
				rawHello(t, stalled)
				// Returns once the server has read the frame; its reply then
				// blocks on the pipe for as long as this test does not read it.
				if err := wire.WriteFrame(stalled, frame); err != nil {
					t.Fatal(err)
				}
				answeredBehind(t, addr)
			})
			t.Run("tcp", func(t *testing.T) {
				srv, addr := newTestServer(t, 4, adjust)
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				served := make(chan error, 1)
				go func() { served <- wire.Serve(tinyBufListener{ln}, srv) }()
				defer func() {
					ln.Close()
					if err := <-served; err != nil {
						t.Errorf("wire.Serve: %v", err)
					}
				}()
				// 200 replies of 64 items: well over half a megabyte.
				stalled := stallTCP(t, ln.Addr().String(), 200, fat)
				defer stalled.Close()
				answeredBehind(t, addr)
			})
		})
	}
}

// answeredBehind sends 50 one-query batches to the stalled client's shard
// from a connection of its own; each must be answered.
func answeredBehind(t *testing.T, addr string) {
	t.Helper()
	cl := dialMux(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		replies, err := cl.Submit(ctx, []wire.Query{{Tenant: "shared", Template: "Q6"}})
		if err != nil || len(replies) != 1 || replies[0].Err != "" {
			t.Fatalf("query %d behind a stalled client: replies %+v, err %v", i, replies, err)
		}
	}
}
