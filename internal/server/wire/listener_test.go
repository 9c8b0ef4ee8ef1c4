package wire_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// newWireServer starts an engine plus a binary listener on a loopback
// port, mirroring the HTTP tests' newHTTPServer.
func newWireServer(t *testing.T, shards int) (*server.Server, string) {
	t.Helper()
	return newTestServer(t, shards, nil)
}

// newTestServer is newWireServer with the engine config open to
// adjustment before the server is built.
func newTestServer(t *testing.T, shards int, adjust func(*server.Config)) (*server.Server, string) {
	t.Helper()
	cat := catalog.TPCH(20)
	params := scheme.DefaultParams(cat)
	params.RegretFraction = 0.0001
	params.LoadFactor = 0.02
	cfg := server.Config{
		Shards: shards,
		Scheme: "econ-cheap",
		Params: params,
		Clock:  server.NewVirtualClock(),
	}
	if adjust != nil {
		adjust(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- wire.Serve(ln, srv) }()
	t.Cleanup(func() {
		_ = ln.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("wire.Serve: %v", err)
		}
		_ = srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

var ctx = context.Background()

// dialMux opens a client the test closes on exit.
func dialMux(t *testing.T, addr string) *wire.MuxClient {
	t.Helper()
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestWireQuery is the binary-protocol echo of TestHTTPQuery: one query
// with an explicit budget comes back fully populated.
func TestWireQuery(t *testing.T) {
	_, addr := newWireServer(t, 4)
	cl := dialMux(t, addr)

	replies, err := cl.Submit(ctx, []wire.Query{{
		Tenant:         "alice",
		Template:       "Q6",
		Selectivity:    0.0096,
		HasSelectivity: true,
		Budget:         &server.BudgetJSON{Shape: "step", PriceUSD: 0.002, TmaxSec: 3600},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || replies[0].Err != "" {
		t.Fatalf("replies = %+v", replies)
	}
	qr := replies[0].Resp
	if qr.QueryID == 0 {
		t.Error("missing query id")
	}
	if qr.Template != "Q6" {
		t.Errorf("template = %q", qr.Template)
	}
	if qr.Selectivity != 0.0096 {
		t.Errorf("selectivity = %g", qr.Selectivity)
	}
	if qr.Location != "backend" && qr.Location != "cache" {
		t.Errorf("location = %q", qr.Location)
	}
}

// TestWireBatchAndReuse: one connection carries many frames, batches mix
// successes with per-query errors, and the server's counters agree.
func TestWireBatchAndReuse(t *testing.T) {
	srv, addr := newWireServer(t, 4)
	cl := dialMux(t, addr)

	const rounds = 10
	var ok, failed int64
	for r := 0; r < rounds; r++ {
		batch := []wire.Query{
			{Tenant: fmt.Sprintf("t%d", r), Template: "Q1"},
			{Tenant: fmt.Sprintf("t%d", r), Template: "Q999"}, // per-item error
			{Tenant: fmt.Sprintf("u%d", r), Template: "Q6"},
		}
		replies, err := cl.Submit(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range replies {
			if replies[i].Err != "" {
				failed++
				if !strings.Contains(replies[i].Err, "unknown template") {
					t.Errorf("round %d item %d: err = %q", r, i, replies[i].Err)
				}
			} else {
				ok++
			}
		}
	}
	if ok != 2*rounds || failed != rounds {
		t.Errorf("ok/failed = %d/%d, want %d/%d", ok, failed, 2*rounds, rounds)
	}
	st := srv.Stats()
	if st.Queries != 2*rounds {
		t.Errorf("server queries = %d, want %d", st.Queries, 2*rounds)
	}
	if st.Errors != rounds {
		t.Errorf("server errors = %d, want %d", st.Errors, rounds)
	}
}

// TestWireConcurrentClients: many connections submit at once (-race).
func TestWireConcurrentClients(t *testing.T) {
	srv, addr := newWireServer(t, 4)
	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.DialMux(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			templates := []string{"Q1", "Q3", "Q6", "Q10"}
			for i := 0; i < perClient; i++ {
				replies, err := cl.Submit(ctx, []wire.Query{{
					Tenant:   fmt.Sprintf("tenant-%d", (c+i)%7),
					Template: templates[i%len(templates)],
				}})
				if err != nil {
					errs <- err
					return
				}
				if replies[0].Err != "" {
					errs <- fmt.Errorf("reply error: %s", replies[0].Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Queries != clients*perClient {
		t.Errorf("queries = %d, want %d", st.Queries, clients*perClient)
	}
}

// TestWireServerClosed: a drained engine refuses the batch, by tag — the
// connection itself stays up.
func TestWireServerClosed(t *testing.T) {
	srv, addr := newWireServer(t, 2)
	cl := dialMux(t, addr)
	if _, err := cl.Submit(ctx, []wire.Query{{Template: "Q1"}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Submit(ctx, []wire.Query{{Template: "Q1"}})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("post-drain submit: err = %v, want server-closed error", err)
	}
}

// firstFrameReply opens a raw connection, writes first verbatim and
// returns everything the server sends before it closes the connection.
func firstFrameReply(t *testing.T, addr string, first []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("server did not close the connection: %v", err)
	}
	return reply
}

// wantRefusal checks a first-frame reply is exactly one msgError frame
// naming the hello requirement.
func wantRefusal(t *testing.T, name string, reply []byte) {
	t.Helper()
	r := bytes.NewReader(reply)
	payload, err := wire.ReadFrame(r, nil)
	if err != nil {
		t.Fatalf("%s: no error frame before close: %v (%x)", name, err, reply)
	}
	msg, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatalf("%s: answered with %x, want a msgError frame: %v", name, payload, err)
	}
	if !strings.Contains(msg, "hello") || !strings.Contains(msg, "retired") {
		t.Errorf("%s: refusal %q names neither the hello requirement nor the retired protocol", name, msg)
	}
	if r.Len() != 0 {
		t.Errorf("%s: %d bytes after the one error frame", name, r.Len())
	}
}

// TestWireGarbageFrame: a first frame that is not a hello gets one error
// frame and the connection is dropped without hurting the server.
func TestWireGarbageFrame(t *testing.T) {
	srv, addr := newWireServer(t, 2)
	wantRefusal(t, "garbage", firstFrameReply(t, addr, []byte{4, 0, 0, 0, 0x7F, 1, 2, 3}))
	// The server still serves fresh connections.
	cl := dialMux(t, addr)
	if _, err := cl.Submit(ctx, []wire.Query{{Template: "Q6"}}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Queries != 1 {
		t.Errorf("queries = %d, want 1", st.Queries)
	}
}

// TestWireLegacyFirstFrame: clients of the retired lockstep generation —
// their frames embedded here as captured bytes, so the check outlives
// the encoder that made them — and hostile openers are all told to say
// hello, once, and hung up on. Nothing they sent is decoded: the query
// batch below is well-formed and would have been decided.
func TestWireLegacyFirstFrame(t *testing.T) {
	srv, addr := newWireServer(t, 2)
	frame := func(payloadHex string) []byte {
		payload, err := hex.DecodeString(payloadHex)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{byte(len(payload)), 0, 0, 0}, payload...)
	}
	cases := map[string][]byte{
		// type 1 (query batch) | n=1 | tenant "alice" | template "Q6" | flags 0
		"v1 query batch":      frame("010105616c69636502513600"),
		"v1 stats request":    frame("04"),
		"v1 snapshot request": frame("06"),
		"empty frame":         {0, 0, 0, 0},
		// A length prefix past MaxFrame, with a hello's type byte behind
		// it: the size alone refuses it, and no body is waited for.
		"oversize prefix": {0xFF, 0xFF, 0xFF, 0xFF, 8},
		// A hello-typed frame too long to be a hello.
		"fat hello": append([]byte{64, 0, 0, 0, 8}, make([]byte, 63)...),
	}
	for name, first := range cases {
		wantRefusal(t, name, firstFrameReply(t, addr, first))
	}
	if st := srv.Stats(); st.Queries != 0 || st.Errors != 0 {
		t.Errorf("refused frames reached the engine: %d queries, %d errors", st.Queries, st.Errors)
	}
	// A hello of an older version is refused by version, not by shape.
	reply := firstFrameReply(t, addr, []byte{2, 0, 0, 0, 8, 1})
	payload, err := wire.ReadFrame(bytes.NewReader(reply), nil)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := wire.DecodeError(payload); err != nil || !strings.Contains(msg, "unsupported protocol version 1") {
		t.Errorf("hello v1 answered (%q, %v), want an unsupported-version error", msg, err)
	}
	// And the listener is unharmed.
	cl := dialMux(t, addr)
	if _, err := cl.Submit(ctx, []wire.Query{{Template: "Q6"}}); err != nil {
		t.Fatal(err)
	}
}
