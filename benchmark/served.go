package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/economy"
	"repro/internal/experiments"
	"repro/internal/persist"
	"repro/internal/router"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// spec defines one served workload.
type spec struct {
	name     string
	batch    int // queries per client operation
	warmup   int // queries each set-up sends before it counts as ready
	backends int // engines; two sit behind a router
	provider economy.Provider
	http     bool
	// traceSample is the daemon's own decision-trace sampling period.
	// It is part of the workload (an operator's setting), not of the
	// harness's tracing.
	traceSample int64
	// http-mixed reads beside its decisions on an operation-count
	// schedule, so the mix per query is the same on any machine: each
	// client reads /v1/stats every statsEvery-th of its operations, and
	// /metrics, /v1/trace and a checkpoint every heavyEvery-th.
	statsEvery, heavyEvery int64
}

const (
	shardsPerEngine = 4
	clientCount     = 2 // closed loop: each waits for its reply, on its own connection
)

var specs = map[string]spec{
	"wire-single":  {name: "wire-single", batch: 1, warmup: 30_000, backends: 1, provider: economy.ProviderAltruistic},
	"routed-batch": {name: "routed-batch", batch: maxBatchSize, warmup: 96_000, backends: 2, provider: economy.ProviderSelfish},
	"http-mixed": {name: "http-mixed", batch: 1, warmup: 15_000, backends: 1, provider: economy.ProviderAltruistic, http: true,
		traceSample: 64, statsEvery: 2_000, heavyEvery: 20_000},
}

// queryClock is the economy's time: one second per query issued. Rent,
// build completion and eviction then depend on how many queries were
// sent, never on how fast the machine sent them, so the work behind a
// query is the same on a fast and a slow box.
type queryClock struct{ issued atomic.Int64 }

func (c *queryClock) Now() time.Duration { return time.Duration(c.issued.Load()) * queryEvery }

// submitter sends the operation whose first query is pool entry i, waits
// for the reply and checks it.
type submitter interface {
	submit(i int) error
	close()
}

// wireSubmitter sends batches of wire queries: over the v2 mux protocol,
// one connection per client (send is MuxClient.Submit), or — in the
// harness's own tests — straight into a wire.Engine.
type wireSubmitter struct {
	send  func(ctx context.Context, qs []wire.Query) ([]wire.Reply, error)
	stop  func() error
	pool  []wire.Query
	batch int
	last  []wire.Reply // the most recent operation's replies
}

func (s *wireSubmitter) submit(i int) error {
	qs := s.pool[i : i+s.batch]
	rs, err := s.send(context.Background(), qs)
	if err != nil {
		return err
	}
	if len(rs) != len(qs) {
		return fmt.Errorf("%d replies to %d queries", len(rs), len(qs))
	}
	for k := range rs {
		if rs[k].Err != "" {
			return errors.New(rs[k].Err)
		}
		if rs[k].Resp.Template != qs[k].Template || rs[k].Resp.QueryID <= 0 {
			return fmt.Errorf("reply %d answers %q id %d, sent %q", k, rs[k].Resp.Template, rs[k].Resp.QueryID, qs[k].Template)
		}
	}
	s.last = rs
	return nil
}

func (s *wireSubmitter) close() { s.stop() }

// httpSubmitter is a keep-alive HTTP/1.1 client on one connection. It
// writes requests built during set-up and parses responses with
// net/http's reader, so the client side stays cheap next to the server.
type httpSubmitter struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	pool *inputs
}

func (s *httpSubmitter) do(req []byte) (int, error) {
	if _, err := s.conn.Write(req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return 0, err
	}
	s.body.Reset()
	_, err = s.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func (s *httpSubmitter) submit(i int) error {
	status, err := s.do(s.pool.httpReq[i])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/query: status %d: %s", status, s.body.Bytes())
	}
	var resp server.Response
	if err := json.Unmarshal(s.body.Bytes(), &resp); err != nil {
		return err
	}
	if resp.Template != s.pool.wire[i].Template || resp.QueryID <= 0 {
		return fmt.Errorf("reply answers %q id %d, sent %q", resp.Template, resp.QueryID, s.pool.wire[i].Template)
	}
	return nil
}

// get reads one of the daemon's read endpoints and returns how long it
// took.
func (s *httpSubmitter) get(path string) (time.Duration, error) {
	t0 := time.Now()
	status, err := s.do([]byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n"))
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if status != http.StatusOK || s.body.Len() == 0 {
		return d, fmt.Errorf("GET %s: status %d, %d bytes", path, status, s.body.Len())
	}
	return d, nil
}

func (s *httpSubmitter) close() { s.conn.Close() }

// client is one closed-loop caller.
type client struct {
	id  int
	sub submitter
	rec *recorder // nil outside a measured segment
	ops int64     // operations this client has completed since set-up

	// Reads of http-mixed: how long each took (µs), and how many failed.
	statsUs, metricsUs, traceUs []float64
	readsTried, readsFailed     int64
}

// stack is one built instance of a served workload: engines, fronts and
// connected clients, all in this process over loopback sockets.
type stack struct {
	sp      spec
	in      *inputs
	tr      *tracer
	clock   *queryClock
	servers []*server.Server
	router  *router.Router
	httpSrv *http.Server
	lns     []net.Listener
	serving sync.WaitGroup
	clients []*client
	front   connCounts // the client-facing listener's traffic
	engines []*tracedEngine

	acked atomic.Int64 // queries whose reply arrived and checked out

	ckptMu     sync.Mutex
	ckptAcked  int64 // most queries acked before any checkpoint began
	ckptPath   string
	ckptFailed int64
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// buildStack constructs the engines the way cmd/cloudcached does (and the
// router the way cmd/cloudrouter does), serves them on loopback and dials
// the clients. With a tracer, the span and counting decorators are
// installed (and stay inert until the tracer is switched on); without
// one the program runs undecorated.
func buildStack(sp spec, in *inputs, tr *tracer, stateDir string, seed int64) (st *stack, err error) {
	st = &stack{sp: sp, in: in, tr: tr, clock: &queryClock{}}
	if tr != nil {
		st.front.on = &tr.on
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()

	params := scheme.DefaultParams(in.cat)
	params.Provider = sp.provider
	var backendAddrs []router.BackendConfig
	for b := 0; b < sp.backends; b++ {
		cfg := server.Config{
			Shards:           shardsPerEngine,
			Scheme:           "econ-cheap",
			Params:           params,
			Clock:            st.clock,
			Budgets:          experiments.PaperBudgetPolicy(),
			Seed:             seed,
			TraceSampleEvery: sp.traceSample,
		}
		if b == 0 {
			st.ckptPath = filepath.Join(stateDir, sp.name+".snap")
			cfg.SnapshotPath = st.ckptPath
		}
		if tr != nil {
			cfg.TraceRing = tracedRing
		}
		srv, err := server.New(cfg)
		if err != nil {
			return st, err
		}
		st.servers = append(st.servers, srv)
		if sp.http {
			continue
		}
		ln, err := listenLoopback()
		if err != nil {
			return st, err
		}
		eng := wire.ServerEngine(srv)
		if tr != nil {
			te := &tracedEngine{Engine: eng, tr: tr, kind: spBackendEngine, shards: shardsPerEngine, shardOf: server.ShardIndexFor}
			st.engines = append(st.engines, te)
			eng = te
			if sp.backends == 1 {
				ln = countingListener{ln, &st.front}
			}
		}
		st.serve(ln, func() error { return wire.ServeEngine(ln, eng) })
		backendAddrs = append(backendAddrs, router.BackendConfig{Addr: ln.Addr().String()})
	}

	var frontAddr string
	switch {
	case sp.http:
		ln, err := listenLoopback()
		if err != nil {
			return st, err
		}
		h := st.servers[0].Handler()
		if tr != nil {
			h = &tracedHandler{Handler: h, tr: tr}
			ln = countingListener{ln, &st.front}
		}
		st.httpSrv = &http.Server{Handler: h}
		st.serve(ln, func() error {
			if err := st.httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		})
		frontAddr = ln.Addr().String()
	case sp.backends > 1:
		st.router, err = router.New(router.Config{
			Backends: backendAddrs,
			Log:      slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		})
		if err != nil {
			return st, err
		}
		ln, err := listenLoopback()
		if err != nil {
			return st, err
		}
		var eng wire.Engine = st.router
		if tr != nil {
			eng = &tracedEngine{Engine: eng, tr: tr, kind: spRouterEngine}
			ln = countingListener{ln, &st.front}
		}
		st.serve(ln, func() error { return wire.ServeEngine(ln, eng) })
		frontAddr = ln.Addr().String()
	default:
		frontAddr = backendAddrs[0].Addr
	}

	for c := 0; c < clientCount; c++ {
		cl := &client{id: c}
		if sp.http {
			conn, err := net.Dial("tcp", frontAddr)
			if err != nil {
				return st, err
			}
			if tr != nil {
				tr.addrClient.Store(conn.LocalAddr().String(), c)
			}
			cl.sub = &httpSubmitter{conn: conn, br: bufio.NewReader(conn), pool: in}
		} else {
			mc, err := wire.DialMux(frontAddr)
			if err != nil {
				return st, err
			}
			cl.sub = &wireSubmitter{send: mc.Submit, stop: mc.Close, pool: in.wire, batch: sp.batch}
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

// serve runs one accept loop until its listener closes.
func (st *stack) serve(ln net.Listener, loop func() error) {
	st.lns = append(st.lns, ln)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		if err := loop(); err != nil {
			fmt.Fprintf(stderr, "benchmark: serving %s: %v\n", ln.Addr(), err)
		}
	}()
}

// close tears the stack down front to back and waits for every goroutine
// it started.
func (st *stack) close() {
	for _, c := range st.clients {
		c.sub.close()
	}
	if st.httpSrv != nil {
		st.httpSrv.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, ln := range st.lns {
		ln.Close()
	}
	st.serving.Wait()
	for _, srv := range st.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "benchmark: draining engine: %v\n", err)
		}
		cancel()
	}
}

// drive runs every client closed-loop until stop says so. stop is asked
// before each operation with the number of queries issued so far.
func (st *stack) drive(stop func(issued int64) bool) {
	var wg sync.WaitGroup
	for _, c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.loop(c, stop)
		}()
	}
	wg.Wait()
}

// loop is one client's closed loop: claim the next queries of the
// stream (which also advances the economy's clock), send them, wait,
// check, record.
func (st *stack) loop(c *client, stop func(issued int64) bool) {
	batch := int64(st.sp.batch)
	poolLen := int64(len(st.in.wire))
	for !stop(st.clock.issued.Load()) {
		first := st.clock.issued.Add(batch) - batch
		i := int(first % poolLen)
		var sp span
		if st.tr != nil && st.tr.on.Load() {
			sp = st.openClientSpan(c, i)
		}
		t0 := time.Now()
		err := c.sub.submit(i)
		lat := time.Since(t0)
		if sp.ID != 0 {
			sp.End = st.tr.now()
			st.tr.add(sp)
		}
		if err == nil {
			st.acked.Add(batch)
		} else if c.rec == nil || c.rec.failed == 0 {
			fmt.Fprintf(stderr, "benchmark: client %d: %v\n", c.id, err)
		}
		if c.rec != nil {
			c.rec.observe(lat, err)
		}
		c.ops++
		if st.sp.statsEvery > 0 {
			st.reads(c)
		}
	}
}

func (st *stack) openClientSpan(c *client, i int) span {
	tr := st.tr
	s := span{Kind: spClient, ID: tr.ids.Add(1)}
	s.Op = s.ID
	f := &tr.flights[c.id]
	f.op.Store(s.Op)
	f.span.Store(s.ID)
	f.key.Store(math.Float64bits(st.in.wire[i].Selectivity))
	s.Start = tr.now()
	return s
}

// reads is http-mixed's side traffic, issued by the same two clients on
// the same two connections at fixed operation counts.
func (st *stack) reads(c *client) {
	hs := c.sub.(*httpSubmitter)
	read := func(path string, into *[]float64) {
		d, err := hs.get(path)
		c.readsTried++
		if err != nil {
			c.readsFailed++
			fmt.Fprintf(stderr, "benchmark: client %d: %v\n", c.id, err)
			return
		}
		*into = append(*into, float64(d.Nanoseconds())/1e3)
	}
	if c.ops%st.sp.statsEvery == 0 {
		read("/v1/stats", &c.statsUs)
	}
	if c.ops%st.sp.heavyEvery == 0 {
		read("/metrics", &c.metricsUs)
		read("/v1/trace?n=64", &c.traceUs)
		c.readsTried++
		if _, err := st.checkpoint(); err != nil {
			c.readsFailed++
			fmt.Fprintf(stderr, "benchmark: client %d: checkpoint: %v\n", c.id, err)
		}
	}
}

// checkpoint has the first engine persist its state, remembering how many
// queries had been acknowledged before it began: the file must account
// for at least those.
func (st *stack) checkpoint() (time.Duration, error) {
	before := st.acked.Load()
	t0 := time.Now()
	_, _, err := st.servers[0].Checkpoint()
	d := time.Since(t0)
	st.ckptMu.Lock()
	if err != nil {
		st.ckptFailed++
	} else if before > st.ckptAcked {
		st.ckptAcked = before
	}
	st.ckptMu.Unlock()
	return d, err
}

// measure runs n windows back to back; in each the clients run
// closed-loop for windowLen. Two clients that each wait for their reply
// carry no backlog from one window into the next.
func (st *stack) measure(n int) *segment {
	seg := &segment{}
	seg.begin()
	acked0 := st.acked.Load()
	recs := make([]recorder, len(st.clients))
	for w := 0; w < n; w++ {
		for i, c := range st.clients {
			recs[i].lat = recs[i].lat[:0]
			c.rec = &recs[i]
		}
		cpu0, start := cpuTime(), time.Now()
		deadline := start.Add(windowLen)
		st.drive(func(int64) bool { return !time.Now().Before(deadline) })
		win := window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
		for i := range recs {
			win.lat = append(win.lat, recs[i].lat...)
		}
		slices.Sort(win.lat)
		win.ops = len(win.lat)
		seg.windows = append(seg.windows, win)
	}
	for i, c := range st.clients {
		seg.failed += recs[i].failed
		c.rec = nil
	}
	seg.queries = st.acked.Load() - acked0
	seg.end()
	return seg
}

// decided sums the engines' own count of decided queries.
func (st *stack) decided() (queries, errs int64) {
	for _, srv := range st.servers {
		s := srv.Stats()
		queries += s.Queries
		errs += s.Errors
	}
	return queries, errs
}

// verify is the output check of a served run, made after the clients
// stopped: every query sent was answered and acknowledged, the engines
// decided exactly the queries sent, and a checkpoint loaded from disk
// accounts for every query acknowledged before it began.
func (st *stack) verify() []string {
	var bad []string
	issued := st.clock.issued.Load()
	if acked := st.acked.Load(); acked != issued {
		bad = append(bad, fmt.Sprintf("replies: %d queries acknowledged of %d sent", acked, issued))
	}
	if q, errs := st.decided(); q != issued || errs != 0 {
		bad = append(bad, fmt.Sprintf("Stats: engines decided %d queries with %d errors, %d sent", q, errs, issued))
	}
	if _, err := st.checkpoint(); err != nil {
		return append(bad, fmt.Sprintf("checkpoint: %v", err))
	}
	snap, err := persist.Load(st.ckptPath)
	if err != nil {
		return append(bad, fmt.Sprintf("checkpoint: loading %s: %v", st.ckptPath, err))
	}
	// Behind a router the first engine decides only its own shards.
	want := st.ckptAcked
	if st.router != nil {
		want = st.servers[0].Stats().Queries
	}
	if st.ckptFailed > 0 || snap.NextID < want {
		bad = append(bad, fmt.Sprintf("checkpoint: NextID %d, %d queries acknowledged before it began, %d checkpoints failed", snap.NextID, want, st.ckptFailed))
	}
	return bad
}
