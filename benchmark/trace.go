package main

import (
	"cmp"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/optimizer"
	"repro/internal/scheme"
	"repro/internal/server/wire"
	"repro/internal/workload"
)

// The harness traces the program from outside: it decorates the public
// interfaces the layers already talk through (wire.Engine, http.Handler,
// net.Listener, scheme.Scheme, workload.Source) and times direct calls
// into public functions. Nothing inside the program is touched. Spans
// stay in memory until the run ends.

// Span kinds. The name is what the span file shows.
const (
	spClient = iota
	spRouterEngine
	spBackendEngine
	spHTTPHandler
	spSimCell
	spSourceBatch
	spSchemeHandle
	spEnumerate
	spDirect // a direct timed call; Detail says which
	spKinds
)

var spanNames = [spKinds]string{
	"client", "router.engine", "backend.engine", "http.handler",
	"sim.cell", "workload.batch", "scheme.handle", "optimizer.enumerate", "direct",
}

type span struct {
	Kind   uint8
	ID     int64
	Parent int64
	Op     int64 // the client operation (or sim cell) the span belongs to
	Start  int64 // ns since the tracer's epoch
	End    int64
	Detail string
}

// maxSpans caps the spans kept for the span file; the per-kind totals
// below keep counting past it, so layer metrics cover the whole run.
const maxSpans = 1 << 18

// flight is one client's operation in progress: what a decorator on the
// far side of a socket needs to attach its span to the right parent. The
// wire protocol carries no trace context, so wire decorators recognise
// an operation by the selectivity of its first query (unique in the
// pool); the HTTP decorator by the connection's remote address.
type flight struct {
	key  atomic.Uint64 // math.Float64bits of the op's first selectivity
	op   atomic.Int64
	span atomic.Int64 // innermost harness span open for the op
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	full  atomic.Bool // the span file's cap is reached
	ids   atomic.Int64

	flights    [2]flight
	addrClient sync.Map // client conn local address → client index

	mu      sync.Mutex
	spans   []span
	dropped int64
	count   [spKinds]int64
	sum     [spKinds]int64   // total duration, ns
	durs    [spKinds][]int64 // every duration, for medians
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.count[s.Kind]++
	t.sum[s.Kind] += s.End - s.Start
	if s.Kind != spDirect {
		t.durs[s.Kind] = append(t.durs[s.Kind], s.End-s.Start)
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
		t.full.Store(true)
	}
	t.mu.Unlock()
}

// direct times one direct call into a public function of a layer.
func (t *tracer) direct(detail string, fn func() error) (time.Duration, error) {
	start := t.now()
	err := fn()
	end := t.now()
	t.add(span{Kind: spDirect, ID: t.ids.Add(1), Start: start, End: end, Detail: detail})
	return time.Duration(end - start), err
}

func (t *tracer) meanNs(kind int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count[kind] == 0 {
		return 0
	}
	return float64(t.sum[kind]) / float64(t.count[kind])
}

func (t *tracer) medianNs(kind int) float64 {
	t.mu.Lock()
	d := append([]int64(nil), t.durs[kind]...)
	t.mu.Unlock()
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return median(v)
}

// selfTimes walks the kept spans as a tree. A span's self time is its
// duration minus the part of it that its child spans cover (children may
// overlap one another: parallel backend frames cover their union, not
// their sum). It returns, per kind, the mean self time and the mean
// duration of the kept spans.
func (t *tracer) selfTimes() (self, dur [spKinds]float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var n [spKinds]float64
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var cover int64
		edge := s.Start
		for _, k := range kids {
			from, to := max(k[0], edge), min(k[1], s.End)
			if to > from {
				cover += to - from
				edge = to
			}
		}
		n[s.Kind]++
		self[s.Kind] += float64(s.End - s.Start - cover)
		dur[s.Kind] += float64(s.End - s.Start)
	}
	for k := range n {
		if n[k] > 0 {
			self[k] /= n[k]
			dur[k] /= n[k]
		}
	}
	return self, dur
}

func (t *tracer) calls(kind int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[kind]
}

// flightOf finds the client operation whose first query has this
// selectivity.
func (t *tracer) flightOf(selectivity float64) *flight {
	key := math.Float64bits(selectivity)
	for i := range t.flights {
		if t.flights[i].key.Load() == key {
			return &t.flights[i]
		}
	}
	return nil
}

// spanFile is the JSON written next to the results of a traced run.
type spanFile struct {
	Workload string     `json:"workload"`
	Kept     int        `json:"spans_kept"`
	Dropped  int64      `json:"spans_dropped"`
	Spans    []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Op      int64  `json:"op,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (t *tracer) writeFile(path, workloadName string) error {
	t.mu.Lock()
	out := spanFile{Workload: workloadName, Kept: len(t.spans), Dropped: t.dropped, Spans: make([]spanJSON, len(t.spans))}
	for i, s := range t.spans {
		name := spanNames[s.Kind]
		if s.Kind == spDirect {
			name = s.Detail
		}
		out.Spans[i] = spanJSON{Name: name, ID: s.ID, Parent: s.Parent, Op: s.Op, StartNs: s.Start, EndNs: s.End}
	}
	t.mu.Unlock()
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- wire.Engine ------------------------------------------------------------

// tracedEngine records one span per batch an engine decides. Every other
// Engine method passes through the embedded interface.
type tracedEngine struct {
	wire.Engine
	tr   *tracer
	kind uint8
	// shards, when nonzero, makes the decorator count how many shard
	// groups each batch splits into (the queries one shard decides in
	// sequence are a batch's blocking path).
	groups, queries atomic.Int64
	shards          int
	shardOf         func(tenant, template string, shards int) int
}

func (e *tracedEngine) open(qs []wire.Query) (span, bool) {
	if !e.tr.on.Load() {
		return span{}, false
	}
	s := span{Kind: e.kind, ID: e.tr.ids.Add(1)}
	if f := e.tr.flightOf(qs[0].Selectivity); f != nil {
		s.Op, s.Parent = f.op.Load(), f.span.Load()
		if e.kind == spRouterEngine {
			f.span.Store(s.ID) // backend spans hang under the router's
		}
	}
	if e.shards > 0 {
		var seen uint64
		for i := range qs {
			seen |= 1 << uint(e.shardOf(qs[i].Tenant, qs[i].Template, e.shards))
		}
		n := int64(0)
		for ; seen != 0; seen &= seen - 1 {
			n++
		}
		e.groups.Add(n)
		e.queries.Add(int64(len(qs)))
	}
	s.Start = e.tr.now()
	return s, true
}

func (e *tracedEngine) SubmitBatch(ctx context.Context, qs []wire.Query, decodeNanos int64) ([]wire.Reply, error) {
	s, on := e.open(qs)
	rs, err := e.Engine.SubmitBatch(ctx, qs, decodeNanos)
	if on {
		s.End = e.tr.now()
		e.tr.add(s)
	}
	return rs, err
}

func (e *tracedEngine) SubmitBatchAsync(ctx context.Context, qs []wire.Query, decodeNanos int64, done func([]wire.Reply)) error {
	s, on := e.open(qs)
	if !on {
		return e.Engine.SubmitBatchAsync(ctx, qs, decodeNanos, done)
	}
	return e.Engine.SubmitBatchAsync(ctx, qs, decodeNanos, func(rs []wire.Reply) {
		s.End = e.tr.now()
		e.tr.add(s)
		done(rs)
	})
}

// --- http.Handler -----------------------------------------------------------

type tracedHandler struct {
	http.Handler
	tr *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() || r.URL.Path != "/v1/query" {
		h.Handler.ServeHTTP(w, r)
		return
	}
	s := span{Kind: spHTTPHandler, ID: h.tr.ids.Add(1)}
	if c, ok := h.tr.addrClient.Load(r.RemoteAddr); ok {
		f := &h.tr.flights[c.(int)]
		s.Op, s.Parent = f.op.Load(), f.span.Load()
	}
	s.Start = h.tr.now()
	h.Handler.ServeHTTP(w, r)
	s.End = h.tr.now()
	h.tr.add(s)
}

// --- net.Listener / net.Conn ------------------------------------------------

// connCounts is what a front's connections read and wrote while tracing
// was on, counted on the server's side of the socket.
type connCounts struct {
	on                   *atomic.Bool
	reads, writes, bytes atomic.Int64
}

type countingListener struct {
	net.Listener
	c *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.c.on.Load() {
		c.c.reads.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && c.c.on.Load() {
		c.c.writes.Add(1)
		c.c.bytes.Add(int64(n))
	}
	return n, err
}

// --- scheme.Scheme and workload.Source (the simulator's two inputs) ---------

// tracedScheme times every HandleQuery and, before it, a shadow
// Optimizer.Enumerate against the scheme's live cache: the scheme runs
// its own enumeration inside HandleQuery where no decorator can see it,
// so an identically configured optimizer prices the same query against
// the same cache state from outside.
type tracedScheme struct {
	scheme.Scheme
	tr     *tracer
	shadow *optimizer.Optimizer // nil for bypass, which enumerates nothing
	cell   int64                // the cell's span, parent of everything here

	queries, plans      int64
	enumNanos, handleNs int64
}

func (s *tracedScheme) HandleQuery(q *workload.Query) (scheme.Result, error) {
	t0 := s.tr.now()
	if s.shadow != nil {
		plans, err := s.shadow.Enumerate(q, s.Cache())
		if err != nil {
			return scheme.Result{}, err
		}
		s.plans += int64(len(plans))
	}
	t1 := s.tr.now()
	r, err := s.Scheme.HandleQuery(q)
	t2 := s.tr.now()
	s.queries++
	s.enumNanos += t1 - t0
	s.handleNs += t2 - t1
	// Per-query spans are for the span file only (the totals above feed
	// the metrics), so they stop costing once the file is full.
	if !s.tr.full.Load() {
		if s.shadow != nil {
			s.tr.add(span{Kind: spEnumerate, ID: s.tr.ids.Add(1), Parent: s.cell, Op: s.cell, Start: t0, End: t1})
		}
		s.tr.add(span{Kind: spSchemeHandle, ID: s.tr.ids.Add(1), Parent: s.cell, Op: s.cell, Start: t1, End: t2})
	}
	return r, err
}

// tracedSource times the generator. sim.Run calls it from its producer
// goroutine, ahead of settlement, so this time overlaps the scheme's.
type tracedSource struct {
	workload.Source
	tr      *tracer
	cell    int64
	nanos   int64
	queries int64
}

func (s *tracedSource) Batch(n int, buf []*workload.Query) []*workload.Query {
	t0 := s.tr.now()
	buf = s.Source.Batch(n, buf)
	t1 := s.tr.now()
	s.nanos += t1 - t0
	s.queries += int64(n)
	if !s.tr.full.Load() {
		s.tr.add(span{Kind: spSourceBatch, ID: s.tr.ids.Add(1), Parent: s.cell, Op: s.cell, Start: t0, End: t1})
	}
	return buf
}
