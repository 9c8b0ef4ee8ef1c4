// Package server is the online serving layer over the paper's cache
// economy: where package sim replays a synthetic stream through one
// single-threaded scheme, Server admits concurrent live queries against N
// independent economy shards.
//
// Each shard owns a complete scheme instance — cache, account, regret
// ledger — behind one lock, so the paper's single-owner economy
// invariants hold per shard. The lock serializes, the mailbox queues: a
// query, or a batch's group of queries for one shard, that finds its
// shard idle (nothing queued, lock free) is decided right where it is, on
// its caller's goroutine — Submit, SubmitBatchAsync, the HTTP handler and
// the wire front's connection reader all run it to completion without a
// hand-off — while work that finds its shard busy waits in the shard's
// mailbox for its loop goroutine, which decides a whole drain under one
// acquisition. Queries route to shards by tenant (or template when no
// tenant is given), keeping each tenant's regret and
// amortization history together. A shared Clock (wall, accelerated, or
// virtual) drives rent and uptime accrual: a ticker integrates storage
// and node rent through idle periods and completes due builds, mirroring
// the discrete-event simulator's accounting on live time.
//
// Shutdown drains gracefully: no accepted query goes unanswered, and tail
// rent is charged through the last promised completion exactly as
// sim.Run's end-of-run accounting does.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/workload"
)

// ErrServerClosed is returned by Submit after Shutdown has begun.
var ErrServerClosed = errors.New("server: closed")

// ErrUnknownTemplate is returned for queries naming no known template.
var ErrUnknownTemplate = errors.New("server: unknown template")

// Request is one live query submission.
type Request struct {
	// Tenant routes the query to a shard; all queries of a tenant share
	// one economy. Empty tenants route by template instead.
	Tenant string
	// Template names a query template (e.g. "Q6"). Required.
	Template string
	// Selectivity is the region fraction scanned. Zero with
	// HasSelectivity unset means "not specified": the shard draws one
	// from the template's range with its deterministic RNG. Any other
	// value — including an explicit zero, marked by HasSelectivity —
	// clamps to the template's [SelMin, SelMax].
	Selectivity float64
	// HasSelectivity distinguishes an explicitly requested selectivity
	// of 0 from the unset zero value. Non-zero selectivities need not
	// set it.
	HasSelectivity bool
	// Budget is the user's B_Q(t); nil applies the server's default
	// budget policy.
	Budget budget.Func
	// DecodeNanos is the front's per-query share of the frame decode that
	// produced this request — observability only, carried into the
	// query's decision trace when it is sampled. Zero for in-process
	// submissions.
	DecodeNanos int64
}

// Response reports how the economy answered one query.
type Response struct {
	QueryID         int64   `json:"query_id"`
	Shard           int     `json:"shard"`
	Template        string  `json:"template"`
	Selectivity     float64 `json:"selectivity"`
	ArrivalSec      float64 `json:"arrival_s"`
	Declined        bool    `json:"declined"`
	Location        string  `json:"location"`
	ResponseTimeSec float64 `json:"response_time_s"`
	ChargedUSD      float64 `json:"charged_usd"`
	ProfitUSD       float64 `json:"profit_usd"`
	Investments     int     `json:"investments"`
	Failures        int     `json:"failures"`

	// TraceSeq, together with Shard, names this query's decision-trace
	// record when it was sampled (0 otherwise). In-process only: fronts
	// use it to back-fill the encode-stage latency after the reply is on
	// the wire; it is not part of the JSON surface.
	TraceSeq int64 `json:"-"`
}

// Config parameterises a Server.
type Config struct {
	// Shards is the number of independent economy shards. Default 4.
	Shards int
	// Scheme names the caching scheme each shard runs ("bypass",
	// "econ-col", "econ-cheap", "econ-fast"). Default "econ-cheap".
	Scheme string
	// Params calibrates the schemes. Params.Catalog is required.
	Params scheme.Params
	// Clock drives arrival stamps and rent accrual. Default wall time.
	Clock Clock
	// Accounting prices true expenditure in stats. Default EC22008.
	Accounting *pricing.Schedule
	// Budgets is the default budget policy for requests without an
	// explicit budget. Default workload.DefaultScaledPolicy.
	Budgets workload.BudgetPolicy
	// Templates is the admissible template pool. Default PaperTemplates.
	Templates []*workload.Template
	// TickEvery is the housekeeping cadence: how often idle shards
	// accrue rent and complete due builds. 0 disables the ticker (tests
	// with a VirtualClock call Housekeep explicitly). Default 1s when
	// Clock is nil or a WallClock, else 0.
	TickEvery time.Duration
	// MailboxDepth bounds each shard's admission queue. Default 256.
	MailboxDepth int
	// DecideDelay, when set, is called with the shard id at the start of
	// every mailbox drain, before the shard takes its lock — and sends
	// every submission through the mailbox, idle shard or not, so the hook
	// sees them all. A test hook: out-of-order completion tests install
	// randomized per-shard sleeps here to scramble which shard group of a
	// pipelined batch finishes first, and a no-op hook is the forced-
	// mailbox arm of the inline/mailbox differential test. Nil (the
	// default) costs one predicted branch per decision.
	DecideDelay func(shard int)
	// Seed derives each shard's deterministic RNG. Default 1.
	Seed int64
	// SnapshotPath, when set, is where the engine persists its economy
	// state: atomically on graceful drain, on every Checkpoint call, and
	// on the periodic checkpoint ticker.
	SnapshotPath string
	// CheckpointEvery is the periodic checkpoint cadence. 0 disables the
	// ticker; drain and on-demand Checkpoint still write. Requires
	// SnapshotPath.
	CheckpointEvery time.Duration
	// Restore is a previously persisted snapshot to adopt before serving
	// begins. Scheme, provider, shard count and catalog must match the
	// rest of this config; a mismatch fails New rather than silently
	// dropping state.
	Restore *persist.Snapshot
	// TraceRing is the per-shard decision-trace ring capacity: 0 takes
	// obs.DefaultRing, negative disables the tracer entirely (not even
	// the sample-gate load is paid — the benchmark baseline).
	TraceRing int
	// TraceSampleEvery is the initial trace sampling period: 0 off,
	// 1 every query, N one in N. Adjustable at runtime through
	// Tracer().SetSampleEvery; with sampling off the decide loop pays a
	// single atomic load per query.
	TraceSampleEvery int64
	// JournalRing bounds each shard's per-event-type economy journal
	// rings. 0 takes obs.DefaultJournalRing.
	JournalRing int
}

// Server is the concurrent serving engine.
type Server struct {
	cfg        Config
	catalog    *catalog.Catalog
	accounting *pricing.Schedule
	budgets    workload.BudgetPolicy
	// stepBudgets is budgets' allocation-free fast path when the policy
	// implements it (the default step-shaped policies do); nil otherwise.
	stepBudgets workload.StepBudgeter
	templates   map[string]*workload.Template
	clock       Clock
	shards      []*shard
	nextID      atomic.Int64

	// replyPool recycles Submit's buffered reply channels. A channel is
	// returned to the pool only after its reply was received, so a pooled
	// channel is always empty; abandoned waits (ctx cancellation) leave
	// their channel to the garbage collector instead.
	replyPool sync.Pool
	// batchCalls recycles SubmitBatchAsync's per-call buffers (batchCall).
	batchCalls sync.Pool

	// epoch anchors the monotone nanosecond scale behind mailbox-wait
	// measurement and trace wall stamps (real time, independent of the
	// economy clock's acceleration).
	epoch time.Time
	// tracer collects sampled decision traces; nil when Config.TraceRing
	// is negative.
	tracer *obs.Tracer
	// journals hold each shard's economy event log; eventSeq is the
	// global order all of them share.
	journals []*obs.Journal
	eventSeq atomic.Int64

	mu       sync.Mutex
	closed   bool
	submitWG sync.WaitGroup

	// migrating counts in-progress shard transfers (extract or install);
	// /readyz reports "migrating" while it is nonzero.
	migrating atomic.Int32

	tickStop chan struct{}
	tickDone chan struct{}

	ckptStop chan struct{}
	ckptDone chan struct{}
	// snapMu serializes snapshot writes (checkpoints, ticker, drain), so
	// the drain's final write is always the last one on disk.
	snapMu sync.Mutex

	shutdownOnce sync.Once
	drained      chan struct{}
}

// New validates the config, builds the shards and starts their loops.
func New(cfg Config) (*Server, error) {
	if cfg.Params.Catalog == nil {
		return nil, fmt.Errorf("server: Params.Catalog is required")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("server: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "econ-cheap"
	}
	wallClock := false
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock(1)
		wallClock = true
	} else if _, ok := cfg.Clock.(*WallClock); ok {
		wallClock = true
	}
	if cfg.TickEvery == 0 && wallClock {
		cfg.TickEvery = time.Second
	}
	if cfg.TickEvery < 0 {
		cfg.TickEvery = 0
	}
	if cfg.Accounting == nil {
		cfg.Accounting = pricing.EC22008()
	}
	if err := cfg.Accounting.Validate(); err != nil {
		return nil, err
	}
	if cfg.Budgets == nil {
		cfg.Budgets = workload.DefaultScaledPolicy()
	}
	if len(cfg.Templates) == 0 {
		cfg.Templates = workload.PaperTemplates()
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 256
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	srv := &Server{
		cfg:        cfg,
		catalog:    cfg.Params.Catalog,
		accounting: cfg.Accounting,
		budgets:    cfg.Budgets,
		templates:  make(map[string]*workload.Template, len(cfg.Templates)),
		clock:      cfg.Clock,
		epoch:      time.Now(),
	}
	if sb, ok := cfg.Budgets.(workload.StepBudgeter); ok {
		srv.stepBudgets = sb
	}
	if cfg.TraceRing >= 0 {
		srv.tracer = obs.NewTracer(cfg.Shards, cfg.TraceRing, cfg.TraceSampleEvery)
	}
	for _, t := range cfg.Templates {
		// Validate also memoizes the template's group size, so the
		// per-query sizing path is read-only and race-free afterwards.
		if err := t.Validate(srv.catalog); err != nil {
			return nil, err
		}
		if _, dup := srv.templates[t.Name]; dup {
			return nil, fmt.Errorf("server: duplicate template %q", t.Name)
		}
		srv.templates[t.Name] = t
	}

	if cfg.CheckpointEvery > 0 && cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("server: CheckpointEvery requires SnapshotPath")
	}

	srv.shards = make([]*shard, cfg.Shards)
	srv.batchCalls.New = func() any {
		return &batchCall{srv: srv, offs: make([]int, cfg.Shards), counts: make([]int, cfg.Shards)}
	}
	srv.journals = make([]*obs.Journal, cfg.Shards)
	for i := range srv.shards {
		sch, err := scheme.New(cfg.Scheme, cfg.Params)
		if err != nil {
			return nil, err
		}
		srv.shards[i] = newShard(i, srv, sch, shardSeed(cfg.Seed, i), cfg.MailboxDepth)
		// Each shard journals its economy's events; emission happens on
		// the shard's serialized decision path, and restore mutates the
		// scheme in place, so the sink survives snapshot adoption.
		srv.journals[i] = obs.NewJournal(i, cfg.JournalRing, &srv.eventSeq)
		if es, ok := sch.(interface{ SetEvents(func(obs.Event)) }); ok {
			es.SetEvents(srv.journals[i].Emit)
		}
	}
	// Adopt persisted state before any loop starts: restore is
	// all-or-nothing, so a failed restore leaves no half-built server.
	if cfg.Restore != nil {
		if err := srv.restore(cfg.Restore); err != nil {
			return nil, err
		}
	}
	for _, sh := range srv.shards {
		go sh.loop()
	}
	if cfg.TickEvery > 0 {
		srv.tickStop = make(chan struct{})
		srv.tickDone = make(chan struct{})
		go srv.runTicker(cfg.TickEvery)
	}
	if cfg.SnapshotPath != "" && cfg.CheckpointEvery > 0 {
		srv.ckptStop = make(chan struct{})
		srv.ckptDone = make(chan struct{})
		go srv.runCheckpointer(cfg.CheckpointEvery)
	}
	return srv, nil
}

// shardSeed decorrelates the per-shard RNG streams.
func shardSeed(base int64, shard int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", base, shard)
	return int64(h.Sum64())
}

// runTicker fans housekeeping ticks out to every shard. Sends are
// non-blocking into capacity-1 channels, so a busy shard coalesces ticks
// instead of queueing them.
func (s *Server) runTicker(every time.Duration) {
	defer close(s.tickDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			for _, sh := range s.shards {
				select {
				case sh.tick <- struct{}{}:
				default:
				}
			}
		case <-s.tickStop:
			return
		}
	}
}

// ShardCount returns the number of shards.
func (s *Server) ShardCount() int { return len(s.shards) }

// nanos is the server's monotone nanosecond scale (real time since
// construction): mailbox-wait stamps and trace wall stamps share it.
func (s *Server) nanos() int64 { return int64(time.Since(s.epoch)) }

// Tracer exposes the decision-trace collector for runtime control
// (sampling knobs) and exposition. Nil when Config.TraceRing < 0.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// TraceSnapshot returns up to n of the most recent sampled decision
// traces matching the tenant/template filters ("" matches everything).
// Empty when tracing is disabled.
func (s *Server) TraceSnapshot(tenant, template string, n int) []obs.Record {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Snapshot(tenant, template, n)
}

// EventsSnapshot returns up to n of the most recent retained economy
// events matching the type/tenant filters (""s match everything),
// merged across shards in global sequence order.
func (s *Server) EventsSnapshot(typ, tenant string, n int) []obs.Event {
	parts := make([][]obs.Event, len(s.journals))
	for i, j := range s.journals {
		parts[i] = j.Snapshot(typ, tenant, 0)
	}
	return obs.MergeEvents(n, parts...)
}

// EventsSince returns every retained economy event with Seq > seq in
// global order — the cursor walk the wire event stream uses between
// pushes.
func (s *Server) EventsSince(seq int64) []obs.Event {
	parts := make([][]obs.Event, len(s.journals))
	for i, j := range s.journals {
		parts[i] = j.Snapshot("", "", seq)
	}
	return obs.MergeEvents(0, parts...)
}

// EventTotals sums the journals' exact lifetime totals across shards.
// Ring-capacity independent: these reconcile against ledger totals even
// after old events rotate out. Recovers and Recovered stay zero: a
// settlement's recovery is counted by its economy, not journaled (see
// RecoverTotals).
func (s *Server) EventTotals() obs.Totals {
	var t obs.Totals
	for _, j := range s.journals {
		t.Add(j.Totals())
	}
	return t
}

// RecoverTotals sums the shards' settlement recovery totals — each
// economy's settlement count and its ledgers' recovered dollars, so the
// dollars are /v1/stats' and follow a migrated shard's economy as its
// stats do: the Recovers and Recovered that EventTotals leaves zero.
func (s *Server) RecoverTotals() obs.Totals {
	var t obs.Totals
	for _, sh := range s.shards {
		t.Add(sh.recoveries())
	}
	return t
}

// economyTotals is what /metrics and the events views report: the
// journals' totals with the recover totals filled in.
func (s *Server) economyTotals() obs.Totals {
	t := s.EventTotals()
	t.Add(s.RecoverTotals())
	return t
}

// CheckEventType validates an events filter: "" (every type) or one of
// the journaled types. Settlement recovery is not journaled — its totals
// ride every events view — so "recover" is refused rather than answered
// with an empty list.
func CheckEventType(typ string) error {
	switch typ {
	case "", obs.EventInvest, obs.EventEvict:
		return nil
	}
	return fmt.Errorf("type: want %q or %q, got %q", obs.EventInvest, obs.EventEvict, typ)
}

// Clock returns the server's clock.
func (s *Server) Clock() Clock { return s.clock }

// ShardIndex returns the shard a request routes to: by tenant when set,
// else by template, hashed stably so a tenant's whole history lands on
// one economy.
func (s *Server) ShardIndex(req Request) int {
	return ShardIndexFor(req.Tenant, req.Template, len(s.shards))
}

// ShardIndexFor is the routing hash itself, exported so a cluster front
// can compute the same shard a backend would — every process in a
// cluster MUST agree on this function and on the shard count, or
// traffic lands on disowned slots.
func ShardIndexFor(tenant, template string, shards int) int {
	key := tenant
	if key == "" {
		key = template
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}

// admit registers one submission with the drain: it fails once Shutdown
// has begun, and otherwise holds submitWG — which the caller releases once
// each of its queries is decided inline or enqueued — so drain
// closes the mailboxes, and finalize runs, only after every accepted
// query is decided or queued.
func (s *Server) admit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	s.submitWG.Add(1)
	return nil
}

// Submit routes the query to its shard, waits for the economy's answer
// and returns it. Safe for arbitrary concurrency. After Shutdown begins
// it returns ErrServerClosed; a query accepted before that is always
// answered, even if Shutdown is already in progress.
//
// An idle shard decides the query right here, on the caller's goroutine;
// only a busy one costs a mailbox message and a wait on a pooled reply
// channel. Either way a query allocates nothing. POST /v1/query (the
// http-mixed benchmark workload) and the in-process bench cells ride
// this path; SubmitBatchAsync follows the same rule per shard group
// (shard.tryInline, shard.enqueue).
func (s *Server) Submit(ctx context.Context, req Request) (Response, error) {
	if err := s.admit(); err != nil {
		return Response{}, err
	}
	defer s.submitWG.Done()

	sh := s.shards[s.ShardIndex(req)]
	if r, ok := sh.tryDecide(req); ok {
		return r.Resp, r.Err
	}
	reply, _ := s.replyPool.Get().(chan BatchItem)
	if reply == nil {
		reply = make(chan BatchItem, 1)
	}
	if err := sh.enqueue(ctx, shardMsg{req: req, reply: reply, enq: s.nanos()}); err != nil {
		s.replyPool.Put(reply) // never enqueued; still empty
		return Response{}, err
	}
	// The shard always answers (the loop drains its mailbox before
	// exiting), so an abandoned wait leaks nothing: the reply channel is
	// buffered — but only a channel whose reply was consumed may return
	// to the pool.
	select {
	case r := <-reply:
		s.replyPool.Put(reply)
		return r.Resp, r.Err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// BatchItem is one positional result of SubmitBatch: the economy's
// answer to the request at the same index, or the per-request error that
// prevented one (e.g. an unknown template). It is also the shard's answer
// to any one submission, so one type travels from the decision to the
// caller.
type BatchItem struct {
	Resp Response
	Err  error
}

// SubmitBatch submits many queries in one call and waits for all of them:
// SubmitBatchAsync plus a wait, so a batch is carved, decided and answered
// by exactly one path whether or not the caller blocks. Requests are
// grouped by destination shard and each group is decided under one lock
// acquisition — inline on an idle shard, else as a single mailbox
// message — amortizing lock acquisitions, clock reads and channel sends
// across the group. Within a shard, requests are decided in
// slice order with one shared arrival stamp, so results are
// deterministic given the shard's prior state. The returned slice aligns
// positionally with reqs and is the caller's to keep; per-request
// failures land in BatchItem.Err while the call-level error reports only
// whole-batch conditions (ErrServerClosed, ctx cancellation). The
// graceful-drain guarantee of Submit holds: an accepted batch is always
// fully answered. An empty batch is a no-op.
func (s *Server) SubmitBatch(ctx context.Context, reqs []Request) ([]BatchItem, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	return AwaitBatch(ctx, func(done func([]BatchItem)) error { return s.SubmitBatchAsync(ctx, reqs, done) })
}

// AwaitBatch is the blocking form of an asynchronous batch primitive:
// submit hands done to it, and AwaitBatch waits for done to fire. The
// completion lends its slice, so the copy taken inside it is what
// AwaitBatch returns, the caller's to keep. If ctx dies first the
// accepted batch is still decided and its buffered completion dropped —
// same semantics as an abandoned Submit.
func AwaitBatch[T any](ctx context.Context, submit func(done func([]T)) error) ([]T, error) {
	ch := make(chan []T, 1)
	if err := submit(func(items []T) { ch <- slices.Clone(items) }); err != nil {
		return nil, err
	}
	select {
	case items := <-ch:
		return items, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// batchCall is one multi-request SubmitBatchAsync call: the requests
// grouped by destination shard (shard k's group is reqs[offs[k] :
// offs[k]+counts[k]], submission order preserved, and pos holds each
// one's position in the caller's batch) and the positional items the
// shards fill in place. Calls are pooled per server, so once the pool is
// warm a batch of any size allocates nothing here.
//
// pending counts the queued groups still deciding plus one for the
// submitting loop, which reads counts and offs until its last group is
// placed: the call is answered and recycled only once the last group AND
// that loop are done with it.
type batchCall struct {
	srv     *Server
	reqs    []Request
	pos     []int
	items   []BatchItem
	offs    []int
	counts  []int
	pending atomic.Int32
	done    func([]BatchItem)
}

// Resize returns b with length n, reusing its capacity.
func Resize[T any](b []T, n int) []T { return slices.Grow(b[:0], n)[:n] }

// carve groups reqs by destination shard into the call's buffers.
func (c *batchCall) carve(reqs []Request) {
	n := len(reqs)
	c.reqs, c.pos, c.items = Resize(c.reqs, n), Resize(c.pos, n), Resize(c.items, n)
	clear(c.counts)
	for i := range reqs {
		k := c.srv.ShardIndex(reqs[i])
		c.counts[k]++
	}
	off := 0
	for k, cnt := range c.counts {
		off += cnt
		c.offs[k] = off
	}
	// Fill each group from its end, backwards, leaving offs at its start.
	for i := n - 1; i >= 0; i-- {
		k := c.srv.ShardIndex(reqs[i])
		c.offs[k]--
		c.reqs[c.offs[k]], c.pos[c.offs[k]] = reqs[i], i
	}
}

// release drops one count of pending. The last answers the call — done
// borrows items, which stay valid until it returns — and recycles it.
func (c *batchCall) release() {
	if c.pending.Add(-1) != 0 {
		return
	}
	c.done(c.items)
	clear(c.reqs) // the pool must not pin the strings and budgets
	c.done = nil
	c.srv.batchCalls.Put(c)
}

// SubmitBatchAsync is the batch primitive: requests are grouped by
// destination shard — submission order preserved within each group, one
// shared arrival stamp per group — and each group follows Submit's rule.
// A group whose shard is idle (nothing queued, lock free) is decided right
// here, on the caller's goroutine; a group whose shard is busy is enqueued
// as one mailbox message. The call returns as soon as every group is
// decided or enqueued, and done is invoked exactly once with the
// positional items when the last group finishes. This is what lets a
// pipelined listener accept new frames while prior batches are still
// deciding: batches complete out of order as their queued groups drain.
//
// done's slice is lent, not given: it is valid only until done returns,
// after which the server reuses it for another batch. A consumer encodes
// or copies inside done, as SubmitBatch does.
//
// done runs on the caller's goroutine, before SubmitBatchAsync returns,
// when every group was decided inline or finished before the last was
// placed — a batch on idle shards is read, decided and answered by one
// goroutine — and otherwise on the shard goroutine that completed the
// final group. It must be quick and must not call back into the server's
// snapshot paths (Stats, Structures); hand heavy work to another
// goroutine. It never runs under a shard lock. On a non-nil error
// (ErrServerClosed, ctx cancellation mid-enqueue) done is never invoked;
// groups already decided or enqueued keep their results, which are
// discarded. reqs is copied before anything is decided: the caller may
// reuse it once the call returns or done fires.
func (s *Server) SubmitBatchAsync(ctx context.Context, reqs []Request, done func([]BatchItem)) error {
	if len(reqs) == 0 {
		return fmt.Errorf("server: empty batch")
	}
	if err := s.admit(); err != nil {
		return err
	}
	defer s.submitWG.Done()

	c := s.batchCalls.Get().(*batchCall)
	c.done = done
	c.carve(reqs)
	// The placing loop holds one count of pending, and each queued group
	// adds its own before its send, so a group that completes while later
	// groups are still being placed cannot see a premature zero.
	c.pending.Store(1)
	for k, cnt := range c.counts {
		if cnt == 0 {
			continue
		}
		sh := s.shards[k]
		if sh.tryDecideGroup(c) {
			continue
		}
		// Sends may block on a full mailbox, but the shard loops drain
		// independently of this goroutine, so sequential sends cannot
		// deadlock. An unsent group keeps pending above zero forever: done
		// never fires after an error return, and the call is left to the
		// garbage collector instead of recycled under groups still deciding.
		c.pending.Add(1)
		if err := sh.enqueue(ctx, shardMsg{call: c, enq: s.nanos()}); err != nil {
			return err
		}
	}
	c.release()
	return nil
}

// Housekeep synchronously accrues rent and completes due builds on every
// shard. The ticker calls the same path on wall clocks; virtual-clock
// tests call it after Advance to make accrual deterministic.
func (s *Server) Housekeep() {
	for _, sh := range s.shards {
		sh.housekeep()
	}
}

// Stats snapshots live metrics across all shards.
func (s *Server) Stats() Stats {
	agg := Stats{
		Scheme:   s.cfg.Scheme,
		Provider: s.cfg.Params.Provider.String(),
		Shards:   len(s.shards),
	}
	s.mu.Lock()
	agg.Draining = s.closed
	s.mu.Unlock()
	for _, sh := range s.shards {
		agg.PerShard = append(agg.PerShard, sh.snapshot())
	}
	agg.Aggregate()
	return agg
}

// Aggregate fills a fresh Stats' cluster-wide figures from its PerShard
// rows: the counter and money sums, the latest shard clock, the merged
// tenant section and the response histogram. Each row's percentiles and
// the cluster's are read off bucket counts with obs.ResponseQuantile, and
// the cluster's counts and nanosecond sum are the sum of the rows', so an
// engine and a router merging the same rows report the same percentiles
// and mean, bit for bit — and one row reports its shard's own.
func (agg *Stats) Aggregate() {
	// Tenant-routed traffic keeps a tenant on one shard, but untagged
	// (template-routed) queries spread the "" tenant across shards: merge
	// by summing per tenant name, then sort for a deterministic section.
	tenants := make(map[string]TenantStats)
	response := obs.NewResponseHistogram()
	for i := range agg.PerShard {
		st := &agg.PerShard[i]
		st.ResponseP50Sec, st.ResponseP95Sec, st.ResponseP99Sec = responsePercentiles(st.ResponseBuckets)
		response.Add(st.ResponseBuckets, responseSum(st.ResponseMeanSec, st.Queries-st.Declined))
		for _, ts := range st.Tenants {
			m := tenants[ts.Tenant]
			m.Tenant = ts.Tenant
			m.Queries += ts.Queries
			m.Declined += ts.Declined
			m.CacheAnswered += ts.CacheAnswered
			m.CreditUSD += ts.CreditUSD
			m.SpendUSD += ts.SpendUSD
			m.ProfitUSD += ts.ProfitUSD
			m.RegretUSD += ts.RegretUSD
			m.InvestedUSD += ts.InvestedUSD
			m.RecoveredUSD += ts.RecoveredUSD
			m.StructuresCharged += ts.StructuresCharged
			m.LedgerSize += ts.LedgerSize
			tenants[ts.Tenant] = m
		}
		if st.ClockSec > agg.ClockSec {
			agg.ClockSec = st.ClockSec
		}
		agg.Queries += st.Queries
		agg.Declined += st.Declined
		agg.CacheAnswered += st.CacheAnswered
		agg.Investments += st.Investments
		agg.Failures += st.Failures
		agg.Errors += st.Errors
		agg.ExecCostUSD += st.ExecCostUSD
		agg.BuildCostUSD += st.BuildCostUSD
		agg.StorageCostUSD += st.StorageCostUSD
		agg.NodeCostUSD += st.NodeCostUSD
		agg.OperatingCostUSD += st.OperatingCostUSD
		agg.RevenueUSD += st.RevenueUSD
		agg.ProfitUSD += st.ProfitUSD
		agg.ResidentBytes += st.ResidentBytes
		agg.CreditUSD += st.CreditUSD
	}
	agg.ResponseMeanSec = response.Mean()
	agg.ResponseBuckets = response.Counts()
	agg.ResponseP50Sec, agg.ResponseP95Sec, agg.ResponseP99Sec = responsePercentiles(agg.ResponseBuckets)
	if len(tenants) > 0 {
		agg.Tenants = make([]TenantStats, 0, len(tenants))
		for _, ts := range tenants {
			if executed := ts.Queries - ts.Declined; executed > 0 {
				ts.HitRate = float64(ts.CacheAnswered) / float64(executed)
			}
			agg.Tenants = append(agg.Tenants, ts)
		}
		sort.Slice(agg.Tenants, func(i, j int) bool { return agg.Tenants[i].Tenant < agg.Tenants[j].Tenant })
	}
}

// responseSum recovers the nanosecond sum behind an exact mean response
// time (sum / count) over executed queries.
func responseSum(meanSec float64, executed int64) int64 {
	return int64(math.Round(meanSec * float64(executed) * 1e9))
}

// responsePercentiles reads p50, p95 and p99 off response bucket counts.
func responsePercentiles(counts []int64) (p50, p95, p99 float64) {
	return obs.ResponseQuantile(counts, 0.50), obs.ResponseQuantile(counts, 0.95), obs.ResponseQuantile(counts, 0.99)
}

// Structures lists every resident structure across all shards.
func (s *Server) Structures() []StructureInfo {
	var out []StructureInfo
	for _, sh := range s.shards {
		out = append(out, sh.structures()...)
	}
	return out
}

// Shutdown drains the server: no new submissions are accepted, every
// in-flight query is answered, idle-time rent is settled through the last
// promised completion, and all goroutines exit. The drain itself always
// runs to completion in the background; ctx only bounds this call's wait
// for it. A later Shutdown with a fresh ctx waits on the same drain, so a
// timed-out first attempt can be retried.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.drained = make(chan struct{})
		go func() {
			s.drain()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain performs the actual teardown. Every step terminates on its own:
// admitted Submits finish because the shard loops are still consuming,
// and the loops exit once their closed mailboxes empty.
func (s *Server) drain() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	// Wait for Submits that were admitted before the flag flipped: they
	// hold submitWG and may still be enqueueing.
	s.submitWG.Wait()

	if s.tickStop != nil {
		close(s.tickStop)
		<-s.tickDone
	}
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}

	// Closing the mailboxes lets each loop drain and exit; no accepted
	// query is dropped.
	for _, sh := range s.shards {
		close(sh.mailbox)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	// Persist the drained state BEFORE tail-rent finalization: Books.EndOfRun
	// travels in the snapshot and the restored server settles that window
	// at its own drain, so rent is charged exactly once across restarts
	// and a restored run stays byte-identical to an uninterrupted one.
	if s.cfg.SnapshotPath != "" {
		if _, err := s.writeSnapshot(); err != nil {
			slog.Error("server: drain snapshot failed", "path", s.cfg.SnapshotPath, "err", err)
		}
	}
	for _, sh := range s.shards {
		sh.finalize()
	}
}
