package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shardMsg is one unit of mailbox work: a Submit that found its shard
// busy, or this shard's group of a SubmitBatchAsync call whose shard was
// busy. Reply channels are buffered (capacity 1) so the shard loop never
// blocks on a caller that has already given up. Batches keep the mailbox
// traffic proportional to submissions, not queries: one send and one
// dequeue cover the entire group.
type shardMsg struct {
	// req carries a Submit, by value, when call is nil; the answer goes to
	// reply.
	req   Request
	reply chan BatchItem

	// call carries a SubmitBatchAsync group: the loop decides the group at
	// call.offs[id] into the call's positional items and, after the shard
	// lock is released, releases the group's count of it.
	call *batchCall

	// enq is the Server.nanos() stamp at enqueue, measuring mailbox wait
	// (for the oldest-waiter gauge and sampled decision traces).
	enq int64
}

// shard owns one slice of the economy: its own scheme (cache, account,
// regret ledger), its own deterministic RNG and its own metrics. The lock
// serializes: every decision, housekeeping pass and snapshot runs under
// mu, on whichever goroutine holds it. The mailbox queues: submissions
// that find the shard busy wait there for the loop goroutine, which
// decides a whole drain under one acquisition. A Submit or a batch's shard
// group that finds the shard idle — nothing queued, lock free — never sees
// the mailbox; it is decided on its caller's goroutine (tryInline).
type shard struct {
	id  int
	srv *Server

	mailbox chan shardMsg
	tick    chan struct{} // capacity 1; coalesces housekeeping ticks
	done    chan struct{} // closed when the loop has drained and exited

	// queued counts messages enqueued (or about to be) and not yet decided.
	// It gates the inline path: while it is nonzero every submission joins
	// the queue, so a goroutine's earlier asynchronous submissions are
	// always decided before its later ones and inline callers can never
	// starve a waiting mailbox.
	queued atomic.Int64

	mu  sync.Mutex
	sch scheme.Scheme
	eco *economy.Economy // nil for schemes without an economy (bypass)
	// owned is false while this shard's slice of the key space is served
	// by another backend (frozen for migration, or never owned in a
	// cluster partition). A disowned shard decides nothing and touches no
	// state: the loop answers every message with ErrShardNotOwned so a
	// router can re-route, and housekeeping skips it so the in-transit
	// economy accrues rent exactly once — on whichever backend owns it.
	owned bool
	// rng is a SplitMix64 state driving selectivity draws for queries
	// that omit one. A plain uint64 — not math/rand — so snapshots can
	// persist it and a restored shard continues the exact draw sequence.
	rng uint64

	// lastNow keeps shard time monotone even if the clock source jitters.
	lastNow time.Duration
	// books is the shard's operating account — rent watermark, tail
	// window, rent integrals, query tallies — the same sim.Books sim.Run
	// keeps, persisted as is.
	books sim.Books

	// deferred is handleMsgs' scratch list of batch calls to release
	// after the lock drops: a release may run SubmitBatchAsync's done,
	// caller code that must be free to read server state (snapshot paths
	// on other shards, encode work) without this shard's mu. A field so
	// its capacity survives drains.
	deferred []*batchCall

	// scratchQ is the per-shard query object decideLocked reuses for
	// every decision: decisions are serialized by mu — on the loop
	// goroutine or an inline caller's alike — and nothing retains the
	// *workload.Query past the scheme's HandleQuery return (pooled plans
	// hold the pointer only until the next Enumerate), so one scratch
	// object replaces a heap allocation per query.
	scratchQ workload.Query
	// scratchStep + stepFunc are the matching fast path for the default
	// budget: when the server's policy is step-shaped, decideLocked
	// refills scratchStep and hands out stepFunc — a *budget.Step boxed
	// once at shard construction — instead of boxing a fresh budget.Func
	// per query. Same lifetime argument as scratchQ.
	scratchStep budget.Step
	stepFunc    budget.Func

	// oldestWait is the queue wait of the shard's most recent decision,
	// nanoseconds: the head message's mailbox wait at a drain, 0 for an
	// inline decision — the saturation gauge /v1/stats reports.
	oldestWait atomic.Int64

	// inline counts the queries among books.Queries decided on their
	// caller's goroutine; the rest went through the mailbox.
	inline int64
	// errors counts submissions that failed before a decision.
	errors int64
	// response records every executed query's response time.
	response *obs.Histogram
}

// economyOf extracts the economy from schemes that have one.
func economyOf(s scheme.Scheme) *economy.Economy {
	if e, ok := s.(interface{ Economy() *economy.Economy }); ok {
		return e.Economy()
	}
	return nil
}

func newShard(id int, srv *Server, sch scheme.Scheme, seed int64, depth int) *shard {
	s := &shard{
		id:       id,
		srv:      srv,
		mailbox:  make(chan shardMsg, depth),
		tick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		sch:      sch,
		eco:      economyOf(sch),
		owned:    true,
		rng:      uint64(seed),
		response: obs.NewResponseHistogram(),
	}
	s.stepFunc = &s.scratchStep
	return s
}

// randFloat64 draws the next uniform [0,1) from the shard's SplitMix64
// stream. Callers hold s.mu.
func (s *shard) randFloat64() float64 {
	var out uint64
	s.rng, out = splitMix64(s.rng)
	return float64(out>>11) / (1 << 53)
}

// splitMix64 advances a SplitMix64 state and returns the next state and
// output. A single uint64 restores the exact sequence, which math/rand
// cannot offer, and a snapshot persists the shard's selectivity draws as
// that one state.
func splitMix64(state uint64) (next, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// loop is the shard's serialized decision loop. It exits only when the
// mailbox is closed AND fully drained, so every accepted submission is
// answered — the graceful-drain guarantee.
//
// Each wakeup opportunistically drains the whole mailbox into one
// handleMsgs call — group commit: under load, singleton Submits that
// queued while the shard was busy share a single lock acquisition, clock
// read and rent accrual instead of paying one each. Decisions stay in
// strict dequeue order with one shared arrival stamp (a batch's
// same-instant semantics applied to the drain), so on a virtual clock
// results are exactly those of a one-message-per-wakeup loop.
func (s *shard) loop() {
	defer close(s.done)
	var pending []shardMsg
	for {
		pending = pending[:0]
		select {
		case m, ok := <-s.mailbox:
			if !ok {
				return
			}
			pending = append(pending, m)
			// A closed mailbox ends the drain too; the outer receive
			// observes the close on the next iteration and exits.
			drained := false
			for !drained {
				select {
				case m2, ok2 := <-s.mailbox:
					if !ok2 {
						drained = true
						break
					}
					pending = append(pending, m2)
				default:
					drained = true
				}
			}
			s.handleMsgs(pending)
			// Drop reply-channel references before the slice is reused.
			for i := range pending {
				pending[i] = shardMsg{}
			}
		case <-s.tick:
			s.housekeep()
		}
	}
}

// tryInline is the one idle rule: when the shard is idle — nothing queued
// ahead and the lock free — it runs decide right here, on the caller's
// goroutine, with one clock read and one rent accrual (what a one-message
// mailbox drain takes), and reports true. It tries and never waits: a busy
// shard (or a DecideDelay hook, which forces the mailbox so tests can
// reorder completions) sends the caller to the queue instead. decide runs
// under the lock and answers through answerLocked, so a disowned shard
// turns its queries away without touching state, exactly as the loop
// would.
func (s *shard) tryInline(decide func(now time.Duration)) bool {
	if s.srv.cfg.DecideDelay != nil || s.queued.Load() != 0 || !s.mu.TryLock() {
		return false
	}
	decided := s.books.Queries
	decide(s.stampLocked())
	s.inline += s.books.Queries - decided
	s.oldestWait.Store(0)
	s.mu.Unlock()
	return true
}

// tryDecide is Submit's fast half: req decided inline on an idle shard.
func (s *shard) tryDecide(req Request) (reply BatchItem, ok bool) {
	ok = s.tryInline(func(now time.Duration) { reply = s.answerLocked(req, now, 0) })
	return reply, ok
}

// tryDecideGroup is SubmitBatchAsync's fast half: this shard's group of c
// decided inline on an idle shard. An inline group takes no count of the
// call's pending: it is done before the placing loop moves on.
func (s *shard) tryDecideGroup(c *batchCall) bool {
	return s.tryInline(func(now time.Duration) { s.decideGroupLocked(c, now, 0) })
}

// enqueue is the slow half: one by-value mailbox message, counted in
// queued from before the send until the loop has decided it. The send may
// block on a full mailbox; ctx abandons it.
func (s *shard) enqueue(ctx context.Context, m shardMsg) error {
	s.queued.Add(1)
	select {
	case s.mailbox <- m:
		return nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return ctx.Err()
	}
}

// handleMsgs decides a whole mailbox drain under one lock acquisition and
// one clock read: every message in the group shares the arrival stamp, as
// if its queries had been submitted back-to-back at the same instant.
// Submit's replies go out per message in order; the channels are
// buffered, so a caller that gave up blocks nothing. Batch calls are
// released after the lock is dropped, still on this goroutine and still in
// dequeue order.
func (s *shard) handleMsgs(msgs []shardMsg) {
	if delay := s.srv.cfg.DecideDelay; delay != nil {
		delay(s.id)
	}
	// One real-time read per drain feeds both the oldest-waiter gauge
	// (FIFO: the head message waited longest) and the per-message wait
	// stage of sampled traces.
	drainNanos := s.srv.nanos()
	s.oldestWait.Store(drainNanos - msgs[0].enq)
	s.mu.Lock()
	now := s.stampLocked()
	s.deferred = s.deferred[:0]
	for _, m := range msgs {
		wait := drainNanos - m.enq
		if m.call != nil {
			s.decideGroupLocked(m.call, now, wait)
			s.deferred = append(s.deferred, m.call)
		} else {
			m.reply <- s.answerLocked(m.req, now, wait)
		}
	}
	// Decided: inline callers may have the shard again.
	s.queued.Add(-int64(len(msgs)))
	s.mu.Unlock()
	for i, c := range s.deferred {
		c.release()
		s.deferred[i] = nil
	}
}

// stampLocked reads the clock and accrues rent through it: the one clock
// read and rent accrual that a mailbox drain or an inline decision takes.
// A disowned shard reads and accrues nothing; answerLocked turns its
// queries away. Callers hold s.mu.
func (s *shard) stampLocked() (now time.Duration) {
	if s.owned {
		now = s.nowLocked()
		s.books.Accrue(now, s.sch.Cache())
	}
	return now
}

// decideGroupLocked decides this shard's group of call c in submission
// order at the one arrival stamp now, into the call's positional items.
// waitNanos is the group's real-time mailbox wait (0 inline). Callers
// hold s.mu.
func (s *shard) decideGroupLocked(c *batchCall, now time.Duration, waitNanos int64) {
	off := c.offs[s.id]
	for j := off; j < off+c.counts[s.id]; j++ {
		c.items[c.pos[j]] = s.answerLocked(c.reqs[j], now, waitNanos)
	}
}

// answerLocked is handleLocked behind the ownership check: a disowned
// shard answers ErrShardNotOwned without deciding anything or touching
// shard state — no clock read, no accrual, no counters — so a frozen
// shard's captured state is exactly its state at the last real decision.
// Callers hold s.mu.
func (s *shard) answerLocked(req Request, now time.Duration, waitNanos int64) BatchItem {
	if !s.owned {
		return BatchItem{Err: s.notOwnedErr()}
	}
	return s.handleLocked(req, now, waitNanos)
}

func (s *shard) notOwnedErr() error {
	return fmt.Errorf("%w (shard %d)", ErrShardNotOwned, s.id)
}

// nowLocked reads the server clock clamped to monotone shard time.
// Callers hold s.mu.
func (s *shard) nowLocked() time.Duration {
	now := s.srv.clock.Now()
	if now < s.lastNow {
		now = s.lastNow
	}
	s.lastNow = now
	return now
}

// handleLocked decides one query at arrival time now, sampling a
// decision trace when the tracer asks for one. waitNanos is the
// real-time mailbox wait of the message that carried the request.
// Callers hold s.mu and have already accrued rent through now.
func (s *shard) handleLocked(req Request, now time.Duration, waitNanos int64) BatchItem {
	tr := s.srv.tracer
	// The whole observability layer costs one nil check and one atomic
	// load per query until a sample is due.
	if tr == nil || !tr.Sample(s.id) {
		reply, _ := s.decideLocked(req, now)
		return reply
	}

	start := time.Now()
	reply, res := s.decideLocked(req, now)
	decideNanos := time.Since(start).Nanoseconds()

	rec := obs.Record{
		QueryID:          reply.Resp.QueryID,
		Tenant:           req.Tenant,
		Template:         req.Template,
		Selectivity:      reply.Resp.Selectivity,
		ArrivalSec:       now.Seconds(),
		Case:             res.Case,
		Declined:         res.Declined,
		CacheHit:         !res.Declined && res.Location == plan.Cache,
		Location:         reply.Resp.Location,
		ResponseTimeSec:  res.ResponseTime.Seconds(),
		ChargedUSD:       res.Charged.Dollars(),
		ProfitUSD:        res.Profit.Dollars(),
		RegretDeltaUSD:   res.RegretAccrued.Dollars(),
		InvestConsidered: res.InvestConsidered,
		InvestTaken:      res.Investments,
		FailuresSwept:    res.Failures,
		DecodeNanos:      req.DecodeNanos,
		WaitNanos:        waitNanos,
		DecideNanos:      decideNanos,
		WallNanos:        s.srv.nanos(),
	}
	if reply.Err != nil {
		rec.Error = reply.Err.Error()
	}
	reply.Resp.TraceSeq = tr.Publish(s.id, rec)
	return reply
}

// decideLocked is the untraced decision path: template resolution,
// budgeting, the scheme's verdict and the shard counters. Callers hold
// s.mu.
func (s *shard) decideLocked(req Request, now time.Duration) (BatchItem, scheme.Result) {
	tpl, ok := s.srv.templates[req.Template]
	if !ok {
		s.errors++
		return BatchItem{Err: fmt.Errorf("%w: %q", ErrUnknownTemplate, req.Template)}, scheme.Result{}
	}
	sel := req.Selectivity
	if sel == 0 && !req.HasSelectivity {
		// Unset: draw one from the template's range. An explicit zero
		// (HasSelectivity true) instead clamps below, like any other
		// out-of-range value.
		sel = tpl.SelMin + s.randFloat64()*(tpl.SelMax-tpl.SelMin)
	}
	if sel < tpl.SelMin {
		sel = tpl.SelMin
	}
	if sel > tpl.SelMax {
		sel = tpl.SelMax
	}

	// The shard's scratch query: safe because decisions are serialized
	// through the mailbox and nothing downstream retains the pointer past
	// HandleQuery (the optimizer's pooled plans alias it only until the
	// next Enumerate).
	q := &s.scratchQ
	*q = workload.Query{
		ID:          s.srv.nextID.Add(1),
		Tenant:      req.Tenant,
		Template:    tpl,
		Selectivity: sel,
		Arrival:     now,
		Budget:      req.Budget,
	}
	if q.Budget == nil {
		sz, err := q.Sizes(s.srv.catalog)
		if err != nil {
			s.errors++
			return BatchItem{Err: err}, scheme.Result{}
		}
		if sb := s.srv.stepBudgets; sb != nil {
			if price, tmax, ok := sb.StepBudgetFor(q, sz.Scan, sz.Result); ok {
				s.scratchStep = budget.Step{Price: price, TMax: tmax}
				q.Budget = s.stepFunc
			}
		}
		if q.Budget == nil {
			q.Budget = s.srv.budgets.BudgetFor(q, sz.Scan, sz.Result)
		}
	}

	r, err := s.sch.HandleQuery(q)
	if err != nil {
		s.errors++
		return BatchItem{Err: fmt.Errorf("shard %d: query %d: %w", s.id, q.ID, err)}, scheme.Result{}
	}

	s.books.Record(now, &r)
	if !r.Declined {
		s.response.Observe(int64(r.ResponseTime))
	}

	return BatchItem{Resp: Response{
		QueryID:         q.ID,
		Shard:           s.id,
		Template:        tpl.Name,
		Selectivity:     sel,
		ArrivalSec:      now.Seconds(),
		Declined:        r.Declined,
		Location:        r.Location.String(),
		ResponseTimeSec: r.ResponseTime.Seconds(),
		ChargedUSD:      r.Charged.Dollars(),
		ProfitUSD:       r.Profit.Dollars(),
		Investments:     r.Investments,
		Failures:        r.Failures,
	}}, r
}

// housekeep advances the shard's economy through idle time: rent accrues
// and due builds complete even when no query arrives. Driven by the
// server ticker (wall clocks) or Housekeep (virtual clocks).
func (s *shard) housekeep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.owned {
		return
	}
	now := s.nowLocked()
	ca := s.sch.Cache()
	s.books.Accrue(now, ca)
	if now > ca.Clock() {
		ca.Advance(now)
	}
	ca.CompleteDue()
}

// finalize integrates tail rent through the last promised completion, the
// same closing window sim.Run charges. Called once, after the loop exits.
func (s *shard) finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A disowned shard's economy finalizes wherever it now lives; the
	// empty remnant here has no tail rent to settle.
	if !s.owned {
		return
	}
	s.books.Close(s.nowLocked(), s.sch.Cache())
}

// snapshot captures the shard's stats: every counter and gauge, and the
// response histogram's bucket counts. Reading the buckets is O(buckets),
// so one snapshot serves /v1/stats and /metrics alike; the percentiles
// are Stats.Aggregate's to fill.
func (s *shard) snapshot() ShardStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A disowned shard's state is in transit: report it as-is without
	// advancing the clock or accruing rent, so polling stats during a
	// migration cannot perturb the frozen capture.
	ca := s.sch.Cache()
	now := s.lastNow
	if s.owned {
		now = s.nowLocked()
		s.books.Accrue(now, ca)
	}

	b := &s.books
	c := b.Costs(s.srv.accounting)
	st := ShardStats{
		Shard:              s.id,
		Scheme:             s.sch.Name(),
		Owned:              s.owned,
		ClockSec:           now.Seconds(),
		Queries:            b.Queries,
		Inline:             s.inline,
		Declined:           b.Declined,
		CacheAnswered:      b.CacheAnswered,
		Investments:        b.Investments,
		Failures:           b.Failures,
		Errors:             s.errors,
		MailboxDepth:       len(s.mailbox),
		OldestWaitSec:      float64(s.oldestWait.Load()) / 1e9,
		ResponseBuckets:    s.response.Counts(),
		ExecCostUSD:        c.Exec.Dollars(),
		BuildCostUSD:       c.Build.Dollars(),
		StorageCostUSD:     c.Storage.Dollars(),
		NodeCostUSD:        c.Node.Dollars(),
		RevenueUSD:         b.Revenue.Dollars(),
		ProfitUSD:          b.Profit.Dollars(),
		ResidentBytes:      ca.ResidentBytes(),
		ResidentStructures: ca.Len(),
		PendingBuilds:      ca.PendingCount(),
		Nodes:              ca.NodeCount(),
	}
	st.OperatingCostUSD = st.ExecCostUSD + st.BuildCostUSD + st.StorageCostUSD + st.NodeCostUSD
	st.ResponseMeanSec = s.response.Mean()
	if s.eco != nil {
		es := s.eco.Stats()
		st.CreditUSD = es.Credit.Dollars()
		st.InvestedUSD = es.Invested.Dollars()
		st.RecoveredUSD = es.Recovered.Dollars()
		st.LedgerSize = es.LedgerSize
		for _, ts := range s.eco.TenantStats() {
			st.Tenants = append(st.Tenants, tenantStatsView(ts))
		}
	}
	return st
}

// tenantStatsView converts an economy ledger snapshot into the wire view.
func tenantStatsView(ts economy.TenantStats) TenantStats {
	v := TenantStats{
		Tenant:            ts.Tenant,
		Queries:           ts.Queries,
		Declined:          ts.Declined,
		CacheAnswered:     ts.CacheAnswered,
		CreditUSD:         ts.Credit.Dollars(),
		SpendUSD:          ts.Spend.Dollars(),
		ProfitUSD:         ts.Profit.Dollars(),
		RegretUSD:         ts.RegretAccrued.Dollars(),
		InvestedUSD:       ts.Invested.Dollars(),
		RecoveredUSD:      ts.Recovered.Dollars(),
		StructuresCharged: ts.InvestCount,
		LedgerSize:        ts.LedgerSize,
	}
	if executed := ts.Queries - ts.Declined; executed > 0 {
		v.HitRate = float64(ts.CacheAnswered) / float64(executed)
	}
	return v
}

// recoveries returns the shard's settlement recovery totals: its
// economy's settlement count and its ledgers' recovered dollars, the
// figure /v1/stats reports.
func (s *shard) recoveries() obs.Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eco == nil {
		return obs.Totals{}
	}
	return obs.Totals{Recovers: s.eco.Recoveries(), Recovered: s.eco.Stats().Recovered}
}

// quickCounters reads the headline liveness counters without pricing
// costs or copying the buckets — cheap enough for high-rate probes.
func (s *shard) quickCounters() (queries int64, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now = s.srv.clock.Now()
	if now < s.lastNow {
		now = s.lastNow
	}
	return s.books.Queries, now
}

// structures lists the shard's resident structures, sorted by ID.
func (s *shard) structures() []StructureInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.sch.Cache().Entries()
	out := make([]StructureInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, StructureInfo{
			Shard:             s.id,
			ID:                string(e.S.ID),
			Kind:              e.S.Kind.String(),
			Bytes:             e.S.Bytes,
			BuiltAtSec:        e.BuiltAt.Seconds(),
			LastUsedSec:       e.LastUsed.Seconds(),
			Uses:              e.Uses,
			BuildPriceUSD:     e.BuildPrice.Dollars(),
			AmortRemainingUSD: e.AmortRemaining.Dollars(),
			UnpaidMaintUSD:    e.UnpaidMaint.Dollars(),
			EarnedValueUSD:    e.EarnedValue.Dollars(),
		})
	}
	return out
}
