// Package obs is the serving engine's observability layer: sampled
// per-query decision traces, a bounded journal of economy events, the
// latency and response-time histograms + Prometheus text exposition the
// /metrics endpoint reports, and the commands' log handler. Its
// histograms are also the one percentile rule of the whole repository:
// the simulator's reports, every shard's and router's stats and the load
// client read quantiles with Histogram.Quantile, over the response layout
// (1 ms to ~70 min) or the client layout (1 µs to ~67 s), and means as
// the exact nanosecond sum over the count.
//
// The package is deliberately a leaf — it depends only on the money
// type — so the economy, the shard loop and the HTTP layer can all feed
// it without import cycles. Everything here is built for a hot decision
// loop that is NOT paying for observability unless asked to:
//
//   - the Tracer's sample gate is a single atomic load when sampling is
//     off; ring slots are preallocated so a sampled record is a struct
//     copy under a per-shard mutex that only trace readers contend on;
//   - the Journal's rare events (invest, evict) keep their full history
//     in dedicated rings while the per-query recovery stream rotates
//     through its own, and exact micro-dollar totals are maintained so
//     conservation checks never depend on ring capacity;
//   - Histograms are fixed exponential buckets bumped with one atomic
//     add per observation.
package obs

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Record is one sampled query's decision path: identity, routing, the
// economy's verdict and the per-stage latency split
// (decode → mailbox wait → decide → encode).
//
// Seq is per-shard and contiguous, so (Shard, Seq) names a record
// uniquely and lets the encode stage be back-filled after the record is
// already published. EncodeNanos is 0 on a record read before its reply
// finished encoding (or one whose front does not time encodes).
type Record struct {
	Seq     int64 `json:"seq"`
	QueryID int64 `json:"query_id"`
	Shard   int   `json:"shard"`

	Tenant      string  `json:"tenant,omitempty"`
	Template    string  `json:"template"`
	Selectivity float64 `json:"selectivity"`
	// ArrivalSec is the economy-clock arrival stamp, comparable across
	// shards (all shards share the server clock).
	ArrivalSec float64 `json:"arrival_s"`

	// Economy verdict.
	Case             string  `json:"case,omitempty"`
	Declined         bool    `json:"declined"`
	CacheHit         bool    `json:"cache_hit"`
	Location         string  `json:"location,omitempty"`
	ResponseTimeSec  float64 `json:"response_time_s"`
	ChargedUSD       float64 `json:"charged_usd"`
	ProfitUSD        float64 `json:"profit_usd"`
	RegretDeltaUSD   float64 `json:"regret_delta_usd"`
	InvestConsidered int     `json:"invest_considered"`
	InvestTaken      int     `json:"invest_taken"`
	FailuresSwept    int     `json:"failures_swept"`
	Error            string  `json:"error,omitempty"`

	// Stage latencies, nanoseconds. Decode and encode are the front's
	// per-query share of its frame work; wait is time spent queued in
	// the shard mailbox; decide is the economy's serialized decision.
	DecodeNanos int64 `json:"decode_ns"`
	WaitNanos   int64 `json:"mailbox_wait_ns"`
	DecideNanos int64 `json:"decide_ns"`
	EncodeNanos int64 `json:"encode_ns"`
	// WallNanos orders records across shards: nanoseconds since the
	// tracer was created, stamped at publish.
	WallNanos int64 `json:"wall_ns"`
}

// traceRing is one shard's preallocated record ring. The mutex is
// uncontended on the decision path unless a /v1/trace read is in
// flight; writes are struct copies into preallocated slots.
type traceRing struct {
	mu   sync.Mutex
	buf  []Record
	next int64 // records ever published; buf[(next-1) % len] is newest

	// tick is the sampling countdown. Only the owning shard goroutine
	// touches it, so it needs no synchronization of its own.
	tick int64
	_    [5]int64 // keep rings off each other's cache lines
}

// Tracer is the sampled decision-trace collector: one ring per shard
// behind a single atomic sampling gate.
type Tracer struct {
	sampleEvery atomic.Int64
	rings       []*traceRing

	// Per-stage latency histograms, fed from sampled records.
	decodeHist *Histogram
	waitHist   *Histogram
	decideHist *Histogram
	encodeHist *Histogram
}

// DefaultRing is the per-shard ring capacity when none is configured.
const DefaultRing = 1024

// NewTracer builds a tracer with one ring of ringCap preallocated
// records per shard (ringCap <= 0 takes DefaultRing). Sampling starts
// at sampleEvery: 0 disables, 1 traces every query, N traces 1-in-N.
func NewTracer(shards, ringCap int, sampleEvery int64) *Tracer {
	if shards < 1 {
		shards = 1
	}
	if ringCap <= 0 {
		ringCap = DefaultRing
	}
	t := &Tracer{
		rings:      make([]*traceRing, shards),
		decodeHist: NewLatencyHistogram(),
		waitHist:   NewLatencyHistogram(),
		decideHist: NewLatencyHistogram(),
		encodeHist: NewLatencyHistogram(),
	}
	for i := range t.rings {
		t.rings[i] = &traceRing{buf: make([]Record, ringCap)}
	}
	t.sampleEvery.Store(sampleEvery)
	return t
}

// SampleEvery returns the current sampling period (0 = off).
func (t *Tracer) SampleEvery() int64 { return t.sampleEvery.Load() }

// SetSampleEvery changes the sampling period at runtime: 0 disables,
// 1 traces everything, N traces 1-in-N.
func (t *Tracer) SetSampleEvery(n int64) {
	if n < 0 {
		n = 0
	}
	t.sampleEvery.Store(n)
}

// Enabled reports whether any sampling is active — the one atomic load
// the decide loop pays per query when tracing is off.
func (t *Tracer) Enabled() bool { return t.sampleEvery.Load() > 0 }

// Sample reports whether the shard's next query should be traced. It
// must only be called from the shard's own goroutine (the countdown is
// unsynchronized by design). When sampling is off it is a single
// atomic load and a predicted branch.
func (t *Tracer) Sample(shard int) bool {
	n := t.sampleEvery.Load()
	if n <= 0 {
		return false
	}
	r := t.rings[shard]
	r.tick++
	return r.tick%n == 0
}

// Publish copies a completed record into the shard's ring, assigns its
// per-shard sequence number and feeds the stage histograms. It returns
// the sequence number so the front can back-fill EncodeNanos via
// SetEncode once the reply is on the wire. A shard's records must arrive
// with non-decreasing WallNanos (the shard stamps them under its own
// lock): Snapshot's bounded read relies on ring order being time order.
func (t *Tracer) Publish(shard int, rec Record) int64 {
	r := t.rings[shard]
	r.mu.Lock()
	r.next++
	rec.Seq = r.next
	rec.Shard = shard
	r.buf[(r.next-1)%int64(len(r.buf))] = rec
	r.mu.Unlock()
	t.decodeHist.Observe(rec.DecodeNanos)
	t.waitHist.Observe(rec.WaitNanos)
	t.decideHist.Observe(rec.DecideNanos)
	return rec.Seq
}

// SetEncode back-fills the encode-stage latency of a published record,
// identified by its (shard, seq) pair. A record already overwritten by
// ring rotation is silently skipped.
func (t *Tracer) SetEncode(shard int, seq, nanos int64) {
	if shard < 0 || shard >= len(t.rings) || seq <= 0 {
		return
	}
	r := t.rings[shard]
	r.mu.Lock()
	slot := &r.buf[(seq-1)%int64(len(r.buf))]
	if slot.Seq == seq {
		slot.EncodeNanos = nanos
	}
	r.mu.Unlock()
	t.encodeHist.Observe(nanos)
}

// Snapshot returns up to n of the most recent records matching the
// tenant/template filters ("" matches everything), newest last,
// ordered by publish time across shards. n <= 0 returns all retained
// matches.
//
// Each ring is walked newest-first and left after n matches: publish
// stamps never decrease within a ring, so the newest n overall are among
// each ring's newest n, and a bounded read copies and sorts at most
// rings × n records however large the rings are.
func (t *Tracer) Snapshot(tenant, template string, n int) []Record {
	var out []Record
	for _, r := range t.rings {
		r.mu.Lock()
		size := int64(len(r.buf))
		oldest := max(r.next-size, 0)
		for i, taken := r.next-1, 0; i >= oldest && (n <= 0 || taken < n); i-- {
			rec := &r.buf[i%size]
			if tenant != "" && rec.Tenant != tenant {
				continue
			}
			if template != "" && rec.Template != template {
				continue
			}
			out = append(out, *rec)
			taken++
		}
		r.mu.Unlock()
	}
	sortRecords(out)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// sortRecords orders records by wall publish time, breaking ties by
// (shard, seq) so repeated snapshots of an idle tracer are stable.
func sortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int {
		return cmp.Or(
			cmp.Compare(a.WallNanos, b.WallNanos),
			cmp.Compare(a.Shard, b.Shard),
			cmp.Compare(a.Seq, b.Seq),
		)
	})
}

// StageHistograms returns the per-stage latency histograms in exposition
// order: decode, mailbox wait, decide, encode.
func (t *Tracer) StageHistograms() []StageHistogram {
	return []StageHistogram{
		{Stage: "decode", Hist: t.decodeHist},
		{Stage: "mailbox_wait", Hist: t.waitHist},
		{Stage: "decide", Hist: t.decideHist},
		{Stage: "encode", Hist: t.encodeHist},
	}
}

// StageHistogram labels one stage's latency histogram.
type StageHistogram struct {
	Stage string
	Hist  *Histogram
}
