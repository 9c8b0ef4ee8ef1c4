package obs

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/money"
)

// Event types: the structure lifecycle, rare next to the queries. A
// settlement's recovery of amortized shares and arrears happens on nearly
// every query and is not an event: the economy counts it beside its
// ledgers (economy.Economy.Recoveries).
const (
	// EventInvest: a ledger financed a structure build.
	EventInvest = "invest"
	// EventEvict: the maintenance-failure sweep evicted a structure
	// whose rent no longer paid (footnote 3 "structure failure").
	EventEvict = "evict"
)

// Event is one structured economy event: who moved how many dollars
// against which structure, and why. Events are emitted from inside the
// shard's serialized decision path, so emission itself needs no
// economy-side locking; the Journal makes them safe to read
// concurrently.
type Event struct {
	// Seq orders events globally (one atomic counter shared by every
	// shard's journal).
	Seq int64 `json:"seq"`
	// ClockSec is the economy clock at emission, seconds.
	ClockSec float64 `json:"clock_s"`
	Shard    int     `json:"shard"`
	// Type is EventInvest or EventEvict.
	Type string `json:"type"`
	// Tenant is the actor account: the financier on invest ("" is the
	// communal pool), the owner losing the structure on evict.
	Tenant    string `json:"tenant"`
	Structure string `json:"structure,omitempty"`
	// AmountUSD is the event's dollar value: the build price charged,
	// the arrears at eviction.
	AmountUSD float64 `json:"usd"`
	Reason    string  `json:"reason"`

	// Amount is the exact micro-dollar value behind AmountUSD, kept out
	// of the JSON surface but preserved for conservation checks.
	Amount money.Amount `json:"-"`
}

// Totals are exact lifetime sums, maintained independently of ring
// capacity so invested dollars always reconcile against ledger totals
// even after the rings rotate. A journal keeps the invest and evict
// totals; Recovers and Recovered are the economies' settlement counts and
// recovered ledger dollars, which a server adds in (a journal's stay
// zero).
type Totals struct {
	Invests  int64
	Evicts   int64
	Recovers int64

	Invested  money.Amount
	Evicted   money.Amount
	Recovered money.Amount
}

// Add accumulates another journal's totals.
func (t *Totals) Add(o Totals) {
	t.Invests += o.Invests
	t.Evicts += o.Evicts
	t.Recovers += o.Recovers
	t.Invested = t.Invested.Add(o.Invested)
	t.Evicted = t.Evicted.Add(o.Evicted)
	t.Recovered = t.Recovered.Add(o.Recovered)
}

// Journal is one shard's bounded economy event log: a ring per event
// type plus exact totals. Emission happens on the shard's decision
// goroutine; the mutex exists so /v1/events readers and the wire event
// stream observe whole events, never torn ones.
type Journal struct {
	shard int
	seq   *atomic.Int64 // shared across shards: global event order

	mu     sync.Mutex
	rings  map[string]*eventRing
	totals Totals
}

// eventRing is one type's bounded history.
type eventRing struct {
	buf  []Event
	next int64
}

// DefaultJournalRing is the per-type ring capacity when none is
// configured.
const DefaultJournalRing = 2048

// NewJournal builds a shard's journal. cap bounds each event type's
// ring (cap <= 0 takes DefaultJournalRing); seq is the server-wide
// event counter shared by all shards.
func NewJournal(shard, cap int, seq *atomic.Int64) *Journal {
	if cap <= 0 {
		cap = DefaultJournalRing
	}
	return &Journal{
		shard: shard,
		seq:   seq,
		rings: map[string]*eventRing{
			EventInvest: {buf: make([]Event, 0, cap)},
			EventEvict:  {buf: make([]Event, 0, cap)},
		},
	}
}

// Emit records one event, assigning its global sequence number and
// filling the shard and dollar view. Unknown event types are dropped —
// the journal's ring set is its schema.
func (j *Journal) Emit(e Event) {
	r, ok := j.rings[e.Type]
	if !ok {
		return
	}
	e.Seq = j.seq.Add(1)
	e.Shard = j.shard
	e.AmountUSD = e.Amount.Dollars()
	j.mu.Lock()
	switch e.Type {
	case EventInvest:
		j.totals.Invests++
		j.totals.Invested = j.totals.Invested.Add(e.Amount)
	case EventEvict:
		j.totals.Evicts++
		j.totals.Evicted = j.totals.Evicted.Add(e.Amount)
	}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next%int64(cap(r.buf))] = e
	}
	r.next++
	j.mu.Unlock()
}

// Totals returns the journal's exact lifetime sums.
func (j *Journal) Totals() Totals {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.totals
}

// Snapshot returns the retained events matching the type/tenant filters
// ("" matches everything), in global sequence order. sinceSeq > 0
// restricts to events with Seq > sinceSeq — the cursor the wire event
// stream advances between pushes.
func (j *Journal) Snapshot(typ, tenant string, sinceSeq int64) []Event {
	j.mu.Lock()
	var out []Event
	for name, r := range j.rings {
		if typ != "" && name != typ {
			continue
		}
		for _, e := range r.buf {
			if e.Seq <= sinceSeq {
				continue
			}
			if tenant != "" && e.Tenant != tenant {
				continue
			}
			out = append(out, e)
		}
	}
	j.mu.Unlock()
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// MergeEvents flattens per-shard snapshots into one sequence-ordered
// slice, keeping at most n of the most recent events (n <= 0 keeps
// all).
func MergeEvents(n int, shards ...[]Event) []Event {
	var out []Event
	for _, s := range shards {
		out = append(out, s...)
	}
	slices.SortFunc(out, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
