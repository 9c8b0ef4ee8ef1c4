package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/money"
)

func TestTracerSamplingGate(t *testing.T) {
	tr := NewTracer(2, 8, 0)
	if tr.Enabled() {
		t.Fatal("tracer with sampleEvery=0 reports enabled")
	}
	for i := 0; i < 100; i++ {
		if tr.Sample(0) {
			t.Fatal("disabled tracer sampled a query")
		}
	}
	tr.SetSampleEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sample(1) {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampling hit %d of 400", hits)
	}
	tr.SetSampleEvery(1)
	for i := 0; i < 10; i++ {
		if !tr.Sample(0) {
			t.Fatal("sample-all tracer skipped a query")
		}
	}
}

func TestTracerPublishSnapshotEncode(t *testing.T) {
	tr := NewTracer(2, 4, 1)
	// Overfill shard 0's ring so rotation is exercised.
	for i := 0; i < 6; i++ {
		seq := tr.Publish(0, Record{
			QueryID:     int64(100 + i),
			Template:    "q1",
			Tenant:      "t0",
			WallNanos:   int64(i + 1),
			DecideNanos: 10,
		})
		if seq != int64(i+1) {
			t.Fatalf("publish %d got seq %d", i, seq)
		}
	}
	tr.Publish(1, Record{QueryID: 999, Template: "q2", Tenant: "t1", WallNanos: 100})

	all := tr.Snapshot("", "", 0)
	if len(all) != 5 { // ring of 4 on shard 0 + 1 on shard 1
		t.Fatalf("snapshot kept %d records, want 5", len(all))
	}
	if all[len(all)-1].QueryID != 999 {
		t.Fatalf("records not ordered by wall time: tail %+v", all[len(all)-1])
	}
	if got := tr.Snapshot("t0", "", 0); len(got) != 4 {
		t.Fatalf("tenant filter kept %d, want 4", len(got))
	}
	if got := tr.Snapshot("", "q2", 0); len(got) != 1 || got[0].QueryID != 999 {
		t.Fatalf("template filter wrong: %+v", got)
	}
	if got := tr.Snapshot("", "", 2); len(got) != 2 {
		t.Fatalf("n=2 kept %d", len(got))
	}

	// Encode back-fill: live seq lands, rotated-out seq is skipped.
	tr.SetEncode(0, 6, 777)
	tr.SetEncode(0, 1, 555) // overwritten by rotation; slot now holds seq 5
	found := false
	for _, rec := range tr.Snapshot("", "", 0) {
		if rec.Shard == 0 && rec.Seq == 6 {
			found = true
			if rec.EncodeNanos != 777 {
				t.Fatalf("encode back-fill lost: %+v", rec)
			}
		}
		if rec.Shard == 0 && rec.Seq == 5 && rec.EncodeNanos != 0 {
			t.Fatalf("stale encode back-fill hit the wrong record: %+v", rec)
		}
	}
	if !found {
		t.Fatal("seq 6 missing from snapshot")
	}
}

// snapshotByFullSort is Snapshot as it was before it learned to stop
// early: copy every retained record of every ring, filter, sort all of
// it, keep the last n. The reference TestTracerSnapshotBoundedRead holds
// the bounded read to.
func snapshotByFullSort(t *Tracer, tenant, template string, n int) []Record {
	var out []Record
	for _, r := range t.rings {
		r.mu.Lock()
		size := int64(len(r.buf))
		count := min(r.next, size)
		for i := r.next - count; i < r.next; i++ {
			rec := r.buf[i%size]
			if tenant != "" && rec.Tenant != tenant {
				continue
			}
			if template != "" && rec.Template != template {
				continue
			}
			out = append(out, rec)
		}
		r.mu.Unlock()
	}
	sortRecords(out)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// TestTracerSnapshotBoundedRead: walking each ring newest-first and
// stopping at n matches returns the same records in the same order as
// sorting everything — on wrapped, partly filled and empty rings, with
// either filter, both, or none, for n below, at and above what matches,
// and with wall stamps that tie across shards.
func TestTracerSnapshotBoundedRead(t *testing.T) {
	tr := NewTracer(4, 16, 1)
	rng := rand.New(rand.NewSource(3))
	wall := [4]int64{}
	// Shard 0 wraps several times, 1 wraps once, 2 stays partly filled, 3 empty.
	for shard, count := range []int{70, 20, 5, 0} {
		for i := 0; i < count; i++ {
			wall[shard] += int64(rng.Intn(3)) // ties within and across shards
			tr.Publish(shard, Record{
				QueryID:   int64(shard*1000 + i),
				Tenant:    fmt.Sprintf("t%d", rng.Intn(3)),
				Template:  fmt.Sprintf("q%d", rng.Intn(2)),
				WallNanos: wall[shard],
			})
		}
	}
	for _, tenant := range []string{"", "t0", "t2", "nobody"} {
		for _, template := range []string{"", "q1"} {
			for _, n := range []int{-1, 0, 1, 2, 3, 7, 16, 17, 40, 1000} {
				got := tr.Snapshot(tenant, template, n)
				want := snapshotByFullSort(tr, tenant, template, n)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Snapshot(%q, %q, %d):\n got %+v\nwant %+v", tenant, template, n, got, want)
				}
			}
		}
	}
}

func TestTracerConcurrentPublishSnapshot(t *testing.T) {
	tr := NewTracer(4, 64, 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				seq := tr.Publish(shard, Record{
					QueryID:   int64(i),
					Template:  "q",
					WallNanos: int64(i),
					// Matching sentinel pair: a torn read shows mismatched halves.
					DecideNanos: int64(i) * 3,
					WaitNanos:   int64(i) * 7,
				})
				tr.SetEncode(shard, seq, 1)
			}
		}(shard)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range tr.Snapshot("", "", 0) {
				if rec.DecideNanos != rec.QueryID*3 || rec.WaitNanos != rec.QueryID*7 {
					t.Errorf("torn record: %+v", rec)
					return
				}
			}
		}
	}()
	wg.Add(-1)
	wg.Wait()
	wg.Add(1)
	close(stop)
	wg.Wait()
}

func TestJournalTotalsAndRings(t *testing.T) {
	var seq atomic.Int64
	j := NewJournal(0, 2, &seq)
	d := func(usd float64) money.Amount { return money.FromDollars(usd) }

	j.Emit(Event{Type: EventInvest, Tenant: "a", Structure: "idx1", Amount: d(1.5), Reason: "regret"})
	j.Emit(Event{Type: EventInvest, Tenant: "b", Structure: "idx2", Amount: d(2.5), Reason: "regret"})
	j.Emit(Event{Type: EventInvest, Tenant: "a", Structure: "idx3", Amount: d(4), Reason: "regret"})
	j.Emit(Event{Type: EventEvict, Tenant: "a", Structure: "idx1", Amount: d(0.25), Reason: "rent"})
	for i := 0; i < 3; i++ {
		j.Emit(Event{Type: EventEvict, Tenant: "b", Structure: "idx2", Amount: d(0.1), Reason: "rent"})
	}
	// Settlement recovery is not an event: the journal drops it like any
	// other type outside its schema, and its totals stay zero.
	j.Emit(Event{Type: "recover", Tenant: "b", Structure: "idx2", Amount: d(0.1), Reason: "amort"})
	j.Emit(Event{Type: "bogus", Amount: d(100)})

	tot := j.Totals()
	if tot.Invests != 3 || tot.Evicts != 4 || tot.Recovers != 0 {
		t.Fatalf("counts wrong: %+v", tot)
	}
	if tot.Invested != d(8) || tot.Evicted != d(0.55) || tot.Recovered != 0 {
		t.Fatalf("totals lost exactness despite ring rotation: %+v", tot)
	}

	// Rings are bounded per type: invest and evict each kept their 2
	// newest.
	evs := j.Snapshot("", "", 0)
	if len(evs) != 4 {
		t.Fatalf("snapshot kept %d events, want 4 (2 invest + 2 evict)", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	if got := j.Snapshot(EventEvict, "", 0); len(got) != 2 || got[0].Tenant != "b" || got[1].Tenant != "b" {
		t.Fatalf("type filter wrong: %+v", got)
	}
	if got := j.Snapshot("recover", "", 0); len(got) != 0 {
		t.Fatalf("recover filter found %d events in a journal without them", len(got))
	}
	if got := j.Snapshot("", "b", 0); len(got) != 3 {
		t.Fatalf("tenant filter kept %d, want 3", len(got))
	}
	// Cursor semantics: only events after sinceSeq.
	last := evs[len(evs)-1].Seq
	if got := j.Snapshot("", "", last); len(got) != 0 {
		t.Fatalf("cursor at tail still returned %d events", len(got))
	}
	if got := j.Snapshot("", "", last-1); len(got) != 1 {
		t.Fatalf("cursor at tail-1 returned %d events", len(got))
	}
	if evs[0].AmountUSD == 0 {
		t.Fatalf("AmountUSD not derived: %+v", evs[0])
	}
}

func TestMergeEvents(t *testing.T) {
	a := []Event{{Seq: 1}, {Seq: 4}}
	b := []Event{{Seq: 2}, {Seq: 3}, {Seq: 5}}
	m := MergeEvents(0, a, b)
	if len(m) != 5 {
		t.Fatalf("merged %d", len(m))
	}
	for i, e := range m {
		if e.Seq != int64(i+1) {
			t.Fatalf("merge order wrong: %+v", m)
		}
	}
	if got := MergeEvents(2, a, b); len(got) != 2 || got[0].Seq != 4 {
		t.Fatalf("n=2 merge wrong: %+v", got)
	}
}

func TestHistogramObserveAndExposition(t *testing.T) {
	h := NewHistogram([]int64{1_000, 10_000})
	h.Observe(500)     // bucket le=1µs
	h.Observe(1_000)   // boundary: le=1µs
	h.Observe(5_000)   // le=10µs
	h.Observe(100_000) // +Inf
	h.Observe(-5)      // clamps to 0 → le=1µs
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	var sb strings.Builder
	h.WritePrometheus(&sb, "x_stage_seconds", `stage="decide"`)
	out := sb.String()
	for _, want := range []string{
		`x_stage_seconds_bucket{stage="decide",le="1e-06"} 3`,
		`x_stage_seconds_bucket{stage="decide",le="1e-05"} 4`,
		`x_stage_seconds_bucket{stage="decide",le="+Inf"} 5`,
		`x_stage_seconds_count{stage="decide"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// No labels: bare series names.
	sb.Reset()
	NewLatencyHistogram().WritePrometheus(&sb, "y", "")
	if !strings.Contains(sb.String(), "y_count 0") {
		t.Fatalf("unlabelled exposition wrong:\n%s", sb.String())
	}
}

// TestHistogramBucketMatchesSearch pins Bucket's one-octave step to a
// binary search for the first bound at or above the observation, in the
// three layouts and in random ones with several bounds to an octave or
// many octaves to a bound: at every bound, one either side of it, 0, the
// largest value, and random values of every bit length.
func TestHistogramBucketMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layouts := [][]int64{NewLatencyHistogram().bounds, responseBounds, clientBounds, {1}, {1 << 62}}
	for range 20 {
		b := []int64{1 + rng.Int63n(1000)}
		for len(b) < 1+rng.Intn(120) && b[len(b)-1] < math.MaxInt64/4 {
			b = append(b, b[len(b)-1]+1+rng.Int63n(b[len(b)-1]*int64(1+rng.Intn(3))))
		}
		layouts = append(layouts, b)
	}
	for _, bounds := range layouts {
		h := NewHistogram(bounds)
		probes := []int64{0, math.MaxInt64}
		for _, b := range bounds {
			probes = append(probes, b-1, b, b+1)
		}
		for k := range 63 {
			probes = append(probes, int64(1)<<k, rng.Int63n(int64(1)<<k+1))
		}
		for _, n := range probes {
			want, _ := slices.BinarySearch(bounds, n)
			if got := h.Bucket(n); got != want {
				t.Fatalf("bounds %v: Bucket(%d) = %d, the first bound at or above it is %d", bounds, n, got, want)
			}
		}
	}
}

// TestResponseLayout: both quarter-octave layouts grow each bucket at
// most 19 % over the last; the response layout spans at most 1 ms to at
// least an hour, the client layout at most 1 µs to at least a minute, and
// ResponseBuckets counts the response buckets, +Inf included.
func TestResponseLayout(t *testing.T) {
	if n := len(responseBounds) + 1; n != ResponseBuckets {
		t.Fatalf("response layout: %d bounds make %d buckets with +Inf, want %d", n-1, n, ResponseBuckets)
	}
	for _, l := range []struct {
		name        string
		b           []int64
		first, last int64
	}{{"response", responseBounds, 1e6, 3600e9}, {"client", clientBounds, 1e3, 60e9}} {
		b := l.b
		if b[0] > l.first || b[len(b)-1] < l.last {
			t.Fatalf("%s layout spans %d … %d ns, want ≤ %d … ≥ %d", l.name, b[0], b[len(b)-1], l.first, l.last)
		}
		for i := 1; i < len(b); i++ {
			if g := float64(b[i]) / float64(b[i-1]); g <= 1 || g > 1.19 {
				t.Fatalf("%s bucket %d grows %v× over bucket %d", l.name, i, g, i-1)
			}
		}
	}
}

// logUniform draws n response times log-uniform between 1 ms and 1 h.
func logUniform(rng *rand.Rand, n int) []int64 { return logUniformIn(rng, n, 1e6, 3600e9) }

// logUniformIn draws n nanosecond values log-uniform between lo and hi.
func logUniformIn(rng *rand.Rand, n int, lo, hi float64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(math.Exp(math.Log(lo) + rng.Float64()*math.Log(hi/lo)))
	}
	return out
}

// TestResponseQuantileWithinOneBucket: on random log-uniform samples —
// 1 ms to 1 h in the response layout, 5 to 500 µs in the client layout —
// Histogram.Quantile is monotone in q and lies in the same bucket as the
// exact quantile of the sorted samples (the observation of rank ⌈q·n⌉),
// and ResponseQuantile reads the response layout by the same rule.
func TestResponseQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, l := range []struct {
		name   string
		bounds []int64
		lo, hi float64
	}{{"response", responseBounds, 1e6, 3600e9}, {"client", clientBounds, 5e3, 500e3}} {
		for trial := 0; trial < 200; trial++ {
			samples := logUniformIn(rng, 1+rng.Intn(3000), l.lo, l.hi)
			h := NewHistogram(l.bounds)
			for _, v := range samples {
				h.Observe(v)
			}
			slices.Sort(samples)
			qs := []float64{0.50, 0.95, 0.99, 1}
			for range 8 {
				qs = append(qs, 1-rng.Float64()) // (0, 1]
			}
			slices.Sort(qs)
			prev := 0.0
			for _, q := range qs {
				exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
				i, _ := slices.BinarySearch(l.bounds, exact)
				lo := 0.0
				if i > 0 {
					lo = float64(l.bounds[i-1]) / 1e9
				}
				got := h.Quantile(q)
				if got < lo || got > float64(l.bounds[i])/1e9 || got < prev {
					t.Fatalf("%s trial %d, n=%d, q=%g: histogram reads %v s (previous q %v), exact %d ns in bucket (%v s, %d ns]",
						l.name, trial, len(samples), q, got, prev, exact, lo, l.bounds[i])
				}
				prev = got
				if l.name == "response" && ResponseQuantile(h.Counts(), q) != h.Quantile(q) {
					t.Fatalf("trial %d q=%g: ResponseQuantile %v != Quantile %v", trial, q, ResponseQuantile(h.Counts(), q), h.Quantile(q))
				}
			}
		}
	}
	if got, empty := ResponseQuantile(nil, 0.5), NewClientHistogram().Quantile(0.5); got != 0 || empty != 0 {
		t.Errorf("empty histogram p50 = %v / %v, want 0", got, empty)
	}
}

// TestHistogramMergeEqualsUnion: adding two histograms' counts yields the
// histogram of the union of their samples — counts, sum and every
// quantile — so merged percentiles are exact, not a weighted estimate.
func TestHistogramMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a, b, union := NewResponseHistogram(), NewResponseHistogram(), NewResponseHistogram()
		for _, v := range logUniform(rng, rng.Intn(500)) {
			a.Observe(v)
			union.Observe(v)
		}
		for _, v := range logUniform(rng, rng.Intn(500)) {
			b.Observe(v)
			union.Observe(v)
		}
		merged := NewResponseHistogram()
		merged.Add(a.Counts(), a.Sum())
		merged.Add(b.Counts(), b.Sum())
		if !reflect.DeepEqual(merged.Counts(), union.Counts()) || merged.Sum() != union.Sum() || merged.Count() != union.Count() {
			t.Fatalf("trial %d: merged %v (sum %d, n %d) != union %v (sum %d, n %d)", trial,
				merged.Counts(), merged.Sum(), merged.Count(), union.Counts(), union.Sum(), union.Count())
		}
		for _, q := range []float64{0.50, 0.95, 0.99} {
			if m, u := ResponseQuantile(merged.Counts(), q), ResponseQuantile(union.Counts(), q); m != u {
				t.Fatalf("trial %d q=%g: merged %v != union %v", trial, q, m, u)
			}
		}
	}
}

// TestHistogramRestoreContinuity: a histogram restored from another's
// counts and sum continues exactly as the original does — what a
// snapshot or a migrated shard relies on.
func TestHistogramRestoreContinuity(t *testing.T) {
	a := NewResponseHistogram()
	for i := int64(1); i <= 100; i++ {
		a.Observe(i * 1e6)
	}
	b := NewResponseHistogram()
	b.Add(a.Counts(), a.Sum())
	for i := int64(101); i <= 200; i++ {
		a.Observe(i * 1e6)
		b.Observe(i * 1e6)
	}
	if !reflect.DeepEqual(a.Counts(), b.Counts()) || a.Sum() != b.Sum() || a.Count() != b.Count() {
		t.Errorf("restored histogram diverged: %v/%d/%d vs %v/%d/%d", a.Counts(), a.Sum(), a.Count(), b.Counts(), b.Sum(), b.Count())
	}
	// Counts past the layout land in +Inf rather than vanishing.
	c := NewResponseHistogram()
	c.Add(make([]int64, ResponseBuckets+2), 0)
	c.Add(append(make([]int64, ResponseBuckets+1), 3), 0)
	if got := c.Counts(); len(got) != ResponseBuckets || got[ResponseBuckets-1] != 3 || c.Count() != 3 {
		t.Errorf("overlong counts: %v, n %d", got, c.Count())
	}
}
