package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram with atomic counters:
// one atomic add per observation, no locks, safe for any number of
// concurrent writers and readers. Bounds are cumulative upper limits in
// nanoseconds; observations above the last bound land in the implicit
// +Inf bucket.
type Histogram struct {
	bounds []int64 // ascending upper bounds, nanoseconds
	counts []atomic.Int64
	sum    atomic.Int64 // total nanoseconds observed
	count  atomic.Int64

	// octave[k] is the first bucket whose bound reaches 2^(k-1) (0 for
	// k = 0): an observation of bit length k falls in that bucket or a
	// later one whose bound is below 2^k, so Bucket steps through at most
	// one octave's bounds instead of searching them all.
	octave [65]int32
}

// NewHistogram builds a histogram over the given ascending nanosecond
// bounds (the +Inf bucket is implicit).
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	for k := 1; k < len(h.octave); k++ {
		i := int(h.octave[k-1])
		for i < len(bounds) && uint64(bounds[i]) < 1<<(k-1) {
			i++
		}
		h.octave[k] = int32(i)
	}
	return h
}

// NewLatencyHistogram builds the stage-latency histogram used by the
// tracer: exponential ×4 buckets from 1µs to ~17s, a range that spans
// sub-microsecond decode shares up to the longest promised executions.
func NewLatencyHistogram() *Histogram {
	bounds := make([]int64, 0, 13)
	for b := int64(1_000); b <= 17_179_869_184; b *= 4 { // 1µs … ~17.2s
		bounds = append(bounds, b)
	}
	return NewHistogram(bounds)
}

// ResponseBuckets is the bucket count of the response layout, +Inf
// included: the constant length of every response histogram's counts.
const ResponseBuckets = 90

// quarterOctaves returns n bounds growing 2^(1/4) per bucket (at most
// 19 % relative width) from first nanoseconds.
func quarterOctaves(first float64, n int) []int64 {
	b := make([]int64, n)
	for i := range b {
		b[i] = int64(math.Round(first * math.Exp2(float64(i)/4)))
	}
	return b
}

// responseBounds is the response layout: quarter octaves from 1 ms to
// 2^22 ms (~70 min). Served response times run from milliseconds to
// tenths of a second, and simulated ones to tens of seconds; a ×4 stage
// layout would put a whole decade of them in two buckets.
var responseBounds = quarterOctaves(1e6, ResponseBuckets-1)

// clientBounds is the client layout: the same quarter octaves from 1 µs
// to 2^26 µs (~67 s). A client's round trips over a local socket take
// tens to hundreds of microseconds, below the response layout's floor.
var clientBounds = quarterOctaves(1e3, 105)

// NewResponseHistogram builds a response-time histogram in the response
// layout, the one every shard and every simulation records into and every
// stats reader merges.
func NewResponseHistogram() *Histogram { return NewHistogram(responseBounds) }

// NewClientHistogram builds a round-trip histogram in the client layout,
// the one load generators record request latencies into.
func NewClientHistogram() *Histogram { return NewHistogram(clientBounds) }

// ResponseQuantile estimates the q-quantile (0 ≤ q ≤ 1), in seconds, of
// bucket counts in the response layout — one histogram's Counts, or the
// element-wise sum of several, which is the histogram of their union — by
// the rule Histogram.Quantile states.
func ResponseQuantile(counts []int64, q float64) float64 {
	return quantile(responseBounds, counts, q)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of h's observations, in
// seconds. It finds the bucket holding the observation of rank ⌈q·n⌉ and
// interpolates linearly inside it, so the estimate lies in the same bucket
// as that observation; the +Inf bucket reads as the last bound. Returns 0
// with no observations.
func (h *Histogram) Quantile(q float64) float64 { return quantile(h.bounds, h.Counts(), q) }

// quantile is Quantile over bucket counts in the layout bounds.
func quantile(bounds, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	rank := min(max(q, 0), 1) * float64(total)
	var cum int64
	for i, c := range counts {
		if c <= 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(bounds) {
			break
		}
		lo := int64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return (float64(lo) + float64(hi-lo)*(rank-float64(cum))/float64(c)) / 1e9
	}
	return float64(bounds[len(bounds)-1]) / 1e9
}

// Observe records one nanosecond-valued observation.
func (h *Histogram) Observe(nanos int64) {
	nanos = max(nanos, 0)
	h.counts[h.Bucket(nanos)].Add(1)
	h.sum.Add(nanos)
	h.count.Add(1)
}

// Bucket returns the index, into Counts' layout, of the bucket a
// non-negative observation falls in: the first bound at or above it, or
// the +Inf bucket past the last. A single-goroutine recorder can keep
// plain counts by it and fold them in with Add.
func (h *Histogram) Bucket(nanos int64) int {
	i := int(h.octave[bits.Len64(uint64(nanos))])
	for i < len(h.bounds) && nanos > h.bounds[i] {
		i++
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact total of the observations, nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the exact mean observation, sum / count, in seconds (0
// with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n) / 1e9
}

// Counts returns the per-bucket counts, dense and without trailing empty
// buckets (nil when nothing was observed).
func (h *Histogram) Counts() []int64 {
	n := len(h.counts)
	for n > 0 && h.counts[n-1].Load() == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Add merges counts in h's layout, as Counts returns them, and their
// nanosecond sum into h: merging histograms is adding their counts, and
// restoring one is adding its counts to a fresh one. Counts past h's
// buckets land in +Inf.
func (h *Histogram) Add(counts []int64, sumNanos int64) {
	var n int64
	for i, c := range counts {
		h.counts[min(i, len(h.counts)-1)].Add(c)
		n += c
	}
	h.count.Add(n)
	h.sum.Add(sumNanos)
}

// WritePrometheus writes the histogram in Prometheus text exposition
// format under the given fully-qualified metric name, with cumulative
// le-labelled buckets in seconds. labels, when non-empty, is a
// ready-formatted label body without braces (e.g. `stage="decide"`).
func (h *Histogram) WritePrometheus(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, float64(b)/1e9, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, float64(h.sum.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}
