package obs

import (
	"fmt"
	"io"
	"sort"
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
}

// NewHistogram builds a histogram over the given ascending nanosecond
// bounds (the +Inf bucket is implicit).
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
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

// Observe records one nanosecond-valued observation.
func (h *Histogram) Observe(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return nanos <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(nanos)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

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
