// Package metrics provides the small statistics toolkit the simulator and
// the experiment harness report with: running means, percentile estimation
// over bounded reservoirs and fixed-width table rendering. The served path
// records response times into obs.Histogram instead, whose counts merge.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Running accumulates a stream of float64 observations with O(1) memory.
type Running struct {
	n          int64
	mean, m2   float64
	min, max   float64
	sum        float64
	hasSamples bool
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	r.n++
	r.sum += x
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
	if !r.hasSamples || x < r.min {
		r.min = x
	}
	if !r.hasSamples || x > r.max {
		r.max = x
	}
	r.hasSamples = true
}

// N returns the sample count.
func (r *Running) N() int64 { return r.n }

// Sum returns the sample total.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the running mean (0 with no samples).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.mean
}

// Var returns the unbiased sample variance (0 with <2 samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Stddev returns the sample standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest sample (0 with no samples).
func (r *Running) Min() float64 {
	if !r.hasSamples {
		return 0
	}
	return r.min
}

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 {
	if !r.hasSamples {
		return 0
	}
	return r.max
}

// Reservoir keeps a bounded uniform sample of a stream for percentile
// estimation (Vitter's algorithm R) with a deterministic internal PRNG so
// simulations stay reproducible.
type Reservoir struct {
	cap   int
	seen  int64
	data  []float64
	state uint64
}

// NewReservoir creates a reservoir with the given capacity (minimum 1).
// The sample buffer is allocated up front so Observe never allocates —
// the simulator observes a response time per query.
func NewReservoir(capacity int) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{cap: capacity, data: make([]float64, 0, capacity), state: 0x9E3779B97F4A7C15}
}

// SplitMix64 advances a SplitMix64 state and returns the next state and
// output. It is the one PRNG implementation shared by every component
// whose random state must be reproducible from a plain uint64 (the
// reservoir's replacement draws, the serving layer's persisted
// selectivity draws): a single uint64 restores the exact sequence, which
// math/rand cannot offer.
func SplitMix64(state uint64) (next, out uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// nextRand is a SplitMix64 step.
func (r *Reservoir) nextRand() uint64 {
	var out uint64
	r.state, out = SplitMix64(r.state)
	return out
}

// Observe adds one sample.
func (r *Reservoir) Observe(x float64) {
	r.seen++
	if len(r.data) < r.cap {
		r.data = append(r.data, x)
		return
	}
	// Replace a random slot with probability cap/seen.
	j := r.nextRand() % uint64(r.seen)
	if j < uint64(r.cap) {
		r.data[j] = x
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the reservoir using
// linear interpolation. Returns 0 with no samples.
func (r *Reservoir) Quantile(q float64) float64 {
	sorted := make([]float64, len(r.data))
	copy(sorted, r.data)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted interpolates the q-quantile (0 ≤ q ≤ 1) of an ascending
// sample set: what Reservoir.Quantile returns for the same samples, for a
// caller that sorted its own copy once and reads several quantiles off it.
// Returns 0 with no samples.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DurationStats couples a Running and a Reservoir for a duration-valued
// series, reporting in seconds.
type DurationStats struct {
	Running
	res *Reservoir
}

// MarshalJSON reports the series' headline statistics (count, mean and
// percentiles in seconds) instead of the opaque internals, so reports
// embedding a DurationStats serialize meaningfully — and golden-file
// tests pin the reported values.
func (d *DurationStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N       int64   `json:"n"`
		MeanSec float64 `json:"mean_s"`
		P50Sec  float64 `json:"p50_s"`
		P95Sec  float64 `json:"p95_s"`
		P99Sec  float64 `json:"p99_s"`
		MaxSec  float64 `json:"max_s"`
	}{d.N(), d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Max()})
}

// NewDurationStats creates duration statistics with a percentile reservoir.
func NewDurationStats(reservoirCap int) *DurationStats {
	return &DurationStats{res: NewReservoir(reservoirCap)}
}

// ObserveDuration adds one duration sample.
func (d *DurationStats) ObserveDuration(t time.Duration) {
	s := t.Seconds()
	d.Observe(s)
	d.res.Observe(s)
}

// Percentile estimates a percentile in seconds (p in [0,100]).
func (d *DurationStats) Percentile(p float64) float64 {
	return d.res.Quantile(p / 100)
}

// Table renders aligned textual tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Shorter rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with right-padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }
