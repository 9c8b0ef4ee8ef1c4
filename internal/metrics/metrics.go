// Package metrics provides the small statistics toolkit the simulator and
// the experiment harness report with: running means, percentile estimation
// over bounded reservoirs, counters and fixed-width table rendering.
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
// the serving hot path observes a response time per query.
func NewReservoir(capacity int) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{cap: capacity, data: make([]float64, 0, capacity), state: 0x9E3779B97F4A7C15}
}

// SplitMix64 advances a SplitMix64 state and returns the next state and
// output. It is the one PRNG implementation shared by every component
// whose random state must be persistable as a plain uint64 (the
// reservoir's replacement draws, the serving layer's selectivity
// draws): a single uint64 restores the exact sequence, which math/rand
// cannot offer.
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

// Seen reports how many samples were observed (not how many are retained).
func (r *Reservoir) Seen() int64 { return r.seen }

// Samples returns a copy of the retained sample set, for merging reservoirs
// across shards or exporting raw data. The copy is unsorted.
func (r *Reservoir) Samples() []float64 {
	out := make([]float64, len(r.data))
	copy(out, r.data)
	return out
}

// QuantilesOfSortedRuns estimates quantiles over the union of several
// ascending sample runs, every sample of runs[i] carrying weights[i]. This
// is the correct way to merge capped reservoirs from streams of different
// lengths: a reservoir that retained k of n observations contributes each
// sample with weight n/k, so a busy shard is not flattened to equal
// footing with an idle one. The runs are merged k-way — each was sorted
// once by whoever produced it, so nothing is sorted again here; equal
// values keep run order. Uses midpoint positions with linear
// interpolation; runs and weights must have equal length (runs with a
// weight <= 0 are skipped). Results are 0 with no positive-weight samples.
func QuantilesOfSortedRuns(runs [][]float64, weights []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	// heads is a binary min-heap of the runs that still have samples,
	// ordered by each run's next sample, then by run index.
	heads := make([]int, 0, len(runs))
	next := make([]int, len(runs))
	n, total := 0, 0.0
	for i, run := range runs {
		if weights[i] > 0 && len(run) > 0 {
			heads = append(heads, i)
			n += len(run)
		}
	}
	if n == 0 {
		return out
	}
	less := func(a, b int) bool {
		va, vb := runs[a][next[a]], runs[b][next[b]]
		return va < vb || va == vb && a < b
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heads) {
				return
			}
			if c+1 < len(heads) && less(heads[c+1], heads[c]) {
				c++
			}
			if !less(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	// vals is the merged run; pos[k] is the cumulative-midpoint position
	// of sample k in [0,1] once divided by the total weight.
	vals := make([]float64, 0, n)
	pos := make([]float64, 0, n)
	for len(heads) > 0 {
		r := heads[0]
		w := weights[r]
		vals = append(vals, runs[r][next[r]])
		pos = append(pos, total+w/2)
		total += w
		if next[r]++; next[r] == len(runs[r]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		siftDown(0)
	}
	for i := range pos {
		pos[i] /= total
	}
	for j, q := range qs {
		switch {
		case q <= pos[0]:
			out[j] = vals[0]
		case q >= pos[n-1]:
			out[j] = vals[n-1]
		default:
			i := sort.SearchFloat64s(pos, q)
			lo, hi := i-1, i
			frac := (q - pos[lo]) / (pos[hi] - pos[lo])
			out[j] = vals[lo]*(1-frac) + vals[hi]*frac
		}
	}
	return out
}

// RunningState is the exported form of a Running accumulator, for
// persistence. Restoring it reproduces the accumulator bit for bit, so
// means and variances continue exactly where they left off.
type RunningState struct {
	N          int64
	Mean       float64
	M2         float64
	Min        float64
	Max        float64
	Sum        float64
	HasSamples bool
}

// State exports the accumulator.
func (r *Running) State() RunningState {
	return RunningState{N: r.n, Mean: r.mean, M2: r.m2, Min: r.min, Max: r.max, Sum: r.sum, HasSamples: r.hasSamples}
}

// Restore adopts a previously exported state wholesale.
func (r *Running) Restore(st RunningState) {
	r.n, r.mean, r.m2, r.min, r.max, r.sum, r.hasSamples = st.N, st.Mean, st.M2, st.Min, st.Max, st.Sum, st.HasSamples
}

// ReservoirState is the exported form of a Reservoir, including the
// internal PRNG state, so a restored reservoir continues the exact
// replacement sequence of the original — percentile estimates after a
// restart are byte-identical to an uninterrupted run's.
type ReservoirState struct {
	Cap  int
	Seen int64
	Data []float64
	PRNG uint64
}

// State exports the reservoir (the sample slice is copied).
func (r *Reservoir) State() ReservoirState {
	return ReservoirState{Cap: r.cap, Seen: r.seen, Data: r.Samples(), PRNG: r.state}
}

// Restore adopts a previously exported state. The state's capacity wins
// over the receiver's so restored percentile behavior matches the
// original exactly; insane values are clamped rather than rejected.
// Seen in particular must stay >= len(Data) and >= 0, or the next
// Observe's replacement draw (mod seen) would divide by zero.
func (r *Reservoir) Restore(st ReservoirState) {
	if st.Cap < 1 {
		st.Cap = 1
	}
	n := len(st.Data)
	if n > st.Cap {
		n = st.Cap
	}
	// Full capacity up front, like NewReservoir: Observe after a restore
	// must stay allocation-free too.
	data := make([]float64, n, st.Cap)
	copy(data, st.Data[:n])
	if st.Seen < int64(n) {
		st.Seen = int64(n)
	}
	r.cap, r.seen, r.data, r.state = st.Cap, st.Seen, data, st.PRNG
}

// DurationStats couples a Running and a Reservoir for a duration-valued
// series, reporting in seconds.
type DurationStats struct {
	Running
	res *Reservoir
}

// DurationStatsState is the exported form of a DurationStats.
type DurationStatsState struct {
	Running   RunningState
	Reservoir ReservoirState
}

// State exports the statistics.
func (d *DurationStats) State() DurationStatsState {
	return DurationStatsState{Running: d.Running.State(), Reservoir: d.res.State()}
}

// Restore adopts a previously exported state.
func (d *DurationStats) Restore(st DurationStatsState) {
	d.Running.Restore(st.Running)
	d.res.Restore(st.Reservoir)
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

// Samples returns a copy of the reservoir's retained samples in seconds.
func (d *DurationStats) Samples() []float64 { return d.res.Samples() }

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
