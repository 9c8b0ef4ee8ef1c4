package metrics

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Min() != 0 || r.Max() != 0 || r.N() != 0 {
		t.Error("zero Running misbehaves")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 || r.Sum() != 40 {
		t.Errorf("N=%d Sum=%v", r.N(), r.Sum())
	}
	if got := r.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population stddev of this classic set is 2; sample variance = 32/7.
	if got := r.Var(); math.Abs(got-32.0/7.0) > 1e-9 {
		t.Errorf("Var = %v, want %v", got, 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Observe(-3)
	if r.Mean() != -3 || r.Var() != 0 || r.Min() != -3 || r.Max() != -3 {
		t.Error("single negative sample misbehaves")
	}
}

func TestReservoirExact(t *testing.T) {
	// Fewer samples than capacity: quantiles are exact.
	r := NewReservoir(100)
	for i := 1; i <= 10; i++ {
		r.Observe(float64(i))
	}
	if got := r.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := r.Quantile(1); got != 10 {
		t.Errorf("q1 = %v", got)
	}
	if got := r.Quantile(0.5); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if r.seen != 10 {
		t.Errorf("Seen = %d", r.seen)
	}
}

func TestReservoirClampsQ(t *testing.T) {
	r := NewReservoir(4)
	r.Observe(1)
	r.Observe(2)
	if r.Quantile(-1) != 1 || r.Quantile(2) != 2 {
		t.Error("q clamp wrong")
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(4)
	if r.Quantile(0.5) != 0 {
		t.Error("empty reservoir quantile should be 0")
	}
}

func TestReservoirSubsamples(t *testing.T) {
	r := NewReservoir(64)
	for i := 0; i < 10000; i++ {
		r.Observe(float64(i % 100))
	}
	// Median of uniform 0..99 should be near 49.5.
	med := r.Quantile(0.5)
	if med < 25 || med > 75 {
		t.Errorf("median = %v, wildly off", med)
	}
	if r.seen != 10000 {
		t.Errorf("Seen = %d", r.seen)
	}
}

func TestReservoirMinCapacity(t *testing.T) {
	r := NewReservoir(0)
	r.Observe(7)
	if got := r.Quantile(0.5); got != 7 {
		t.Errorf("capacity floor broken: %v", got)
	}
}

func TestDurationStats(t *testing.T) {
	d := NewDurationStats(16)
	for i := 1; i <= 4; i++ {
		d.ObserveDuration(time.Duration(i) * time.Second)
	}
	if got := d.Mean(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
	if got := d.Percentile(100); math.Abs(got-4) > 1e-9 {
		t.Errorf("p100 = %v", got)
	}
	if got := d.Percentile(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("p0 = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("scheme", "cost")
	tb.AddRow("bypass", "$1.00")
	tb.AddRow("econ-cheap") // short row padded
	out := tb.String()
	if !strings.Contains(out, "scheme") || !strings.Contains(out, "bypass") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("line count = %d\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	// All lines align to equal width per column: header width check.
	if !strings.HasPrefix(lines[1], "------") {
		t.Errorf("separator malformed: %q", lines[1])
	}
}

// Property: running mean stays within [min, max].
func TestRunningMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Bound magnitudes: near-MaxFloat64 inputs overflow the
			// incremental mean, which is out of scope for seconds-
			// and dollars-valued series.
			r.Observe(math.Mod(x, 1e12))
		}
		if r.N() > 0 {
			slack := 1e-6 * (math.Abs(r.Min()) + math.Abs(r.Max()) + 1)
			ok = r.Mean() >= r.Min()-slack && r.Mean() <= r.Max()+slack
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		r := NewReservoir(128)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			r.Observe(x)
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return r.Quantile(qa) <= r.Quantile(qb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuantileSortedIsReservoirQuantile: reading several quantiles off one
// sorted copy is bit-identical to asking the reservoir for each.
func TestQuantileSortedIsReservoirQuantile(t *testing.T) {
	d := NewDurationStats(64)
	for i := 0; i < 1000; i++ {
		d.ObserveDuration(time.Duration((i*7919)%1000) * time.Millisecond)
	}
	sorted := slices.Clone(d.res.data)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got, want := QuantileSorted(sorted, p/100), d.Percentile(p); got != want {
			t.Errorf("p%g: QuantileSorted = %v, Percentile = %v", p, got, want)
		}
	}
}
