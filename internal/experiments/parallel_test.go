package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRunGridParallelMatchesSequential is the tentpole determinism check:
// the grid must produce identical cells — same order, same costs, same
// responses — and identical rendered output for any worker count.
func TestRunGridParallelMatchesSequential(t *testing.T) {
	base := fastSettings()
	base.Schemes = []string{"bypass", "econ-cheap"}
	base.Intervals = []time.Duration{time.Second, 5 * time.Second}

	run := func(workers int) ([]Cell, []string) {
		s := base
		s.Workers = workers
		var lines []string
		s.OnProgress = func(line string) { lines = append(lines, line) }
		cells, err := RunGrid(s)
		if err != nil {
			t.Fatal(err)
		}
		return cells, lines
	}
	seq, seqLines := run(1)
	par, parLines := run(8)

	if len(seq) != len(par) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Scheme != b.Scheme || a.Interval != b.Interval {
			t.Errorf("cell %d order differs: (%s,%v) vs (%s,%v)",
				i, a.Scheme, a.Interval, b.Scheme, b.Interval)
		}
		if a.Report.OperatingCost != b.Report.OperatingCost {
			t.Errorf("cell %d cost differs: %v vs %v",
				i, a.Report.OperatingCost, b.Report.OperatingCost)
		}
		if a.Report.Response.Mean() != b.Report.Response.Mean() {
			t.Errorf("cell %d response differs: %v vs %v",
				i, a.Report.Response.Mean(), b.Report.Response.Mean())
		}
		if a.Report.Revenue != b.Report.Revenue || a.Report.CacheAnswered != b.Report.CacheAnswered {
			t.Errorf("cell %d accounting differs", i)
		}
	}

	// Byte-identical observable output: the rendered tables and the
	// progress stream.
	if Fig4Table(seq).String() != Fig4Table(par).String() {
		t.Error("Fig4 tables differ between worker counts")
	}
	if Fig5Table(seq).String() != Fig5Table(par).String() {
		t.Error("Fig5 tables differ between worker counts")
	}
	if len(seqLines) != len(parLines) {
		t.Fatalf("progress lines: %d vs %d", len(seqLines), len(parLines))
	}
	for i := range seqLines {
		if seqLines[i] != parLines[i] {
			t.Errorf("progress line %d differs:\n%s\nvs\n%s", i, seqLines[i], parLines[i])
		}
	}
}

// TestDispatchOrderLongestFirst: the paper grid is handed to the pool
// scheme by scheme in reverse paper order — the order of how many plans
// each scheme prices — and in grid order within a scheme, while the cells
// and the progress lines still come back in grid order.
func TestDispatchOrderLongestFirst(t *testing.T) {
	var jobs []cellJob
	for _, iv := range PaperIntervals {
		for _, name := range SchemeNames {
			jobs = append(jobs, cellJob{scheme: name, interval: iv})
		}
	}
	var got, want []string
	for _, i := range dispatchOrder(jobs) {
		got = append(got, fmt.Sprintf("%s/%v", jobs[i].scheme, jobs[i].interval))
	}
	for _, name := range []string{"econ-fast", "econ-cheap", "econ-col", "bypass"} {
		for _, iv := range PaperIntervals {
			want = append(want, fmt.Sprintf("%s/%v", name, iv))
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("dispatch order\n%v\nwant\n%v", got, want)
	}

	s := fastSettings()
	s.Queries, s.Workers = 300, 1
	s.Schemes = []string{"bypass", "econ-cheap"}
	s.Intervals = []time.Duration{time.Second, 5 * time.Second}
	var lines []string
	s.OnProgress = func(line string) { lines = append(lines, line) }
	cells, err := RunGrid(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(cells) || len(cells) != 4 {
		t.Fatalf("%d cells, %d progress lines, want 4 of each", len(cells), len(lines))
	}
	for i, c := range cells {
		if c.Scheme != s.Schemes[i%2] || c.Interval != s.Intervals[i/2] {
			t.Errorf("cell %d is %s/%v, out of grid order", i, c.Scheme, c.Interval)
		}
		if want := fmt.Sprintf("%-10s interval=%-4s cost=%-12s", c.Scheme, c.Interval, c.Cost()); !strings.HasPrefix(lines[i], want) {
			t.Errorf("progress line %d is %q, cell %d is %q", i, lines[i], i, want)
		}
	}
}

func TestCellSeedIsCoordinateFunction(t *testing.T) {
	a := CellSeed(42, "econ-cheap", time.Second)
	if a != CellSeed(42, "econ-cheap", time.Second) {
		t.Error("CellSeed is not stable")
	}
	for _, other := range []int64{
		CellSeed(42, "econ-cheap", 2*time.Second),
		CellSeed(42, "bypass", time.Second),
		CellSeed(43, "econ-cheap", time.Second),
	} {
		if a == other {
			t.Error("CellSeed collides across coordinates")
		}
	}
}

func TestRunGridContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunGridContext(ctx, fastSettings()); err == nil {
		t.Error("cancelled grid returned no error")
	}
}

func TestRunGridFirstErrorCancels(t *testing.T) {
	s := fastSettings()
	s.Schemes = []string{"bypass", "zzz"}
	if _, err := RunGrid(s); err == nil {
		t.Error("unknown scheme accepted by the grid")
	}
}

func TestAblationsRunParallel(t *testing.T) {
	// The ablation sweeps go through the same pool; a multi-worker sweep
	// must match a single-worker sweep row for row.
	s := fastSettings()
	s.Queries = 500
	run := func(workers int) string {
		s2 := s
		s2.Workers = workers
		tb, _, err := AblationRegretFraction(s2, []float64{0.001, 0.5}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("ablation differs by worker count:\n%s\nvs\n%s", a, b)
	}
}
