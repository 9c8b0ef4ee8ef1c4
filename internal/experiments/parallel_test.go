package experiments

import (
	"context"
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
