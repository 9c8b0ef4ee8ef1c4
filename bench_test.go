package cloudcache

// Microbenchmarks and the decision engine's allocation gate. The paper's
// figures come from `cmd/figures`; served and offline throughput from the
// repository benchmark (`benchmark/run.sh`, BENCHMARK.json).

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
)

// --- Parallel grid engine -------------------------------------------------

// gridBenchQueries keeps one full 16-cell grid to a few seconds of wall
// time per iteration.
const gridBenchQueries = 5_000

// BenchmarkGridWorkers runs the worker-pool grid engine at several worker
// counts — the offline half of `make profile`; combine with -cpu to sweep
// GOMAXPROCS too. Each run reports the worker count, grid throughput in
// queries/s, allocation counts, and the wall-clock speedup over the same
// grid at Workers: 1. Cell results are byte-identical at every worker
// count, so the speedup is pure dispatch.
func BenchmarkGridWorkers(b *testing.B) {
	gridSettings := func(workers int) Settings {
		return Settings{Queries: gridBenchQueries, Seed: 42, Workers: workers}
	}
	cellCount := len(experiments.SchemeNames) * len(experiments.PaperIntervals)

	// The workers=1 sub-benchmark runs first and its averaged per-op time
	// is the speedup baseline, so speedup-x is warm-vs-warm (and reads
	// exactly 1.0 at workers=1).
	var baseline time.Duration
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunGrid(gridSettings(workers)); err != nil {
					b.Fatal(err)
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			if workers == 1 {
				baseline = perOp
			}
			b.ReportMetric(float64(workers), "workers")
			b.ReportMetric(float64(gridBenchQueries*cellCount)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			if baseline > 0 {
				b.ReportMetric(baseline.Seconds()/perOp.Seconds(), "speedup-x")
			}
		})
	}
}

// --- The decision engine alone ----------------------------------------------

// decideWarmup and decideInterval shape the decision engine's measured
// state: a stationary stream (no popularity drift) at 10 s spacing, long
// enough that every structure the workload will ever want has been bought
// and built before measurement starts — the engine's steady state, where a
// query finds its structures resident, pays their shares and triggers
// nothing.
const (
	decideWarmup   = 60_000
	decideInterval = 10 * time.Second
)

// warmDecide builds one scheme, runs it through the warm-up, and returns
// it with n more queries of the same stream drawn up front: generation
// allocates (a Query and a budget per query) and is not the engine.
func warmDecide(tb testing.TB, name string, n int) (Scheme, []*Query) {
	tb.Helper()
	cat := PaperCatalog()
	sch, err := NewScheme(name, DefaultParams(cat))
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := NewWorkload(WorkloadConfig{
		Catalog:     cat,
		Seed:        1,
		Arrival:     FixedArrival(decideInterval),
		Budgets:     PaperBudgets(),
		PhaseLength: 1 << 40, // one phase: no drift, so the state settles
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < decideWarmup; i++ {
		if _, err := sch.HandleQuery(gen.Next()); err != nil {
			tb.Fatal(err)
		}
	}
	return sch, gen.Batch(n, nil)
}

// TestDecideAllocs gates the decision engine — scheme.HandleQuery, the
// per-query floor under sim.Run, a server shard and a router backend — at
// zero allocations per query on the warmed state, for every scheme. The
// engine indexes slices by structure slot; a string minted, a map grown or
// a slice made per query reads as >= 1 here, while the only allocations a
// settled state still makes (the Entry of a rare build) stay orders of
// magnitude under the gate.
func TestDecideAllocs(t *testing.T) {
	const queries, maxAllocs = 50_000, 0.005
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			sch, stream := warmDecide(t, name, queries)
			// The malloc delta, not testing.AllocsPerRun: a fraction of an
			// allocation per query must still show.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, q := range stream {
				if _, err := sch.HandleQuery(q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if got := float64(after.Mallocs-before.Mallocs) / queries; got >= maxAllocs {
				t.Errorf("%s allocates %.4f per query (gate: 0.00); `go test -run '^$' -bench Decide/%s -memprofile mem.prof .` shows the site", name, got, name)
			}
		})
	}
}

// BenchmarkDecide times scheme.HandleQuery in-process, per scheme, on that
// warmed state.
func BenchmarkDecide(b *testing.B) {
	for _, name := range SchemeNames() {
		b.Run(name, func(b *testing.B) {
			sch, stream := warmDecide(b, name, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, q := range stream {
				if _, err := sch.HandleQuery(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks on the per-query hot path ----------------------------

// BenchmarkWorkloadGeneration measures query-stream generation alone.
func BenchmarkWorkloadGeneration(b *testing.B) {
	gen, err := NewWorkload(WorkloadConfig{
		Catalog: PaperCatalog(),
		Seed:    1,
		Arrival: FixedArrival(time.Second),
		Budgets: PaperBudgets(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next()
	}
}

// BenchmarkBudgetEval measures a budget-function evaluation.
func BenchmarkBudgetEval(b *testing.B) {
	f := ConcaveBudget(Dollars(0.01), 60*time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.At(time.Duration(i%60) * time.Second)
	}
}
