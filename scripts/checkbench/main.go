// Command checkbench gates three contracts recorded in
// BENCH_server.json:
//
//   - Tracing: the mode=inproc cell with the tracer installed but
//     sampling disabled ("trace=off") must stay within 5% of the
//     identical cell without a tracer at all — the observability
//     layer's "off costs ~nothing" contract. The 1-in-64 sampling cell
//     is reported for the EXPERIMENTS.md overhead table but not gated:
//     sampled runs pay for what they measure.
//   - Routing: each mode=routed cell (the pipelined load through a
//     cloudrouter front) must retain at least 85% of its mode=pipelined
//     twin's throughput — the cluster tier's "the hop is cheap"
//     contract.
//   - Allocations: every in-process admission cell (inproc, batch)
//     must stay within 10% (plus one alloc of absolute slack) of the
//     allocs/query recorded when the allocation-free hot path landed —
//     the "steady state does not allocate" contract — and so must the
//     wire front's singleton cell (pipelined batch=1: client encode,
//     frame, inline decision, reply, client decode), recorded when a
//     one-query frame stopped paying the batch path's buffers.
//     Throughput is noisy on shared hosts; allocation counts are nearly
//     deterministic, so this gate is the sharp one.
//
// The decision engine's zero-allocation contract is not here: it is a
// plain tier-1 test (TestDecideAllocs at the repository root).
//
// Usage: go run ./scripts/checkbench [BENCH_server.json]
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type cell struct {
	Mode           string  `json:"mode"`
	Shards         int     `json:"shards"`
	Batch          int     `json:"batch"`
	Trace          string  `json:"trace"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
}

type benchFile struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	Cells      []cell `json:"cells"`
}

// maxTraceOffRegression is the gate: trace=off must retain at least this
// fraction of the no-tracer baseline's throughput.
const maxTraceOffRegression = 0.05

// maxRoutedOverhead is the cluster gate: a routed cell must retain at
// least 1-maxRoutedOverhead of its direct (pipelined) twin's throughput.
const maxRoutedOverhead = 0.15

// The allocation gate: a cell fails when its allocs/query
// exceeds baseline*(1+maxAllocRegression)+allocSlack. The baselines are
// the values BENCH_server.json recorded when the allocation-free hot
// path landed (steady-state window, post-warm-up); the absolute slack
// keeps near-zero baselines from tripping on one stray background
// allocation. `make profile` shows where new allocations come from.
const (
	maxAllocRegression = 0.10
	allocSlack         = 1.0
)

type allocKey struct {
	mode   string
	shards int
	batch  int
}

var allocBaseline = map[allocKey]float64{
	{"inproc", 1, 1}: 4.2,
	{"inproc", 2, 1}: 4.8,
	{"inproc", 4, 1}: 4.9,
	{"inproc", 8, 1}: 5.8,
	{"batch", 4, 16}: 3.6,
	{"batch", 4, 64}: 1.1,
	// The wire front end to end, client included (28.7 before the
	// singleton path). Gated at procs=1 only: the cell starts 64
	// submitter goroutines per proc, and in the sweep's 1000-op window
	// their start-up is part of the count, so wider cells read higher
	// (8.2 at 4 procs, 10.2 at 8) for no reason in the front.
	{"pipelined", 4, 1}: 6.8,
}

func main() {
	path := "BENCH_server.json"
	if len(os.Args) > 1 {
		path = os.Args[1]
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}

	// The three comparable cells: same mode/shards/batch/procs, only the
	// tracing configuration differs.
	find := func(trace string) *cell {
		for i := range f.Cells {
			c := &f.Cells[i]
			if c.Mode == "inproc" && c.Shards == 4 && c.Batch == 1 && c.GoMaxProcs == f.GoMaxProcs && c.Trace == trace {
				return c
			}
		}
		return nil
	}
	// "none" is the trace group's own no-tracer baseline, measured in
	// the same adjacent window of the sweep as the off/sampled cells
	// (the plain "" default rows run much earlier, in a different noise
	// regime on shared hosts).
	base := find("none")
	off := find("off")
	sampled := find("1/64")
	if base == nil || off == nil {
		fatal(fmt.Errorf("%s: missing mode=inproc trace cells (base %v, off %v) — rerun the ServerThroughput sweep", path, base != nil, off != nil))
	}

	report := func(name string, c *cell) {
		delta := (c.QueriesPerSec - base.QueriesPerSec) / base.QueriesPerSec * 100
		fmt.Printf("%-12s %12.0f queries/s  %6.1f allocs/query  (%+.1f%% vs no tracer)\n",
			name, c.QueriesPerSec, c.AllocsPerQuery, delta)
	}
	fmt.Printf("%-12s %12.0f queries/s  %6.1f allocs/query\n", "no tracer", base.QueriesPerSec, base.AllocsPerQuery)
	report("trace=off", off)
	if sampled != nil {
		report("trace=1/64", sampled)
	}

	floor := base.QueriesPerSec * (1 - maxTraceOffRegression)
	if off.QueriesPerSec < floor {
		fatal(fmt.Errorf("trace=off throughput %.0f queries/s fell below %.0f (%.0f%% of the no-tracer baseline %.0f)",
			off.QueriesPerSec, floor, (1-maxTraceOffRegression)*100, base.QueriesPerSec))
	}
	fmt.Printf("OK: idle tracer costs %.1f%% (gate: %.0f%%)\n",
		(base.QueriesPerSec-off.QueriesPerSec)/base.QueriesPerSec*100, maxTraceOffRegression*100)

	// Router overhead: every routed cell against its pipelined twin
	// (same shards/batch/procs/RTT, one extra hop). Older trajectories
	// without routed cells pass vacuously.
	findMode := func(mode string, batch int) *cell {
		for i := range f.Cells {
			c := &f.Cells[i]
			if c.Mode == mode && c.Shards == 4 && c.Batch == batch && c.GoMaxProcs == f.GoMaxProcs && c.Trace == "" {
				return c
			}
		}
		return nil
	}
	for _, batch := range []int{1, 64} {
		routed := findMode("routed", batch)
		if routed == nil {
			continue
		}
		direct := findMode("pipelined", batch)
		if direct == nil {
			fatal(fmt.Errorf("%s: mode=routed/batch=%d present but its mode=pipelined twin is missing — rerun the ServerThroughput sweep", path, batch))
		}
		overhead := (direct.QueriesPerSec - routed.QueriesPerSec) / direct.QueriesPerSec * 100
		fmt.Printf("%-20s %12.0f queries/s  vs direct %12.0f  (%+.1f%%)\n",
			fmt.Sprintf("routed/batch=%d", batch), routed.QueriesPerSec, direct.QueriesPerSec, -overhead)
		if routed.QueriesPerSec < direct.QueriesPerSec*(1-maxRoutedOverhead) {
			fatal(fmt.Errorf("routed/batch=%d throughput %.0f queries/s is %.1f%% below direct %.0f (gate: %.0f%%)",
				batch, routed.QueriesPerSec, overhead, direct.QueriesPerSec, maxRoutedOverhead*100))
		}
	}

	// Allocation regression: every cell with a recorded baseline — the
	// in-process ones at any scheduler width (their allocs/query does not
	// depend on GOMAXPROCS), the wire front's at one proc. Trace cells are
	// covered by their trace="" twin.
	gated := 0
	for i := range f.Cells {
		c := &f.Cells[i]
		if c.Trace != "" || (c.Mode == "pipelined" && c.GoMaxProcs != 1) {
			continue
		}
		base, ok := allocBaseline[allocKey{c.Mode, c.Shards, c.Batch}]
		if !ok {
			continue
		}
		gated++
		budget := base*(1+maxAllocRegression) + allocSlack
		fmt.Printf("%-30s %6.2f allocs/query  (baseline %.2f, budget %.2f)\n",
			fmt.Sprintf("allocs %s/shards=%d/batch=%d/procs=%d", c.Mode, c.Shards, c.Batch, c.GoMaxProcs),
			c.AllocsPerQuery, base, budget)
		if c.AllocsPerQuery > budget {
			fatal(fmt.Errorf("%s/shards=%d/batch=%d/procs=%d allocates %.2f per query, over the %.2f budget (baseline %.2f +%.0f%% +%.0f slack) — run `make profile` for the top allocation sites",
				c.Mode, c.Shards, c.Batch, c.GoMaxProcs, c.AllocsPerQuery, budget, base, maxAllocRegression*100, allocSlack))
		}
	}
	if gated == 0 {
		fatal(fmt.Errorf("%s: no cells matched the allocation baselines — rerun the ServerThroughput sweep", path))
	}
	fmt.Printf("OK: %d cells within their allocation budgets\n", gated)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkbench:", err)
	os.Exit(1)
}
