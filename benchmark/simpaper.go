package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/optimizer"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sim-paper repeats the paper's evaluation grid (four schemes at four
// inter-query intervals, Figures 4 and 5) through experiments.RunGrid.
// One operation — and one window — is one grid pass. No server and no
// socket exists on this workload.

// passSeed gives every pass of a run its own stream.
func passSeed(seed int64, pass int) int64 { return seed*4096 + int64(pass) }

func gridSettings(cfg runConfig, pass, workers int) experiments.Settings {
	return experiments.Settings{Queries: cfg.sc.simQueries, Seed: passSeed(cfg.seed, pass), Workers: workers}
}

// digest condenses a grid's reports; two passes over the same seed must
// produce the same bytes, whatever the worker count.
func digest(cells []experiments.Cell) string {
	h := sha256.New()
	for _, c := range cells {
		r := c.Report
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %d %d %d %d %.17g\n",
			c.Scheme, c.Interval, r.Queries, r.Declined, r.CacheAnswered, r.Investments, r.Failures,
			r.OperatingCost, r.Revenue, r.Profit, r.EndOfRun, r.Elapsed, r.FinalResidentBytes, r.Response.Mean())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridRatios are Figure 4's and Figure 5's headline: econ-cheap over the
// bypass-yield baseline, summed over the four intervals.
func gridRatios(cells []experiments.Cell) (costRatio, respRatio float64) {
	var ec, bc, er, br float64
	for _, c := range cells {
		switch c.Scheme {
		case "econ-cheap":
			ec += c.Cost().Dollars()
			er += c.MeanResponseSeconds()
		case "bypass":
			bc += c.Cost().Dollars()
			br += c.MeanResponseSeconds()
		}
	}
	return ec / bc, er / br
}

// simPasses is a stretch of timed grid passes. A pass is sim-paper's
// window: one operation whose latency is the pass's wall time and whose
// size is the queries it simulated.
type simPasses struct {
	segment           // a window's ops = queries simulated, lat = the pass's wall time
	cost    []float64 // econ-vs-bypass of the first econPasses passes
	resp    []float64
}

// timePasses runs passes firstPass, firstPass+1, … for at least d and at
// least minPasses.
func timePasses(cfg runConfig, workers, firstPass, minPasses int, d time.Duration) (*simPasses, error) {
	sp := &simPasses{}
	sp.begin()
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < d; n++ {
		cpu0, t0 := cpuTime(), time.Now()
		cells, err := experiments.RunGrid(gridSettings(cfg, firstPass+n, workers))
		win := window{elapsed: time.Since(t0), cpu: cpuTime() - cpu0}
		if err != nil {
			return nil, err
		}
		win.ops = len(cells) * cfg.sc.simQueries
		win.lat = []int64{int64(win.elapsed)}
		sp.windows = append(sp.windows, win)
		sp.queries += int64(win.ops)
		if n < cfg.sc.econPasses {
			c, r := gridRatios(cells)
			sp.cost = append(sp.cost, c)
			sp.resp = append(sp.resp, r)
		}
	}
	sp.end()
	return sp, nil
}

// walls are the passes' wall times in seconds, ascending.
func (sp *simPasses) walls() []float64 {
	v := make([]float64, len(sp.windows))
	for i, w := range sp.windows {
		v[i] = w.elapsed.Seconds()
	}
	return sorted(v)
}

func runSim(cfg runConfig) (*outcome, error) {
	workers := runtime.GOMAXPROCS(0)
	out := newOutcome(cfg.trace)
	calib0, err := calibrate()
	if err != nil {
		return nil, err
	}

	// Set-up: one warm pass, several times over. The same seed must give
	// the same reports every time.
	var setups []float64
	var warm string
	for rep := 0; rep < cfg.sc.setups; rep++ {
		t0 := time.Now()
		cells, err := experiments.RunGrid(gridSettings(cfg, 0, workers))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d := digest(cells)
		if want := len(experiments.SchemeNames) * len(experiments.PaperIntervals); len(cells) != want {
			out.violations = append(out.violations, fmt.Sprintf("grid: %d cells, want %d", len(cells), want))
		}
		for _, c := range cells {
			if c.Report.Queries != cfg.sc.simQueries {
				out.violations = append(out.violations, fmt.Sprintf("grid: cell %s/%s simulated %d queries, want %d", c.Scheme, c.Interval, c.Report.Queries, cfg.sc.simQueries))
			}
		}
		if rep > 0 && d != warm {
			out.violations = append(out.violations, fmt.Sprintf("determinism: warm pass %d digest %s, first %s", rep, d, warm))
		}
		warm = d
	}

	total := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		sp, err := timePasses(cfg, workers, 1, cfg.sc.econPasses, total)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m := medians(sp.windows)
		out.attempted, out.windows = int64(len(sp.windows)), len(sp.windows)
		out.metrics["setup_s"] = median(setups)
		out.metrics["queries_per_s"] = m.opsPerSec
		out.metrics["latency_p50_us"] = m.p50us
		out.metrics["latency_p95_us"] = quantile(sp.walls(), 0.95) * 1e6
		out.metrics["cpu_us_per_query"] = m.cpuUsOp
		out.metrics["peak_rss_mb"] = rss
		out.metrics["econ_cost_vs_bypass"] = mean(sp.cost)
		out.metrics["econ_resp_vs_bypass"] = mean(sp.resp)
		sp.health(out.health)
	} else {
		tr := newTracer()
		if err := simLayers(cfg, out, tr, workers, warm, total); err != nil {
			return nil, err
		}
		if err := tr.writeFile(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), cfg.workload); err != nil {
			return nil, err
		}
	}

	if err := out.calibrated(calib0); err != nil {
		return nil, err
	}
	return out, nil
}

// tracedCell is one grid cell run through sim.Run with the decorated
// scheme and source.
type tracedCell struct {
	sch  *tracedScheme
	src  *tracedSource
	cell experiments.Cell
	wall int64
}

// tracedPass runs one grid pass cell by cell, sequentially, handing
// sim.Run a decorated scheme.Scheme and workload.Source built exactly as
// experiments.RunGrid builds its own. Its reports must match RunGrid's.
func tracedPass(cfg runConfig, tr *tracer, pass int) ([]tracedCell, error) {
	cat := catalog.Paper()
	params := scheme.DefaultParams(cat)
	model, err := cost.NewModel(cat, params.Schedule, params.Tunables)
	if err != nil {
		return nil, err
	}
	var out []tracedCell
	for _, interval := range experiments.PaperIntervals {
		for _, name := range experiments.SchemeNames {
			sch, err := scheme.New(name, params)
			if err != nil {
				return nil, err
			}
			gen, err := workload.NewGenerator(workload.Config{
				Catalog:     cat,
				Seed:        experiments.CellSeed(passSeed(cfg.seed, pass), name, interval),
				Arrival:     workload.NewFixedArrival(interval),
				Budgets:     experiments.PaperBudgetPolicy(),
				Theta:       streamTheta,
				PhaseLength: streamPhase,
			})
			if err != nil {
				return nil, err
			}
			cellSpan := span{Kind: spSimCell, ID: tr.ids.Add(1)}
			cellSpan.Op = cellSpan.ID
			ts := &tracedScheme{Scheme: sch, tr: tr, cell: cellSpan.ID}
			if name != "bypass" {
				ts.shadow, err = optimizer.New(optimizer.Config{
					Model: model, AmortN: params.AmortN,
					AllowIndexes: name != "econ-col", AllowNodes: name != "econ-col",
				})
				if err != nil {
					return nil, err
				}
			}
			src := &tracedSource{Source: gen, tr: tr, cell: cellSpan.ID}
			cellSpan.Start = tr.now()
			rep, err := sim.Run(sim.Config{Scheme: ts, Source: src, Queries: cfg.sc.simQueries})
			cellSpan.End = tr.now()
			if err != nil {
				return nil, err
			}
			tr.add(cellSpan)
			out = append(out, tracedCell{sch: ts, src: src, wall: cellSpan.End - cellSpan.Start,
				cell: experiments.Cell{Scheme: name, Interval: interval, Report: rep}})
		}
	}
	return out, nil
}

// simLayers fills the per-layer metrics of sim-paper: plain passes for a
// quarter of the run, one pass on a single worker, then traced passes.
func simLayers(cfg runConfig, out *outcome, tr *tracer, workers int, warm string, total time.Duration) error {
	m := out.metrics
	plain, err := timePasses(cfg, workers, 1, 1, total/4)
	if err != nil {
		return err
	}

	// The warm pass's seed again on one worker: the grid's speed-up, and
	// the baseline the (sequential) traced pass is compared with.
	t0 := time.Now()
	cells, err := experiments.RunGrid(gridSettings(cfg, 0, 1))
	if err != nil {
		return err
	}
	single := time.Since(t0).Seconds()
	if d := digest(cells); d != warm {
		out.violations = append(out.violations, fmt.Sprintf("determinism: one worker digest %s, %d workers %s", d, workers, warm))
	}

	tr.on.Store(true)
	var passes [][]tracedCell
	var passWalls []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < total-total/4; n++ {
		t0 := time.Now()
		tc, err := tracedPass(cfg, tr, n)
		if err != nil {
			return err
		}
		passWalls = append(passWalls, time.Since(t0).Seconds())
		passes = append(passes, tc)
	}
	tr.on.Store(false)
	first := make([]experiments.Cell, len(passes[0]))
	for i, tc := range passes[0] {
		first[i] = tc.cell
	}
	if d := digest(first); d != warm {
		out.violations = append(out.violations, fmt.Sprintf("determinism: traced pass digest %s, RunGrid %s", d, warm))
	}
	out.attempted = int64(len(plain.windows) + 1 + len(passes))
	out.windows = len(passes)

	var queries, econQueries, plans, enumNs, handleNs, econHandleNs, genNs, genQueries, cellNs int64
	var cheapQ, cheapDeclined, cheapAnswered, cheapInvests, cheapEvictions, cheapResident int64
	for _, pass := range passes {
		for _, tc := range pass {
			queries += tc.sch.queries
			handleNs += tc.sch.handleNs
			cellNs += tc.wall
			genNs += tc.src.nanos
			genQueries += tc.src.queries
			if tc.sch.shadow != nil {
				econQueries += tc.sch.queries
				plans += tc.sch.plans
				enumNs += tc.sch.enumNanos
				econHandleNs += tc.sch.handleNs
			}
			if r := tc.cell.Report; tc.cell.Scheme == "econ-cheap" {
				cheapQ += int64(r.Queries)
				cheapDeclined += r.Declined
				cheapAnswered += r.CacheAnswered
				cheapInvests += r.Investments
				cheapEvictions += r.Failures
				cheapResident += r.FinalResidentBytes
			}
		}
	}
	q, eq := float64(queries), float64(max(econQueries, 1))
	m["workload.gen_ns_per_query"] = float64(genNs) / float64(max(genQueries, 1))
	m["optimizer.enumerate_ns_per_query"] = float64(enumNs) / eq
	m["optimizer.plans_per_query"] = float64(plans) / eq
	m["scheme.handle_ns_per_query"] = float64(handleNs) / q
	m["economy.self_ns_per_query"] = float64(econHandleNs-enumNs) / eq
	// The economy's books are read off econ-cheap, the scheme every
	// served workload runs.
	m["economy.investments_per_kq"] = float64(cheapInvests) / float64(cheapQ) * 1e3
	m["economy.evictions_per_kq"] = float64(cheapEvictions) / float64(cheapQ) * 1e3
	m["economy.declined_share"] = float64(cheapDeclined) / float64(cheapQ)
	m["cache.answered_share"] = float64(cheapAnswered) / float64(max(cheapQ-cheapDeclined, 1))
	m["cache.resident_gb_final"] = float64(cheapResident) / float64(4*len(passes)) / (1 << 30)
	// What sim.Run spends per query outside the scheme: its loop, the
	// hand-off from the producer goroutine, accounting — and the
	// decorators' own clock reads.
	m["sim.loop_self_ns_per_query"] = float64(cellNs-handleNs-enumNs) / q
	m["experiments.grid_speedup"] = single / median(plain.walls())
	m["obs.trace_overhead_pct"] = (passWalls[0] - single) / single * 100

	plain.process(m)
	walls := plain.walls()
	m["client.latency_p99_us"] = quantile(walls, 0.99) * 1e6
	m["client.latency_p999_us"] = quantile(walls, 0.999) * 1e6
	m["client.latency_max_us"] = quantile(walls, 1) * 1e6
	plain.health(out.health)
	m["harness.window_spread_pct"] = out.health["harness.window_spread_pct"]
	m["harness.steal_pct"] = out.health["harness.steal_pct"]
	// A traced pass is its cells run one after another: the cell spans
	// must add up to the pass.
	var passNs float64
	for _, w := range passWalls {
		passNs += w * 1e9
	}
	m["harness.layer_sum_gap_pct"] = (passNs - float64(cellNs)) / passNs * 100
	return nil
}
