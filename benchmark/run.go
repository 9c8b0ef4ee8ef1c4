package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/persist"
	"repro/internal/scheme"
	"repro/internal/server/wire"
	"repro/internal/sim"
)

// scale sizes a run. The benchmark always runs at fullScale; the
// harness's own tests use smallScale to finish in a second.
type scale struct {
	pool       int // queries generated for a served workload
	replay     int // of those, replayed offline for econ-vs-bypass
	warmDiv    int // divides each workload's warm-up
	readDiv    int64
	setups     int // times the set-up is repeated; setup_s is their median
	simQueries int // queries per grid cell of sim-paper
	econPasses int // sim-paper passes behind the econ-vs-bypass figures
	probes     int // repetitions of each direct timed call in a traced run
}

var (
	fullScale  = scale{pool: 200_000, replay: 50_000, warmDiv: 1, readDiv: 1, setups: 3, simQueries: 10_000, econPasses: 4, probes: 5}
	smallScale = scale{pool: 6_400, replay: 2_000, warmDiv: 30, readDiv: 20, setups: 2, simQueries: 300, econPasses: 1, probes: 2}
)

// tracedRing is the per-shard decision-trace ring of a traced run: at
// sampling 1 it holds the last tracedRing decisions of every shard.
const tracedRing = 1 << 11

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	sc       scale
}

// outcome is what one run reports.
type outcome struct {
	attempted  int64
	failed     int64
	violations []string           // output checks that did not hold
	metrics    map[string]float64 // the end-to-end or the per-layer set
	health     map[string]float64 // harness.* of this run, traced or not
	windows    int
}

func newOutcome(traced bool) *outcome {
	out := &outcome{metrics: map[string]float64{}, health: map[string]float64{}}
	if traced {
		// A layer that does not exist on a workload reads 0.
		for _, d := range perLayer {
			out.metrics[d.Name] = 0
		}
	}
	return out
}

// calibrated takes the closing loopback calibration and files it with the
// opening one.
func (out *outcome) calibrated(before float64) error {
	after, err := calibrate()
	if err != nil {
		return err
	}
	out.health["harness.calib_us"] = (before + after) / 2
	out.health["harness.calib_before_us"] = before
	out.health["harness.calib_after_us"] = after
	if _, traced := out.metrics["harness.calib_us"]; traced {
		out.metrics["harness.calib_us"] = out.health["harness.calib_us"]
	}
	return nil
}

func run(cfg runConfig) (*outcome, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.workload == "sim-paper" {
		return runSim(cfg)
	}
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	return runServed(cfg, sp)
}

func runServed(cfg runConfig, sp spec) (*outcome, error) {
	sp.warmup = sp.warmup / cfg.sc.warmDiv / sp.batch * sp.batch
	sp.statsEvery /= cfg.sc.readDiv
	sp.heavyEvery /= cfg.sc.readDiv
	in, err := generate(cfg.seed, cfg.sc.pool, cfg.sc.replay, sp.http)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	calib0, err := calibrate()
	if err != nil {
		return nil, err
	}

	// Set-up, several times over: build, dial, warm up. The last one is
	// measured.
	var st *stack
	var setups []float64
	for rep := 0; rep < cfg.sc.setups; rep++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		st, err = buildStack(sp, in, tr, cfg.outDir, cfg.seed)
		if err != nil {
			return nil, err
		}
		warm := int64(sp.warmup)
		st.drive(func(issued int64) bool { return issued >= warm })
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	out := newOutcome(cfg.trace)
	var segs []*segment
	if !cfg.trace {
		seg := st.measure(cfg.seconds)
		segs = append(segs, seg)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		m := medians(seg.windows)
		out.windows = len(seg.windows)
		out.metrics["setup_s"] = median(setups)
		out.metrics["queries_per_s"] = m.opsPerSec * float64(sp.batch)
		out.metrics["latency_p50_us"] = m.p50us
		out.metrics["latency_p95_us"] = m.p95us
		out.metrics["cpu_us_per_query"] = m.cpuUsOp / float64(sp.batch)
		out.metrics["peak_rss_mb"] = rss
		seg.health(out.health)
	} else {
		plainN := max(cfg.seconds/4, 1)
		plain := st.measure(plainN)
		traced, events := st.measureTraced(max(cfg.seconds-plainN, 1))
		segs = append(segs, plain, traced)
		if err := st.layers(cfg, out, plain, traced, events); err != nil {
			return nil, err
		}
		out.windows = len(traced.windows)
	}

	for _, seg := range segs {
		out.attempted += seg.queries/int64(sp.batch) + seg.failed
		out.failed += seg.failed
	}
	for _, c := range st.clients {
		out.attempted += c.readsTried
		out.failed += c.readsFailed
	}
	out.violations = st.verify()

	if err := out.calibrated(calib0); err != nil {
		return nil, err
	}
	if !cfg.trace {
		costRatio, respRatio, err := econVsBypass(in, sp)
		if err != nil {
			return nil, err
		}
		out.metrics["econ_cost_vs_bypass"] = costRatio
		out.metrics["econ_resp_vs_bypass"] = respRatio
	} else {
		if err := tr.writeFile(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), cfg.workload); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// econVsBypass is the paper's own outcome on a served workload's stream:
// the kept head of the pool replayed offline, on the same one-second
// clock, through one econ-cheap economy configured as the workload's
// engines are and through the bypass-yield baseline. Operating cost and
// mean response are reported as econ-cheap over bypass. It is exact for a
// seed.
func econVsBypass(in *inputs, sp spec) (costRatio, respRatio float64, err error) {
	params := scheme.DefaultParams(in.cat)
	params.Provider = sp.provider
	var reps [2]*sim.Report
	for i, name := range []string{"econ-cheap", "bypass"} {
		sch, err := scheme.New(name, params)
		if err != nil {
			return 0, 0, err
		}
		reps[i], err = sim.Run(sim.Config{Scheme: sch, Source: &replaySource{qs: in.gen}, Queries: len(in.gen)})
		if err != nil {
			return 0, 0, err
		}
	}
	return reps[0].OperatingCost.Dollars() / reps[1].OperatingCost.Dollars(),
		reps[0].Response.Mean() / reps[1].Response.Mean(), nil
}

// measureTraced runs a segment with the harness's decorators on and the
// engines' own decision tracing at sampling 1, and returns it with the
// economy journal events it produced.
func (st *stack) measureTraced(n int) (*segment, int64) {
	events := func() int64 {
		var n int64
		for _, srv := range st.servers {
			t := srv.EventTotals()
			n += t.Invests + t.Evicts + t.Recovers
		}
		return n
	}
	for _, srv := range st.servers {
		srv.Tracer().SetSampleEvery(1)
	}
	before := events()
	st.tr.on.Store(true)
	seg := st.measure(n)
	st.tr.on.Store(false)
	for _, srv := range st.servers {
		srv.Tracer().SetSampleEvery(st.sp.traceSample)
	}
	return seg, events() - before
}

// layers fills the per-layer metrics of a served workload from a plain
// and a traced segment of the same stack.
func (st *stack) layers(cfg runConfig, out *outcome, plain, traced *segment, events int64) error {
	tr, sp, m := st.tr, st.sp, out.metrics
	tq := float64(max(traced.queries, 1))

	m["workload.gen_ns_per_query"] = float64(st.in.genNanos) / float64(len(st.in.wire))

	// Economy and cache: the engines' own books since set-up.
	var queries, declined, answered, invests, evictions, resident int64
	for _, srv := range st.servers {
		s := srv.Stats()
		queries += s.Queries
		declined += s.Declined
		answered += s.CacheAnswered
		invests += s.Investments
		evictions += s.Failures
		resident += s.ResidentBytes
	}
	m["economy.investments_per_kq"] = float64(invests) / float64(queries) * 1e3
	m["economy.evictions_per_kq"] = float64(evictions) / float64(queries) * 1e3
	m["economy.declined_share"] = float64(declined) / float64(queries)
	m["cache.answered_share"] = float64(answered) / float64(max(queries-declined, 1))
	m["cache.resident_gb_final"] = float64(resident) / (1 << 30)

	// The engines' stage records (sampling 1 during the traced segment).
	var waits, decides []float64
	for _, srv := range st.servers {
		for _, rec := range srv.TraceSnapshot("", "", 0) {
			waits = append(waits, float64(rec.WaitNanos))
			decides = append(decides, float64(rec.DecideNanos))
		}
	}
	wait, decide := median(waits), median(decides)
	m["server.mailbox_wait_ns_p50"] = wait
	m["server.decide_ns_p50"] = decide

	// Spans: client ⊃ (router engine ⊃) backend engine, or client ⊃ handler.
	// A layer's self time is its span minus what its child spans cover.
	self, dur := tr.selfTimes()
	top := spBackendEngine // the span directly under the client's
	perGroup := 1.0        // queries one shard decides in sequence for one batch
	if sp.http {
		top = spHTTPHandler
		m["http.handler_ns"] = tr.meanNs(spHTTPHandler)
		m["http.front_self_ns"] = self[spClient]
		m["http.bytes_per_query"] = float64(st.front.bytes.Load()) / tq
		var stats, metrics, traces []float64
		for _, c := range st.clients {
			stats = append(stats, c.statsUs...)
			metrics = append(metrics, c.metricsUs...)
			traces = append(traces, c.traceUs...)
		}
		m["http.stats_us"] = median(stats)
		m["http.metrics_us"] = median(metrics)
		m["http.trace_us"] = median(traces)
	} else {
		m["server.engine_ns_p50"] = tr.medianNs(spBackendEngine)
		if st.router != nil {
			top = spRouterEngine
			m["router.hop_self_ns"] = self[spRouterEngine]
			m["router.backend_frames_per_batch"] = float64(tr.calls(spBackendEngine)) / float64(max(tr.calls(spRouterEngine), 1))
		}
		m["wire.front_self_ns"] = self[spClient]
		m["wire.writes_per_query"] = float64(st.front.writes.Load()) / tq
		m["wire.reads_per_query"] = float64(st.front.reads.Load()) / tq
		m["wire.bytes_per_query"] = float64(st.front.bytes.Load()) / tq
		var groups, grouped int64
		for _, e := range st.engines {
			groups += e.groups.Load()
			grouped += e.queries.Load()
		}
		if groups > 0 {
			perGroup = float64(grouped) / float64(groups)
		}
	}
	// What the innermost harness span holds beyond the engine's own
	// stage records: the hand-off into and out of the shard loops (and,
	// under the HTTP handler, its JSON work).
	inner := spBackendEngine
	if sp.http {
		inner = spHTTPHandler
	}
	m["server.handoff_self_ns"] = tr.medianNs(inner) - wait - decide*perGroup
	// Do the layers add up to what the client saw? The client's self time
	// plus the span under it make the client's span when every span found
	// its parent.
	if dur[spClient] > 0 {
		m["harness.layer_sum_gap_pct"] = math.Abs(dur[spClient]-self[spClient]-dur[top]) / dur[spClient] * 100
	}

	// Traced against plain, same stack, same run.
	pw, tw := medians(plain.windows), medians(traced.windows)
	if pw.opsPerSec > 0 {
		m["obs.trace_overhead_pct"] = (pw.opsPerSec - tw.opsPerSec) / pw.opsPerSec * 100
	}
	m["obs.journal_events_per_kq"] = float64(events) / tq * 1e3
	traced.health(out.health)
	m["harness.window_spread_pct"] = out.health["harness.window_spread_pct"]
	m["harness.steal_pct"] = out.health["harness.steal_pct"]

	// Process and client figures come from the plain segment, where no
	// decorator allocates or delays.
	plain.process(m)
	var lat []int64
	for _, w := range plain.windows {
		lat = append(lat, w.lat...)
	}
	slices.Sort(lat)
	m["client.latency_p99_us"] = float64(quantile(lat, 0.99)) / 1e3
	m["client.latency_p999_us"] = float64(quantile(lat, 0.999)) / 1e3
	m["client.latency_max_us"] = float64(quantile(lat, 1)) / 1e3

	return st.probes(cfg, m)
}

// probes makes the direct timed calls of a traced run, after the clients
// have stopped: each is a public function of one layer, called on the
// run's own engines and batches.
func (st *stack) probes(cfg runConfig, m map[string]float64) error {
	tr, srv := st.tr, st.servers[0]
	tr.on.Store(true)
	defer tr.on.Store(false)
	var statsUs, ckptMs, encMs []float64
	var snapBytes int
	for i := 0; i < cfg.sc.probes; i++ {
		d, _ := tr.direct("server.stats", func() error { srv.Stats(); return nil })
		statsUs = append(statsUs, float64(d.Nanoseconds())/1e3)

		d, err := tr.direct("server.checkpoint", func() error { _, err := st.checkpoint(); return err })
		if err != nil {
			return err
		}
		ckptMs = append(ckptMs, float64(d.Nanoseconds())/1e6)

		snap := srv.Snapshot()
		d, _ = tr.direct("persist.encode", func() error { snapBytes = len(persist.EncodeBytes(snap)); return nil })
		encMs = append(encMs, float64(d.Nanoseconds())/1e6)
	}
	m["server.stats_us"] = median(statsUs)
	m["server.checkpoint_ms"] = median(ckptMs)
	m["persist.encode_ms"] = median(encMs)
	m["persist.snapshot_bytes"] = float64(snapBytes)

	if ws, ok := st.clients[0].sub.(*wireSubmitter); ok && len(ws.last) > 0 {
		enc, dec, err := st.wireCodec(ws.last, cfg.sc.probes*200)
		if err != nil {
			return err
		}
		m["wire.encode_ns_per_query"] = enc
		m["wire.decode_ns_per_query"] = dec
	}

	if st.router != nil {
		// One shard out to the other backend and back, with no traffic.
		var blackouts []float64
		home := st.router.Owner(0)
		for _, to := range []int{1 - home, home} {
			var blackout time.Duration
			_, err := tr.direct("router.migrate", func() (err error) {
				blackout, err = st.router.Migrate(context.Background(), 0, to)
				return err
			})
			if err != nil {
				return fmt.Errorf("migrate shard 0 to backend %d: %w", to, err)
			}
			blackouts = append(blackouts, float64(blackout.Nanoseconds())/1e6)
		}
		m["router.migrate_blackout_ms"] = mean(blackouts)
	}
	return nil
}

// wireCodec times the wire codec's public encoders and decoders on the
// run's own batches: n query batches from the pool, and the replies the
// engine last sent, both directions each. Nanoseconds per query.
func (st *stack) wireCodec(replies []wire.Reply, n int) (encNs, decNs float64, err error) {
	batch := st.sp.batch
	var frames [][]byte
	var replyFrame []byte
	d, err := st.tr.direct("wire.encode", func() error {
		for k := 0; k < n; k++ {
			i := k * batch % len(st.in.wire)
			f, err := wire.AppendTaggedQueryBatch(nil, uint64(k+1), st.in.wire[i:i+batch])
			if err != nil {
				return err
			}
			frames = append(frames, f)
			replyFrame = wire.AppendTaggedReplyBatch(replyFrame[:0], uint64(k+1), replies)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	encNs = float64(d.Nanoseconds()) / float64(n*batch)
	var qs []wire.Query
	var rs []wire.Reply
	d, err = st.tr.direct("wire.decode", func() error {
		for _, f := range frames {
			if _, qs, err = wire.DecodeTaggedQueryBatch(f, qs[:0]); err != nil {
				return err
			}
			if _, rs, err = wire.DecodeTaggedReplyBatch(replyFrame, rs[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return encNs, float64(d.Nanoseconds()) / float64(n*batch), nil
}
