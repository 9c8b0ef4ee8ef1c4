package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"regexp"
	"testing"

	"repro/internal/server/wire"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The metric lists in metrics.go and BENCHMARK.json must be the same
// lists: same names, same units, same order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bench, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bench.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the harness %d+%d", len(bench.EndToEnd), len(bench.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(i int, name, unit string, def metricDef) {
		if name != def.Name || unit != def.Unit {
			t.Errorf("metric %d: BENCHMARK.json %s [%s], harness %s [%s]", i, name, unit, def.Name, def.Unit)
		}
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, e := range bench.EndToEnd {
		check(i, e.Name, e.Unit, endToEnd[i])
	}
	for i, p := range bench.PerLayer {
		check(i, p.Name, p.Unit, perLayer[i])
	}
}

// Every workload, for one second at reduced size, plain and traced: the
// run passes its own output checks, no operation fails, and the result
// line carries exactly the metric names of the contract.
func TestWorkloadsEmitContract(t *testing.T) {
	stderr = io.Discard
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			label, defs := name, endToEnd
			if traced {
				label, defs = name+"/traced", perLayer
			}
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				cfg := runConfig{workload: name, seed: 7, seconds: 1, trace: traced, outDir: t.TempDir(), sc: smallScale}
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range out.violations {
					t.Errorf("output check failed: %s", v)
				}
				var buf bytes.Buffer
				line, err := report(cfg, out, &buf)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				var got resultLine
				if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !line.Correct || !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, contract has %d", len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					if mv, ok := got.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
						t.Errorf("metric %s [%s] missing or with unit %q", d.Name, d.Unit, mv.Unit)
					}
				}
				if !traced {
					for _, d := range defs {
						if got.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, got.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// nopEngine answers every batch at once from storage it already owns.
type nopEngine struct {
	wire.Engine
	replies []wire.Reply
}

func (e *nopEngine) SubmitBatch(_ context.Context, qs []wire.Query, _ int64) ([]wire.Reply, error) {
	rs := e.replies[:len(qs)]
	for k := range qs {
		rs[k].Resp.Template = qs[k].Template
		rs[k].Resp.QueryID = 1
	}
	return rs, nil
}

// The client loop itself — claim, send, check, record — must not
// allocate, so that process.allocs_per_query counts the program's
// allocations and not the harness's.
func TestClientLoopAllocFree(t *testing.T) {
	in, err := generate(1, smallScale.pool, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, maxBatchSize} {
		eng := &nopEngine{replies: make([]wire.Reply, batch)}
		st := &stack{sp: spec{batch: batch}, in: in, clock: &queryClock{}}
		c := &client{rec: &recorder{lat: make([]int64, 0, 1<<16)}, sub: &wireSubmitter{
			send:  func(ctx context.Context, qs []wire.Query) ([]wire.Reply, error) { return eng.SubmitBatch(ctx, qs, 0) },
			pool:  in.wire,
			batch: batch,
		}}
		const ops = 500
		var left int
		stop := func(int64) bool { left--; return left < 0 }
		allocs := testing.AllocsPerRun(20, func() {
			left = ops
			st.loop(c, stop)
		})
		if allocs != 0 {
			t.Errorf("batch %d: %v allocations per %d operations, want 0", batch, allocs, ops)
		}
		if len(c.rec.lat) == 0 || c.rec.failed != 0 || st.acked.Load() != st.clock.issued.Load() {
			t.Errorf("batch %d: recorded %d ops, %d failed, %d of %d queries acknowledged", batch, len(c.rec.lat), c.rec.failed, st.acked.Load(), st.clock.issued.Load())
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// is what the benchmark's driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32})
	if q1 != 1.75 || q3 != 20 {
		t.Errorf("quartiles of 1,2,4,8,16,32 = %v, %v; Python gives 1.75, 20", q1, q3)
	}
}
