package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"

	"repro/internal/obs"
)

// Prometheus text exposition (GET /metrics). Hand-rolled on purpose: the
// format is a few lines of fmt.Fprintf and the repository takes no
// third-party dependencies. Economy counters, gauges and the response
// histogram come from the same Stats snapshot /v1/stats serves (so the
// two endpoints can never disagree: the buckets /v1/stats reports are the
// ones Prometheus scrapes), stage-latency histograms from the tracer,
// event totals from the journals, recover totals from the economies
// (settlement counts, ledgers' recovered dollars), and runtime/GC gauges
// from runtime.ReadMemStats.

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}

// counter emits one counter family with per-shard labels.
func writeShardCounter(w io.Writer, name, help string, shards []ShardStats, val func(*ShardStats) int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for i := range shards {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, shards[i].Shard, val(&shards[i]))
	}
}

func writeShardGauge(w io.Writer, name, help string, shards []ShardStats, val func(*ShardStats) float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for i := range shards {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %g\n", name, shards[i].Shard, val(&shards[i]))
	}
}

func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// WriteMetrics writes the full Prometheus text exposition to w.
func (s *Server) WriteMetrics(w io.Writer) {
	st := s.Stats()

	writeGauge(w, "cloudcache_clock_seconds", "Economy clock, seconds since server start.", st.ClockSec)
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	writeGauge(w, "cloudcache_draining", "1 while the server is draining, else 0.", draining)
	writeGauge(w, "cloudcache_shards", "Number of shards.", float64(st.Shards))

	writeShardCounter(w, "cloudcache_queries_total", "Queries decided.", st.PerShard,
		func(sh *ShardStats) int64 { return sh.Queries })
	writeShardCounter(w, "cloudcache_inline_decisions_total", "Queries decided on their caller's goroutine because their shard was idle (a lone query or a batch's whole shard group), without a mailbox hand-off.", st.PerShard,
		func(sh *ShardStats) int64 { return sh.Inline })
	writeShardCounter(w, "cloudcache_declined_total", "Queries declined (Case C).", st.PerShard,
		func(sh *ShardStats) int64 { return sh.Declined })
	writeShardCounter(w, "cloudcache_cache_answered_total", "Queries answered from cached structures.", st.PerShard,
		func(sh *ShardStats) int64 { return sh.CacheAnswered })
	writeShardCounter(w, "cloudcache_investments_total", "Structures built by the economy.", st.PerShard,
		func(sh *ShardStats) int64 { return sh.Investments })
	writeShardCounter(w, "cloudcache_failures_total", "Structures evicted by the maintenance-failure sweep.", st.PerShard,
		func(sh *ShardStats) int64 { return sh.Failures })
	writeShardCounter(w, "cloudcache_errors_total", "Requests the shard could not decide.", st.PerShard,
		func(sh *ShardStats) int64 { return sh.Errors })

	writeShardGauge(w, "cloudcache_mailbox_depth", "Admission-queue length at scrape time.", st.PerShard,
		func(sh *ShardStats) float64 { return float64(sh.MailboxDepth) })
	writeShardGauge(w, "cloudcache_mailbox_oldest_wait_seconds", "Queue wait of the most recent decision: the head message's at a mailbox drain, 0 for an inline decision (real seconds).", st.PerShard,
		func(sh *ShardStats) float64 { return sh.OldestWaitSec })
	writeShardGauge(w, "cloudcache_resident_bytes", "Bytes of cached structures resident on the shard.", st.PerShard,
		func(sh *ShardStats) float64 { return float64(sh.ResidentBytes) })
	writeShardGauge(w, "cloudcache_resident_structures", "Cached structures resident on the shard.", st.PerShard,
		func(sh *ShardStats) float64 { return float64(sh.ResidentStructures) })
	writeShardGauge(w, "cloudcache_nodes", "Nodes the shard's cache currently rents.", st.PerShard,
		func(sh *ShardStats) float64 { return float64(sh.Nodes) })

	writeGauge(w, "cloudcache_revenue_usd", "Revenue collected from users, dollars.", st.RevenueUSD)
	writeGauge(w, "cloudcache_profit_usd", "Profit (revenue minus true expenditure), dollars.", st.ProfitUSD)
	writeGauge(w, "cloudcache_operating_cost_usd", "True expenditure, dollars.", st.OperatingCostUSD)
	writeGauge(w, "cloudcache_credit_usd", "Economy credit outstanding, dollars.", st.CreditUSD)

	// Response times of executed queries, cluster-wide: the summed shard
	// buckets, and the sum their exact per-shard means imply.
	response := obs.NewResponseHistogram()
	response.Add(st.ResponseBuckets, responseSum(st.ResponseMeanSec, st.Queries-st.Declined))
	fmt.Fprintf(w, "# HELP cloudcache_response_seconds Response time of executed queries, seconds.\n# TYPE cloudcache_response_seconds histogram\n")
	response.WritePrometheus(w, "cloudcache_response_seconds", "")

	// Economy event journal: exact running totals, immune to ring rotation.
	// Recovery is no journal event; its series read the economies'
	// settlement counts and the ledgers' recovered dollars.
	tot := s.economyTotals()
	fmt.Fprintf(w, "# HELP cloudcache_economy_events_total Economy journal events by type.\n# TYPE cloudcache_economy_events_total counter\n")
	fmt.Fprintf(w, "cloudcache_economy_events_total{type=%q} %d\n", obs.EventInvest, tot.Invests)
	fmt.Fprintf(w, "cloudcache_economy_events_total{type=%q} %d\n", obs.EventEvict, tot.Evicts)
	fmt.Fprintf(w, "cloudcache_economy_events_total{type=%q} %d\n", "recover", tot.Recovers)
	fmt.Fprintf(w, "# HELP cloudcache_economy_event_dollars_total Dollars moved by journaled events, by type.\n# TYPE cloudcache_economy_event_dollars_total counter\n")
	fmt.Fprintf(w, "cloudcache_economy_event_dollars_total{type=%q} %g\n", obs.EventInvest, tot.Invested.Dollars())
	fmt.Fprintf(w, "cloudcache_economy_event_dollars_total{type=%q} %g\n", obs.EventEvict, tot.Evicted.Dollars())
	fmt.Fprintf(w, "cloudcache_economy_event_dollars_total{type=%q} %g\n", "recover", tot.Recovered.Dollars())

	// Decision tracing: sampling period and per-stage latency histograms.
	sample := int64(-1)
	if tr := s.Tracer(); tr != nil {
		sample = tr.SampleEvery()
	}
	writeGauge(w, "cloudcache_trace_sample_every",
		"Trace sampling period: 0 off, 1 every query, N one in N, -1 tracer disabled.", float64(sample))
	if tr := s.Tracer(); tr != nil {
		for _, sh := range tr.StageHistograms() {
			sh.Hist.WritePrometheus(w, "cloudcache_stage_seconds", fmt.Sprintf("stage=%q", sh.Stage))
		}
	}

	// Runtime and GC gauges, so the admin mux needs no separate collector.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	writeGauge(w, "go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	writeGauge(w, "go_mem_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	writeGauge(w, "go_mem_heap_sys_bytes", "Bytes of heap obtained from the OS.", float64(ms.HeapSys))
	writeGauge(w, "go_mem_next_gc_bytes", "Heap size target of the next GC cycle.", float64(ms.NextGC))
	writeGauge(w, "go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	writeGauge(w, "go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", float64(ms.PauseTotalNs)/1e9)
}
