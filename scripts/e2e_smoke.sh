#!/usr/bin/env bash
# End-to-end smoke of the online serving layer: build the daemon, start
# it with both fronts (JSON/HTTP and the length-prefixed binary
# protocol), replay a workload through each with invariant checks —
# including one replay with a free-riding adversary tenant merged in —
# inspect the read endpoints, then drain gracefully and verify the final
# snapshot accounts every query. Used by `make e2e` and CI.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18344}"
BIN_ADDR="${BIN_ADDR:-127.0.0.1:18345}"
QUERIES="${QUERIES:-10000}"
SHARDS="${SHARDS:-4}"
SCHEME="${SCHEME:-econ-cheap}"
BIN="$(mktemp -d)"
DAEMON_PID=""
trap '[ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/cloudcached" ./cmd/cloudcached
go build -o "$BIN/workloadgen" ./cmd/workloadgen

# -trace-sample 64 and -pprof exercise the observability layer: sampled
# decision traces on both fronts, the economy event journal, /metrics
# and the profiling mux. -speedup 36000 (ten economy hours per wall
# second) lets the structures the first replay buys finish building: a
# build is a WAN transfer at the paper's 25 Mbps, hours for a large
# column, and at 60x the whole leg spans about a minute of economy time,
# so no query would ever be answered from the cache and no settlement
# would recover a dollar.
"$BIN/cloudcached" -addr "$ADDR" -listen-bin "$BIN_ADDR" -shards "$SHARDS" -scheme "$SCHEME" -speedup 36000 \
    -trace-sample 64 -pprof \
    >"$BIN/final.json" 2>"$BIN/daemon.log" &
DAEMON_PID=$!

# Wait for the daemon to come up.
for i in $(seq 1 50); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
        echo "daemon died on startup:"; cat "$BIN/daemon.log"; exit 1
    fi
    sleep 0.1
done
curl -sf "http://$ADDR/healthz"

# Replay the stream over HTTP (batched: exercises POST /v1/batch) and
# verify invariants from the client side; -dump-trace fetches sampled
# decision traces over GET /v1/trace after the run.
"$BIN/workloadgen" -serve "http://$ADDR" -queries "$QUERIES" -clients 8 -tenants 16 -batch 8 -check \
    -dump-trace 4 >"$BIN/trace_http.out"
grep -q "decision traces: sample_every=64" "$BIN/trace_http.out" || {
    echo "workloadgen HTTP trace dump missing:"; cat "$BIN/trace_http.out"; exit 1
}
# At least ten economy hours pass before the next replay, however fast
# the machine, so the first replay's builds are in the cache for the
# rest of the leg. A slower machine only adds economy time.
sleep 1

# Same stream again over the binary protocol with connection reuse and
# batching (one batch in flight per connection, stats over HTTP); the
# delta-based check tolerates the earlier run's counters.
"$BIN/workloadgen" -serve "$BIN_ADDR" -proto bin -batch 32 -queries "$QUERIES" \
    -clients 8 -tenants 16 -stats-url "http://$ADDR" -check

# Multi-tenant skewed replay: a Zipf(1.1) hot-tenant mix over the binary
# front, stats fetched over the wire protocol itself (MuxClient.Stats; no
# -stats-url), with the per-tenant ledger-sum invariant checked from the
# client side.
"$BIN/workloadgen" -serve "$BIN_ADDR" -proto bin -batch 16 -queries "$QUERIES" \
    -clients 8 -tenants 8 -tenant-skew 1.1 -check

# Adversarial replay: a free-riding tenant ("mallory", underbidding her
# truthful valuation to 2%) merged into the honest stream. The daemon
# must keep every externally checkable invariant with the liar in the
# books, and the liar's ledger must be visible — and settled — in stats.
"$BIN/workloadgen" -serve "http://$ADDR" -queries "$QUERIES" -clients 8 -tenants 16 -batch 8 \
    -adversary free-rider -check >"$BIN/adversary.out"
grep -q "invariants: OK" "$BIN/adversary.out" || {
    echo "adversarial replay failed checks:"; cat "$BIN/adversary.out"; exit 1
}
curl -sf "http://$ADDR/v1/stats" >"$BIN/stats_adv.json"
python3 - "$BIN/stats_adv.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
mallory = [t for t in stats.get("tenants") or [] if t["tenant"] == "mallory"]
assert mallory, "free-rider replay left no mallory ledger in /v1/stats"
m = mallory[0]
assert m["queries"] > 0, f"mallory ledger settled no queries: {m}"
assert m["spend_usd"] >= 0, f"mallory ledger spend negative: {m}"
print(f"adversary OK: mallory settled {m['queries']} underbid queries, "
      f"spend=${m['spend_usd']:.4f}")
EOF

# Same stream once more, pipelined: 4 connections, 32 tagged batches in
# flight on each, completed out of order by the daemon, with stats taken
# from the server-pushed stream (no polling). The -check invariants
# prove the reordering lost and double-counted nothing; -dump-trace
# fetches traces over the protocol's trace frame.
"$BIN/workloadgen" -serve "$BIN_ADDR" -proto bin -pipeline 32 -batch 4 -queries "$QUERIES" \
    -clients 4 -tenants 16 -check -dump-trace 4 >"$BIN/trace_bin.out"
grep -q "decision traces: sample_every=64" "$BIN/trace_bin.out" || {
    echo "workloadgen binary trace dump missing:"; cat "$BIN/trace_bin.out"; exit 1
}

# Read endpoints answer, compact and pretty.
curl -sf "http://$ADDR/v1/stats" >/dev/null
curl -sf "http://$ADDR/v1/stats?pretty=1" >/dev/null
curl -sf "http://$ADDR/v1/structures" >/dev/null

# ── Observability legs ────────────────────────────────────────────────
# /metrics speaks Prometheus text: economy counters, mailbox gauges,
# stage-latency histograms and runtime gauges must all be present.
curl -sf "http://$ADDR/metrics" >"$BIN/metrics.txt"
for m in cloudcache_queries_total cloudcache_mailbox_depth cloudcache_stage_seconds_bucket \
         cloudcache_economy_events_total cloudcache_trace_sample_every go_goroutines; do
    grep -q "$m" "$BIN/metrics.txt" || { echo "/metrics missing $m"; exit 1; }
done

# pprof is mounted (opt-in via the -pprof flag above).
curl -sf "http://$ADDR/debug/pprof/cmdline" >/dev/null

# Sampled decision traces carry the complete decision path: identity,
# economy verdict and all four stage timings. The replays are done, so
# the journal and the ledgers are quiescent: every invest/evict must
# appear in /v1/events with dollars reconciling against /v1/stats.
curl -sf "http://$ADDR/v1/trace?n=256" >"$BIN/trace.json"
curl -sf "http://$ADDR/v1/events?n=64" >"$BIN/events.json"
curl -sf "http://$ADDR/v1/stats" >"$BIN/stats.json"
python3 - "$BIN/trace.json" "$BIN/events.json" "$BIN/stats.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = json.load(open(sys.argv[2]))
stats = json.load(open(sys.argv[3]))

assert trace["sample_every"] == 64, f"sample_every = {trace['sample_every']}"
recs = trace["records"]
assert recs, "no sampled decision traces after 50k queries at 1-in-64"
for r in recs:
    assert r["template"] and r["query_id"] and r["seq"], f"incomplete identity: {r}"
    assert r["decide_ns"] > 0 and r["mailbox_wait_ns"] >= 0, f"missing stage timings: {r}"
    assert r["declined"] or r["response_time_s"] > 0, f"missing economy verdict: {r}"
# Network-front samples carry the frame stages too (decode + encode).
assert any(r["decode_ns"] > 0 and r["encode_ns"] > 0 for r in recs), \
    "no record carries the full decode->encode stage split"

tot = events["totals"]
assert tot["invests"] > 0, "no invest events journaled"
assert events["events"], "event journal empty"
for e in events["events"]:
    assert e["type"] in ("invest", "evict"), e
    assert e["reason"] and e["seq"] > 0, f"incomplete event: {e}"
    assert e["structure"], f"lifecycle event without a structure: {e}"

def close(a, b):
    return abs(a - b) <= abs(b) * 1e-9 + 1e-9
invested = sum(s["invested_usd"] for s in stats["per_shard"])
recovered = sum(s["recovered_usd"] for s in stats["per_shard"])
assert close(tot["invested_usd"], invested), \
    f"journal invested {tot['invested_usd']} != ledgers {invested}"
assert close(tot["recovered_usd"], recovered), \
    f"recover totals {tot['recovered_usd']} != per-shard ledgers {recovered}"
assert tot["evicts"] == stats["failures"], \
    f"journal evicts {tot['evicts']} != failure sweeps {stats['failures']}"
# Resident structures answered queries, and their settlements recovered
# build cost: a 0 == 0 reconciliation above would prove nothing.
assert stats["cache_answered"] > 0, "no query was answered from the cache"
assert tot["recovers"] > 0 and tot["recovered_usd"] > 0, \
    f"no settlement recovered a dollar: {tot}"
print(f"observability OK: {len(recs)} traces, {tot['invests']} invests / "
      f"{tot['evicts']} evicts / {tot['recovers']} recovers, "
      f"{stats['cache_answered']} cache-answered, "
      f"${tot['invested_usd']:.4f} invested and ${tot['recovered_usd']:.4f} recovered reconcile")
EOF

# Graceful drain: SIGTERM, wait for exit, then check the final snapshot.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"

python3 - "$BIN/final.json" "$((QUERIES * 5))" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
want = int(sys.argv[2])
assert snap["queries"] == want, f"final snapshot has {snap['queries']} queries, want {want}"
assert snap["errors"] == 0, f"final snapshot has {snap['errors']} request errors"
assert snap["draining"] is True, "final snapshot must be draining"
assert snap["credit_usd"] >= 0, f"account went negative: {snap['credit_usd']}"
busy = sum(1 for s in snap["per_shard"] if s["queries"] > 0)
assert busy >= 2, f"only {busy} shards saw traffic"
# Per-tenant ledgers: every query was tenant-tagged, so the drained
# snapshot's tenant sections must account the full query counter and
# agree between the aggregate merge and the per-shard detail.
tenants = snap.get("tenants") or []
assert tenants, "drained snapshot has no tenant ledgers"
tq = sum(t["queries"] for t in tenants)
assert tq == snap["queries"], f"tenant ledgers account {tq} of {snap['queries']} queries"
shard_tq = sum(t["queries"] for s in snap["per_shard"] for t in s.get("tenants") or [])
assert shard_tq == tq, f"per-shard tenant sums {shard_tq} != merged {tq}"
assert all(t["declined"] <= t["queries"] for t in tenants), "tenant declined > queries"
print(f"e2e OK: {snap['queries']} queries over {busy}/{snap['shards']} shards "
      f"(http+bin+multi-tenant+pipelined), {len(tenants)} tenant ledgers, "
      f"cost=${snap['operating_cost_usd']:.2f} credit=${snap['credit_usd']:.2f}")
EOF

# ── Crash-recovery leg ────────────────────────────────────────────────
# Crash a daemon halfway through the stream (SIGKILL — no drain, no
# goodbye; the state on disk is whatever the periodic checkpoint ticker
# last persisted), restart it from that checkpoint, resume the stream
# where it stopped (-skip), and check the resumed run's drained snapshot
# against an uninterrupted control run of the same stream. Wall-clock
# timing varies run to run (rent, failure sweeps), so the comparison
# pins the timing-independent dimensions: admitted queries, per-tenant
# attribution, zero request errors.
R_ADDR="${R_ADDR:-127.0.0.1:18346}"
RQ="${RQ:-3000}"
HALF=$((RQ / 2))
STATE="$BIN/state"
CTL_STATE="$BIN/state-control"

start_daemon() { # state_dir final_json log
    "$BIN/cloudcached" -addr "$R_ADDR" -shards "$SHARDS" -scheme "$SCHEME" -speedup 60 \
        -state-dir "$1" -checkpoint-interval 1s >"$2" 2>"$3" &
    DAEMON_PID=$!
    for i in $(seq 1 50); do
        if curl -sf "http://$R_ADDR/healthz" >/dev/null 2>&1; then return; fi
        if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
            echo "daemon died on startup:"; cat "$3"; exit 1
        fi
        sleep 0.1
    done
    curl -sf "http://$R_ADDR/healthz" >/dev/null
}

replay() { # queries skip
    "$BIN/workloadgen" -serve "http://$R_ADDR" -queries "$1" -skip "$2" \
        -clients 4 -tenants 8 -batch 8 -check
}

# Uninterrupted control (graceful drain writes its snapshot).
start_daemon "$CTL_STATE" "$BIN/control.json" "$BIN/control.log"
replay "$RQ" 0
kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID"; DAEMON_PID=""

# Crashed run: first half, a checkpoint tick to persist it, then
# SIGKILL. Nothing is drained and no final snapshot is written — the
# next boot has only the ticker's checkpoint to stand on.
start_daemon "$STATE" "$BIN/partial.json" "$BIN/partial.log"
replay "$HALF" 0
sleep 1.5 # let the checkpoint ticker capture the post-replay state
kill -9 "$DAEMON_PID"; wait "$DAEMON_PID" 2>/dev/null || true; DAEMON_PID=""
[ -s "$STATE/econ.snap" ] || { echo "checkpoint ticker left no snapshot in $STATE"; exit 1; }

# Restart from the checkpoint and resume the second half.
start_daemon "$STATE" "$BIN/resumed.json" "$BIN/resumed.log"
grep -q "restored snapshot.*path=$STATE/econ.snap" "$BIN/resumed.log" || {
    echo "restart did not restore the snapshot:"; cat "$BIN/resumed.log"; exit 1
}
replay "$HALF" "$HALF"
kill -TERM "$DAEMON_PID"; wait "$DAEMON_PID"; DAEMON_PID=""

python3 - "$BIN/resumed.json" "$BIN/control.json" "$RQ" <<'EOF'
import json, sys
resumed = json.load(open(sys.argv[1]))
control = json.load(open(sys.argv[2]))
rq = int(sys.argv[3])
# The restart must be invisible in the books' stream-determined
# dimensions: the resumed run's drained snapshot equals the
# uninterrupted control's.
assert resumed["queries"] == rq, f"resumed snapshot has {resumed['queries']} queries, want {rq}"
assert resumed["queries"] == control["queries"], \
    f"resumed {resumed['queries']} queries != control {control['queries']}"
assert resumed["errors"] == 0 and control["errors"] == 0, "request errors in recovery leg"
assert resumed["scheme"] == control["scheme"] and resumed["shards"] == control["shards"]
rt = {t["tenant"]: t["queries"] for t in resumed.get("tenants") or []}
ct = {t["tenant"]: t["queries"] for t in control.get("tenants") or []}
assert rt == ct, f"per-tenant attribution diverged after restart:\nresumed {rt}\ncontrol {ct}"
assert resumed["credit_usd"] >= 0, f"restored account went negative: {resumed['credit_usd']}"
print(f"recovery OK: kill at {rq//2}, resumed to {resumed['queries']} queries, "
      f"{len(rt)} tenant ledgers match the uninterrupted run")
EOF

# ── Cluster leg ───────────────────────────────────────────────────────
# Two cloudcached backends behind one stateless cloudrouter: replay the
# stream through the router with invariant checks, live-migrate a shard
# mid-run (measuring the blackout window), then SIGKILL one backend and
# verify graceful degradation — the dead backend's shards answer
# tag-scoped errors while the survivor keeps deciding and the router
# itself stays up.
B0_ADDR="${B0_ADDR:-127.0.0.1:18350}"
B0_BIN="${B0_BIN:-127.0.0.1:18351}"
B1_ADDR="${B1_ADDR:-127.0.0.1:18352}"
B1_BIN="${B1_BIN:-127.0.0.1:18353}"
RT_ADDR="${RT_ADDR:-127.0.0.1:18354}"
RT_BIN="${RT_BIN:-127.0.0.1:18355}"
CQ="${CQ:-12000}"
B0_PID=""; B1_PID=""; RT_PID=""
trap 'for p in "$B0_PID" "$B1_PID" "$RT_PID" "$DAEMON_PID"; do
          [ -n "$p" ] && kill "$p" 2>/dev/null || true
      done; rm -rf "$BIN"' EXIT

go build -o "$BIN/cloudrouter" ./cmd/cloudrouter

start_backend() { # http_addr bin_addr final_json log -> pid on stdout
    "$BIN/cloudcached" -addr "$1" -listen-bin "$2" -shards "$SHARDS" -scheme "$SCHEME" -speedup 60 \
        >"$3" 2>"$4" &
    local pid=$!
    for i in $(seq 1 50); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then break; fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "backend on $1 died on startup:" >&2; cat "$4" >&2; exit 1
        fi
        sleep 0.1
    done
    echo "$pid"
}

B0_PID=$(start_backend "$B0_ADDR" "$B0_BIN" "$BIN/b0.json" "$BIN/b0.log")
B1_PID=$(start_backend "$B1_ADDR" "$B1_BIN" "$BIN/b1.json" "$BIN/b1.log")

"$BIN/cloudrouter" -addr "$RT_ADDR" -listen-bin "$RT_BIN" \
    -backends "$B0_BIN,$B1_BIN" -backend-http "http://$B0_ADDR,http://$B1_ADDR" \
    -health-interval 200ms 2>"$BIN/router.log" &
RT_PID=$!
for i in $(seq 1 50); do
    if curl -sf "http://$RT_ADDR/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$RT_PID" 2>/dev/null; then
        echo "router died on startup:"; cat "$BIN/router.log"; exit 1
    fi
    sleep 0.1
done
curl -sf "http://$RT_ADDR/readyz" >/dev/null || { echo "router not ready"; exit 1; }
curl -sf "http://$RT_ADDR/metrics" | grep -q "cloudrouter_shards $SHARDS" || {
    echo "router metrics missing shard count"; exit 1
}

# Replay through the router (pipelined, stats fetched from the
# router's merged view over the wire) while a live migration runs in the
# middle of the stream. Throttled so the move genuinely lands mid-run.
"$BIN/workloadgen" -serve "$RT_BIN" -proto bin -pipeline 16 -batch 8 -queries "$CQ" \
    -clients 4 -tenants 16 -qps 4000 -check >"$BIN/routed.out" &
WG_PID=$!
sleep 1
OWNER0=$(curl -sf "http://$RT_ADDR/metrics" | awk '$1 == "cloudrouter_shard_owner{shard=\"0\"}" {print $2}')
[ -n "$OWNER0" ] || { echo "router metrics missing shard 0 owner"; exit 1; }
DEST=$((1 - OWNER0))
curl -sf -X POST "http://$RT_ADDR/admin/migrate?shard=0&to=$DEST" >"$BIN/migrate.json"
wait "$WG_PID" || { echo "routed replay failed:"; cat "$BIN/routed.out"; cat "$BIN/router.log"; exit 1; }
grep -q "invariants: OK" "$BIN/routed.out" || { echo "routed replay skipped checks:"; cat "$BIN/routed.out"; exit 1; }

python3 - "$BIN/migrate.json" "$DEST" <<'EOF'
import json, sys
mv = json.load(open(sys.argv[1]))
assert mv["to"] == int(sys.argv[2]) and mv["shard"] == 0, mv
assert mv["blackout_ms"] > 0, f"blackout window not measured: {mv}"
print(f"migration OK: shard 0 -> backend {mv['to']}, blackout {mv['blackout_ms']:.1f}ms")
EOF
curl -sf "http://$RT_ADDR/metrics" | grep -q "cloudrouter_migrations_total 1" || {
    echo "router metrics did not count the migration"; exit 1
}

# SIGKILL backend 1 — no drain, no goodbye — and replay again with
# -tolerate-errors: the run must complete over a live router connection
# (failures tag-scoped per query, not connection death), with the
# surviving backend still deciding its shards.
kill -9 "$B1_PID"; wait "$B1_PID" 2>/dev/null || true; B1_PID=""
sleep 0.5
"$BIN/workloadgen" -serve "$RT_BIN" -proto bin -pipeline 16 -batch 8 -queries "$CQ" \
    -clients 4 -tenants 16 -check -tolerate-errors >"$BIN/degraded.out" || {
    echo "degraded replay failed:"; cat "$BIN/degraded.out"; cat "$BIN/router.log"; exit 1
}
python3 - "$BIN/degraded.out" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"(\d+) ok \((\d+) declined\), (\d+) failed", text)
assert m, f"no replay summary in output:\n{text}"
ok, declined, failed = map(int, m.groups())
assert ok > 0, "no queries survived the backend kill — whole cluster dark"
assert failed > 0, "backend kill cost nothing — test vacuous"
assert "invariants: OK" in text, f"invariants failed:\n{text}"
print(f"degradation OK: {ok} acked / {failed} tag-scoped failures after SIGKILL")
EOF

# The router itself must still be alive and honestly degraded.
curl -sf "http://$RT_ADDR/healthz" >/dev/null || { echo "router died with its backend"; exit 1; }
RSTATE=$(curl -s -o /dev/null -w "%{http_code}" "http://$RT_ADDR/readyz")
[ "$RSTATE" = "503" ] || { echo "router /readyz = $RSTATE after backend kill, want 503"; exit 1; }

# Graceful teardown of the survivors.
kill -TERM "$RT_PID"; wait "$RT_PID" 2>/dev/null || true; RT_PID=""
kill -TERM "$B0_PID"; wait "$B0_PID" 2>/dev/null || true; B0_PID=""
echo "cluster OK: routed replay + live migration + SIGKILL degradation"
