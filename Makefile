GO ?= go

.PHONY: all build vet fmt test race benchcheck profile fuzz e2e paper loc ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting drift fails here instead of accumulating: gofmt must have
# nothing to say about any file in the tree.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

# The whole suite under the race detector, then the three packages whose
# tests run real goroutines against each other (shard loops, migration,
# router completions on the backend connections' reader goroutines, mux
# client callbacks) twenty more times: their verdict must come from the
# code, not from which goroutine won a scheduling race once. The explicit
# timeout makes a callback deadlock fail in minutes, not at Go's default
# ten.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -timeout 5m ./internal/server ./internal/router ./internal/server/wire

# Profile the hot paths, one command each way of running the engine.
# Served: singleton Submit on a warmed one-shard server (BenchmarkSubmit in
# internal/server: the submit→decide→reply loop with no wire stack in the
# way), and a 64-query SubmitBatch over a warmed 4-shard server
# (BenchmarkSubmitBatch: the carve, the shard groups and the lent
# completion) in three sub-benchmarks — idle, where every shard group is
# decided on the caller's goroutine; mailbox, where a no-op DecideDelay
# sends every group through its shard's mailbox and loop; and selfish, the
# engine the routed-batch benchmark workload runs (per-tenant accounts, 64
# tenants, the paper's stream), whose ledgers carry rows with failure
# histories, so the Eq. 3 scan's gates show in the profile — each under
# -cpuprofile/-memprofile (the batch profile covers all three arms). Offline:
# the Fig. 4/5 grid (sim.Run over optimizer, economy and generator; no
# server exists), three passes per worker count. Each prints the top-10 allocation sites by
# object count and by bytes, and the top-10 CPU consumers: the count gates
# see objects, but garbage-collection cost follows bytes. The alloc
# listings are the first place to look when an allocation gate trips:
# TestDecideAllocs, sim's TestRunAllocsPerQuery, internal/server's
# TestSubmitAllocs and TestSubmitBatchAllocs, wire's TestMuxRoundTripAllocs
# or router's TestRouterHopCounts. Last, the routed path over loopback
# sockets (BenchmarkRoutedRoundTrip in internal/router: a MuxClient, a
# router, two 4-shard backends) prints queries/s in three
# sub-benchmarks: closed-64, one caller waiting on each 64-query frame —
# the routed-batch workload's shape, where every reply is alone on its
# connection and goes straight to the socket; and pipelined-1 and
# pipelined-8, 32 goroutines on one MuxClient with 1- and 8-query
# frames, where the writer goroutines' coalescing carries the load. A
# change to when a frame skips the writer goroutine must leave the
# pipelined pair where it was.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkSubmit$$' -benchtime 20000x \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/server
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space mem.prof
	$(GO) tool pprof -top -nodecount=10 cpu.prof
	$(GO) test -run '^$$' -bench '^BenchmarkSubmitBatch$$' -benchtime 2000x \
		-cpuprofile cpu_batch.prof -memprofile mem_batch.prof ./internal/server
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects mem_batch.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space mem_batch.prof
	$(GO) tool pprof -top -nodecount=10 cpu_batch.prof
	$(GO) test -run '^$$' -bench GridWorkers -benchtime 3x \
		-cpuprofile cpu_grid.prof -memprofile mem_grid.prof .
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects mem_grid.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space mem_grid.prof
	$(GO) tool pprof -top -nodecount=10 cpu_grid.prof
	$(GO) test -run '^$$' -bench '^BenchmarkRoutedRoundTrip$$' -benchtime 2s ./internal/router

# Short fuzz of the hostile-input decoders — wire frames and state
# snapshots must never panic or load partial state, and the HTTP front's
# hand-written JSON scanner must never accept a body encoding/json would
# refuse or read differently — plus the adversarial
# economy fuzzer: fuzzed multi-tenant streams with a lying tenant must
# never break credit conservation, regret accounting, journal
# reconciliation or underbid dominance. Seed corpora live in the
# packages' testdata/fuzz directories. The two whole-file snapshot
# fuzzers exercise the containers (a mutated frame dies at its CRC);
# FuzzRecordDecode re-frames its bytes with a fresh CRC, so it is the one
# that reaches the record layouts. Its inputs are whole records (tens of
# kilobytes), and minimising each new one would eat the ten seconds:
# -fuzzminimizetime 1x spends them on new inputs instead.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s ./internal/server/wire
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzShardPacketDecode -fuzztime 10s ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzRecordDecode -fuzztime 10s -fuzzminimizetime 1x ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzQueryRequestDecode -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzEconomyAdversarial -fuzztime 10s ./internal/economy

# End-to-end smoke of the cloudcached daemon: start, replay a stream over
# HTTP with invariant checks, drain gracefully — then the crash-recovery
# leg: SIGKILL halfway (no drain), restore from the periodic checkpoint,
# resume, and compare the books with an uninterrupted run.
e2e:
	./scripts/e2e_smoke.sh

# The claims table (internal/experiments/claims_test.go) at full size: the
# Fig. 4/5 orderings at the paper's million queries, each in the worst of
# seeds 1, 2, 3 and 42 — about a minute on two cores. Tier-1 runs only the
# rows that hold from 20 k queries. A row that fails, or a known gap that
# has closed, prints its row, worst seed and margin and fails the target.
paper:
	$(GO) test -tags paper -count=1 -timeout 30m -run '^TestPaperClaims$$' -v ./internal/experiments

# The repository benchmark (BENCHMARK.json) is its own module, which
# `go build ./...` and `go test ./...` here cannot see: vet and test it
# against this tree, so a changed type it imports breaks CI, not the
# next benchmark run.
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The design-quality scoreboard (ROADMAP item 6): lines of non-test Go
# outside the benchmark module. CHANGES.md quotes this number per PR.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# The tier-1 gate. Every target in it passes or fails on counts and
# invariants, never on a throughput comparison: throughput is the
# repository benchmark's to measure (benchmark/run.sh, BENCHMARK.json).
ci: build vet fmt race benchcheck fuzz e2e paper
