package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
)

// A Submit, or a batch's group of queries for one shard, that finds its
// shard idle is decided on its caller's goroutine; work that finds the
// shard busy waits in the mailbox for the shard's loop. These tests pin
// that the two paths are one economy: the same stream through either
// yields the same books, every query is decided exactly once whichever
// path it took, and a goroutine's submissions are decided in the order it
// made them.

// stateBytes encodes the engine's durable state without its one
// wall-clock field, so two captures compare byte for byte.
func stateBytes(srv *server.Server) []byte {
	snap := srv.Snapshot()
	snap.CreatedUnixNano = 0
	return persist.EncodeBytes(snap)
}

// forceMailbox is a no-op DecideDelay hook: its presence alone sends
// every submission through the mailbox.
func forceMailbox(cfg *server.Config) { cfg.DecideDelay = func(int) {} }

// TestInlineMatchesMailbox replays one scripted stream — singleton
// Submits, one-request batches (blocking and async) and multi-request
// batches, with clock steps and housekeeping between rounds — through
// idle shards (every submission decides inline) and through a forced
// mailbox, and demands equal Stats, byte-identical snapshots and
// field-for-field equal decision traces (bar the real-time stage stamps).
func TestInlineMatchesMailbox(t *testing.T) {
	const rounds = 12
	tenants := scratchTenants()

	type outcome struct {
		stats    server.Stats
		inline   [scratchShards]int64
		snapshot []byte
		records  []obs.Record
	}
	run := func(t *testing.T, provider economy.Provider, opts ...func(*server.Config)) outcome {
		t.Helper()
		params := testParams(testCatalog())
		params.Provider = provider
		clock := server.NewVirtualClock()
		cfg := server.Config{
			Shards:           scratchShards,
			Scheme:           "econ-cheap",
			Params:           params,
			Clock:            clock,
			TraceRing:        rounds * scratchPerRound,
			TraceSampleEvery: 1,
		}
		for _, opt := range opts {
			opt(&cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown(context.Background())
		ctx := context.Background()
		var out outcome

		single := func(it server.BatchItem) {
			t.Helper()
			if it.Err != nil {
				t.Fatal(it.Err)
			}
		}
		for round := 0; round < rounds; round++ {
			clock.Advance(20 * time.Second)
			srv.Housekeep()
			for shard := 0; shard < scratchShards; shard++ {
				reqs := make([]server.Request, scratchPerRound)
				for i := range reqs {
					reqs[i] = scratchRequest(tenants[shard], round*scratchPerRound+i)
				}
				// Two Submits, a blocking one-request batch, an async one,
				// then the rest as one multi-request batch.
				for _, req := range reqs[:2] {
					resp, err := srv.Submit(ctx, req)
					single(server.BatchItem{Resp: resp, Err: err})
				}
				items, err := srv.SubmitBatch(ctx, reqs[2:3])
				if err != nil || len(items) != 1 {
					t.Fatalf("one-request batch: %d items, err %v", len(items), err)
				}
				single(items[0])
				// done lends its items: copy them inside the callback.
				done := make(chan []server.BatchItem, 1)
				if err := srv.SubmitBatchAsync(ctx, reqs[3:4], func(items []server.BatchItem) { done <- slices.Clone(items) }); err != nil {
					t.Fatal(err)
				}
				single((<-done)[0])
				items, err = srv.SubmitBatch(ctx, reqs[4:])
				if err != nil {
					t.Fatal(err)
				}
				for _, it := range items {
					if it.Err != nil {
						t.Fatal(it.Err)
					}
				}
			}
		}
		out.stats = srv.Stats()
		for i, sh := range out.stats.PerShard {
			out.inline[i] = sh.Inline
		}
		clearGauges(&out.stats)
		out.snapshot = stateBytes(srv)
		out.records = srv.TraceSnapshot("", "", 0)
		return out
	}

	for _, provider := range []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			inline := run(t, provider)
			queued := run(t, provider, forceMailbox)

			// The arms really did take different paths.
			for shard := 0; shard < scratchShards; shard++ {
				if got, want := inline.inline[shard], int64(rounds*scratchPerRound); got != want {
					t.Errorf("idle arm, shard %d: %d inline decisions, want %d (every query)", shard, got, want)
				}
				if got := queued.inline[shard]; got != 0 {
					t.Errorf("forced-mailbox arm, shard %d: %d inline decisions, want 0", shard, got)
				}
			}
			if got, want := mustJSON(t, inline.stats), mustJSON(t, queued.stats); got != want {
				t.Errorf("stats diverge between the inline and the mailbox path:\ninline  %s\nmailbox %s", got, want)
			}
			if !bytes.Equal(inline.snapshot, queued.snapshot) {
				t.Errorf("snapshots diverge between the inline and the mailbox path (%d vs %d bytes)",
					len(inline.snapshot), len(queued.snapshot))
			}

			// Traces: an inline decision waited for nothing; apart from the
			// real-time stamps the record is what the mailbox publishes.
			if len(inline.records) != scratchShards*rounds*scratchPerRound || len(inline.records) != len(queued.records) {
				t.Fatalf("records: %d inline arm, %d mailbox arm, want %d each",
					len(inline.records), len(queued.records), scratchShards*rounds*scratchPerRound)
			}
			byID := make(map[int64]obs.Record, len(queued.records))
			for _, r := range queued.records {
				byID[r.QueryID] = r
			}
			for _, r := range inline.records {
				if r.WaitNanos != 0 {
					t.Errorf("query %d was decided inline but its trace reports a %d ns mailbox wait", r.QueryID, r.WaitNanos)
				}
				q := byID[r.QueryID]
				for _, rec := range []*obs.Record{&r, &q} {
					rec.WaitNanos, rec.DecideNanos, rec.WallNanos = 0, 0, 0
				}
				if r != q {
					t.Errorf("query %d: trace records diverge:\ninline  %+v\nmailbox %+v", r.QueryID, r, q)
				}
			}
		})
	}
}

// TestInlineStress hammers ONE shard from every entry point at once —
// Submit, one- and multi-request SubmitBatchAsync, Stats, Checkpoint,
// Housekeep, and a freeze → extract → install cycle — and checks the
// serialization contract: every accepted query decided exactly once
// (unique QueryIDs, Stats().Queries equals the accepted count), and a
// goroutine's async batch always decided before the Submit it makes
// next. Spanning submitters meanwhile send batches over every shard, so
// a batch's first groups can finish while its submitting loop is still
// enqueueing the rest, and its pooled buffers go straight to the next
// batch: every item must echo its own request's template and
// selectivity. Run under -race it also proves the inline path and the
// recycled batch buffers publish no unsynchronized state.
func TestInlineStress(t *testing.T) {
	const (
		shards     = 4
		submitters = 6
		spanners   = 3
		perG       = 150
	)
	// The submitters' tenants all live on the frozen shard 0; the
	// spanners' on every shard.
	var stressTenants []string
	spanTenants := make([]string, shards)
	for i := 0; len(stressTenants) < submitters; i++ {
		name := fmt.Sprintf("stress-%d", i)
		k := server.ShardIndexFor(name, "", shards)
		if k == 0 {
			stressTenants = append(stressTenants, name)
		}
		if spanTenants[k] == "" {
			spanTenants[k] = name
		}
	}
	srv, err := server.New(server.Config{
		Shards:       shards,
		Scheme:       "econ-cheap",
		Params:       testParams(testCatalog()),
		Clock:        server.NewVirtualClock(),
		SnapshotPath: filepath.Join(t.TempDir(), "stress.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var (
		mu       sync.Mutex
		seen     = make(map[int64]bool)
		accepted int64
	)
	// record files one answer; it reports the QueryID, or 0 for a query the
	// frozen shard turned away (never decided, so never counted).
	record := func(resp server.Response, err error) int64 {
		if errors.Is(err, server.ErrShardNotOwned) {
			return 0
		}
		if err != nil {
			t.Errorf("unexpected error: %v", err)
			return 0
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[resp.QueryID] {
			t.Errorf("query id %d answered twice", resp.QueryID)
		}
		seen[resp.QueryID] = true
		accepted++
		return resp.QueryID
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func(){
		func() { srv.Stats() },
		func() { srv.Housekeep() },
		func() {
			if _, _, err := srv.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
			}
		},
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
				}
			}
		}()
	}

	// third is closed once a third of the flood has been answered.
	var progress atomic.Int64
	third := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := stressTenants[g]
			for i := 0; i < perG; i++ {
				n := 1 + (g+i)%3 // one, two or three queries: one group on shard 0
				reqs := make([]server.Request, n)
				for k := range reqs {
					reqs[k] = server.Request{Tenant: tenant, Template: "Q6", Budget: testBudget()}
				}
				done := make(chan []server.BatchItem, 1)
				if err := srv.SubmitBatchAsync(ctx, reqs, func(items []server.BatchItem) { done <- slices.Clone(items) }); err != nil {
					t.Errorf("async batch: %v", err)
					return
				}
				resp, err := srv.Submit(ctx, reqs[0])
				next := record(resp, err)
				for _, it := range <-done {
					if id := record(it.Resp, it.Err); id != 0 && next != 0 && id > next {
						t.Errorf("goroutine %d: async batch got query id %d, its following Submit %d: decided out of submission order", g, id, next)
					}
				}
				if progress.Add(1) == submitters*perG/3 {
					close(third)
				}
			}
		}(g)
	}
	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q14", "Q18"}
	for g := 0; g < spanners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Over the first 2 to 4 shards, so the submitting loop
				// often still has shards to look at after its last send;
				// each item with a selectivity of its own inside every
				// template's range, so none is clamped.
				m := 2 + (g+i)%(shards-1)
				reqs := make([]server.Request, 2*m+i%3)
				for k := range reqs {
					reqs[k] = server.Request{
						Tenant:      spanTenants[k%m],
						Template:    templates[(g+i+k)%len(templates)],
						Selectivity: 0.0025 + 1e-5*float64(k),
						Budget:      testBudget(),
					}
				}
				done := make(chan []server.BatchItem, 1)
				if err := srv.SubmitBatchAsync(ctx, reqs, func(items []server.BatchItem) { done <- slices.Clone(items) }); err != nil {
					t.Errorf("spanning batch: %v", err)
					return
				}
				for k, it := range <-done {
					if record(it.Resp, it.Err) == 0 {
						continue
					}
					if it.Resp.Template != reqs[k].Template || it.Resp.Selectivity != reqs[k].Selectivity {
						t.Errorf("spanner %d batch %d item %d answers %s at %g, asked %s at %g",
							g, i, k, it.Resp.Template, it.Resp.Selectivity, reqs[k].Template, reqs[k].Selectivity)
					}
				}
			}
		}(g)
	}

	// Mid-flood, move the shard out and back in. Queries that arrive while
	// it is frozen are turned away; nothing decided before or after is lost.
	<-third
	if err := srv.FreezeShard(0); err != nil {
		t.Fatal(err)
	}
	pkt, err := srv.ExtractShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.InstallShard(0, pkt); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Queries != accepted || st.Errors != 0 {
		t.Errorf("engine decided %d queries with %d errors; %d answers were accepted", st.Queries, st.Errors, accepted)
	}
	t.Logf("inline %d of %d", st.PerShard[0].Inline, st.Queries)
	if in := st.PerShard[0].Inline; in < 0 || in > st.Queries {
		t.Errorf("inline count %d outside [0, %d]", in, st.Queries)
	}
}

// TestFrozenShardAnswersInlineUntouched: a disowned shard turns a query
// away on the caller's goroutine — no mailbox, no clock read, no accrual,
// no counter — so its state stays exactly what the freeze captured.
func TestFrozenShardAnswersInlineUntouched(t *testing.T) {
	clock := server.NewVirtualClock()
	srv := newTestServer(t, 1, "econ-cheap", clock)
	ctx := context.Background()
	req := server.Request{Tenant: "a", Template: "Q6", Budget: testBudget()}
	if _, err := srv.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	if err := srv.FreezeShard(0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // a decision or an accrual would book this
	before := stateBytes(srv)

	if _, err := srv.Submit(ctx, req); !errors.Is(err, server.ErrShardNotOwned) {
		t.Errorf("Submit to a frozen shard: err = %v, want ErrShardNotOwned", err)
	}
	called := false
	err := srv.SubmitBatchAsync(ctx, []server.Request{req}, func(items []server.BatchItem) {
		called = true
		if len(items) != 1 || !errors.Is(items[0].Err, server.ErrShardNotOwned) {
			t.Errorf("one-request batch to a frozen shard: items = %+v, want one ErrShardNotOwned", items)
		}
	})
	if err != nil || !called {
		t.Errorf("one-request batch to a frozen shard: err = %v, done called before return = %v; want nil, true", err, called)
	}
	if after := stateBytes(srv); !bytes.Equal(before, after) {
		t.Error("turning queries away changed the frozen shard's state")
	}
	if st := srv.Stats(); st.Queries != 1 || st.Errors != 0 {
		t.Errorf("queries/errors = %d/%d after two refusals, want 1/0", st.Queries, st.Errors)
	}
}

// TestFrozenGroupAnswersInline: a batch's group for a disowned shard is
// turned away on the caller's goroutine like a lone query — every item
// ErrShardNotOwned, done fired before SubmitBatchAsync returns — and
// leaves the frozen shard's state exactly what the freeze captured, while
// the batch's groups for owned shards are decided beside it.
func TestFrozenGroupAnswersInline(t *testing.T) {
	const frozen = 1
	clock := server.NewVirtualClock()
	srv := newTestServer(t, scratchShards, "econ-cheap", clock)
	ctx := context.Background()
	tenants := scratchTenants()
	request := func(shard, i int) server.Request {
		return server.Request{Tenant: tenants[shard][i%2], Template: "Q6", Budget: testBudget()}
	}
	for shard := range tenants {
		if _, err := srv.Submit(ctx, request(shard, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.FreezeShard(frozen); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // a decision or an accrual would book this
	// The frozen shard's own record, without the engine-wide fingerprint
	// (its NextID moves with every decision on any shard).
	frozenBytes := func() []byte {
		return persist.EncodeBytes(&persist.Snapshot{Shards: srv.Snapshot().Shards[frozen : frozen+1]})
	}
	submit := func(reqs []server.Request) []server.BatchItem {
		t.Helper()
		var got []server.BatchItem
		if err := srv.SubmitBatchAsync(ctx, reqs, func(items []server.BatchItem) { got = slices.Clone(items) }); err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatal("done had not fired when SubmitBatchAsync returned")
		}
		return got
	}

	// Wholly on the frozen shard: nothing anywhere moves.
	before := stateBytes(srv)
	for i, it := range submit([]server.Request{request(frozen, 0), request(frozen, 1), request(frozen, 2)}) {
		if !errors.Is(it.Err, server.ErrShardNotOwned) {
			t.Errorf("item %d: err = %v, want ErrShardNotOwned", i, it.Err)
		}
	}
	if !bytes.Equal(before, stateBytes(srv)) {
		t.Error("turning a group away changed the engine's state")
	}

	// Over every shard: the owned groups decide, the frozen one is turned
	// away untouched.
	frozenBefore := frozenBytes()
	var span []server.Request
	for i := 0; i < 2; i++ {
		for shard := range tenants {
			span = append(span, request(shard, i))
		}
	}
	for i, it := range submit(span) {
		if shard := srv.ShardIndex(span[i]); shard == frozen && !errors.Is(it.Err, server.ErrShardNotOwned) {
			t.Errorf("item %d to the frozen shard: err = %v, want ErrShardNotOwned", i, it.Err)
		} else if shard != frozen && (it.Err != nil || it.Resp.Shard != shard) {
			t.Errorf("item %d to owned shard %d: shard %d, err %v", i, shard, it.Resp.Shard, it.Err)
		}
	}
	if !bytes.Equal(frozenBefore, frozenBytes()) {
		t.Error("a spanning batch changed the frozen shard's state")
	}
	st := srv.Stats()
	if want := int64(scratchShards + 2*(scratchShards-1)); st.Queries != want || st.Errors != 0 {
		t.Errorf("queries/errors = %d/%d, want %d/0", st.Queries, st.Errors, want)
	}
	if in := st.PerShard[frozen].Inline; in != 1 {
		t.Errorf("frozen shard: %d inline decisions, want 1 (its query before the freeze)", in)
	}
}
