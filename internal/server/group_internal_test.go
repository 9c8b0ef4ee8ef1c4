package server

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// A batch's shard group follows Submit's rule: decided on the caller's
// goroutine when its shard is idle, queued in the mailbox when it is
// busy. These tests make a shard busy by holding its lock, which no
// inline attempt waits for, so each arm takes the path it names on every
// run.

// groupTenants names one tenant per shard of an n-shard server.
func groupTenants(n int) []string {
	out := make([]string, n)
	for i, filled := 0, 0; filled < n; i++ {
		name := fmt.Sprintf("g%d", i)
		if k := ShardIndexFor(name, "", n); out[k] == "" {
			out[k] = name
			filled++
		}
	}
	return out
}

// groupBatch builds a batch with per[k] queries for shard k, interleaved
// across shards, each with a selectivity of its own inside Q6's range so
// an item can be matched to its request.
func groupBatch(tenants []string, per []int) []Request {
	var reqs []Request
	for round := 0; ; round++ {
		added := false
		for k, n := range per {
			if round < n {
				reqs = append(reqs, Request{
					Tenant:         tenants[k],
					Template:       "Q6",
					Selectivity:    0.0025 + 1e-5*float64(len(reqs)),
					HasSelectivity: true,
				})
				added = true
			}
		}
		if !added {
			return reqs
		}
	}
}

// inlineOf reads shard k's inline counter.
func inlineOf(srv *Server, k int) int64 { return srv.shards[k].snapshot().Inline }

// TestBatchGroupsInlineBesideBusyShard: a batch over four shards, one of
// them busy. The three idle groups are decided before SubmitBatchAsync
// returns, each shard's inline counter growing by exactly its group's
// size; the busy group waits in the mailbox and done fires, exactly once,
// only when it has been decided. Every item answers the request at its
// own position.
func TestBatchGroupsInlineBesideBusyShard(t *testing.T) {
	srv, _ := warmServer(t, 4, nil)
	ctx := context.Background()
	per := []int{3, 1, 4, 2}
	reqs := groupBatch(groupTenants(4), per)
	const busy = 2
	var before [4]int64
	for k := range before {
		before[k] = inlineOf(srv, k)
	}
	queriesBefore := srv.shards[busy].snapshot().Queries

	var calls atomic.Int32
	got := make(chan []BatchItem, 1)
	srv.shards[busy].mu.Lock()
	err := srv.SubmitBatchAsync(ctx, reqs, func(items []BatchItem) {
		calls.Add(1)
		got <- slices.Clone(items)
	})
	if err != nil {
		srv.shards[busy].mu.Unlock()
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("done fired %d times while the busy shard's group was still queued", n)
	}
	if q := srv.shards[busy].queued.Load(); q != 1 {
		t.Errorf("busy shard has %d queued messages, want its one group", q)
	}
	for k := range per {
		if k == busy {
			continue
		}
		if got, want := inlineOf(srv, k), before[k]+int64(per[k]); got != want {
			t.Errorf("idle shard %d: inline %d after the batch, want %d (+%d, its group)", k, got, want, per[k])
		}
	}
	srv.shards[busy].mu.Unlock()

	items := <-got
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if it.Resp.Shard != srv.ShardIndex(reqs[i]) || it.Resp.Selectivity != reqs[i].Selectivity {
			t.Errorf("item %d answers shard %d at %g, asked shard %d at %g",
				i, it.Resp.Shard, it.Resp.Selectivity, srv.ShardIndex(reqs[i]), reqs[i].Selectivity)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("done fired %d times, want 1", n)
	}
	st := srv.shards[busy].snapshot()
	if st.Inline != before[busy] || st.Queries != queriesBefore+int64(per[busy]) {
		t.Errorf("busy shard: inline %d, queries %d; want inline %d (unchanged) and queries %d",
			st.Inline, st.Queries, before[busy], queriesBefore+int64(per[busy]))
	}
}

// TestQueuedGroupKeepsSubmissionOrder: a goroutine's batch A leaves a group
// queued on shard 0; its next batch B finds shard 0's lock free but A's
// group still queued, so B's group joins the mailbox behind it instead of
// overtaking it inline. Shard 0 is held in that state — lock free, A
// queued — by its loop goroutine, parked inside the completion of an
// earlier batch X.
func TestQueuedGroupKeepsSubmissionOrder(t *testing.T) {
	srv, _ := warmServer(t, 4, nil)
	ctx := context.Background()
	tenants := groupTenants(4)
	sh0 := srv.shards[0]
	inline0, inline1 := inlineOf(srv, 0), inlineOf(srv, 1)

	// X's group queues behind the held lock, so X completes on the loop.
	// The gate opens at the latest when the test ends, so a failing run
	// still lets the loop go and the server drain.
	inX, gate := make(chan struct{}), make(chan struct{})
	var open sync.Once
	openGate := func() { open.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	sh0.mu.Lock()
	err := srv.SubmitBatchAsync(ctx, groupBatch(tenants, []int{2}), func([]BatchItem) {
		close(inX)
		<-gate
	})
	sh0.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	<-inX

	submit := func(name string) chan []BatchItem {
		ch := make(chan []BatchItem, 1)
		if err := srv.SubmitBatchAsync(ctx, groupBatch(tenants, []int{2, 1}), func(items []BatchItem) { ch <- slices.Clone(items) }); err != nil {
			t.Fatalf("batch %s: %v", name, err)
		}
		return ch
	}
	a := func() chan []BatchItem {
		sh0.mu.Lock()
		defer sh0.mu.Unlock()
		return submit("A")
	}()
	b := submit("B")
	if q := sh0.queued.Load(); q != 2 {
		t.Errorf("shard 0 has %d queued messages with its loop parked, want 2 (A's group, then B's)", q)
	}
	openGate()

	itemsA, itemsB := <-a, <-b
	for i := range itemsA {
		if itemsA[i].Err != nil || itemsB[i].Err != nil {
			t.Fatalf("item %d: %v / %v", i, itemsA[i].Err, itemsB[i].Err)
		}
		if idA, idB := itemsA[i].Resp.QueryID, itemsB[i].Resp.QueryID; idA >= idB {
			t.Errorf("item %d on shard %d: A decided as query %d, B as %d: B overtook A",
				i, itemsA[i].Resp.Shard, idA, idB)
		}
	}
	if got := inlineOf(srv, 0); got != inline0 {
		t.Errorf("shard 0: %d inline decisions, want %d (every group queued)", got-inline0, 0)
	}
	if got := inlineOf(srv, 1); got != inline1+2 {
		t.Errorf("shard 1: %d inline decisions, want 2 (A's and B's idle groups)", got-inline1)
	}
}
