package wire_test

import (
	"context"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// newObsWireServer is newWireServer with the decision tracer sampling
// every query and a default journal.
func newObsWireServer(t *testing.T, shards int) (*server.Server, string) {
	t.Helper()
	cat := catalog.TPCH(20)
	params := scheme.DefaultParams(cat)
	params.RegretFraction = 0.0001
	params.LoadFactor = 0.02
	srv, err := server.New(server.Config{
		Shards:           shards,
		Scheme:           "econ-cheap",
		Params:           params,
		Clock:            server.NewVirtualClock(),
		TraceSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- wire.Serve(ln, srv) }()
	t.Cleanup(func() {
		_ = ln.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("wire.Serve: %v", err)
		}
		_ = srv.Shutdown(context.Background())
	})
	return srv, ln.Addr().String()
}

// TestMuxTraceFrame: the multiplexed trace frame returns the same
// sampled records /v1/trace would, with the full decision path filled
// in — including the wire front's decode and encode stage shares, which
// only exist on this path.
func TestMuxTraceFrame(t *testing.T) {
	_, addr := newObsWireServer(t, 2)
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	qs := []wire.Query{
		{Tenant: "alice", Template: "Q6", Budget: &server.BudgetJSON{Shape: "step", PriceUSD: 0.002, TmaxSec: 3600}},
		{Tenant: "bob", Template: "Q1", Budget: &server.BudgetJSON{Shape: "step", PriceUSD: 0.002, TmaxSec: 3600}},
		{Tenant: "alice", Template: "Q3", Budget: &server.BudgetJSON{Shape: "step", PriceUSD: 0.002, TmaxSec: 3600}},
	}
	for round := 0; round < 4; round++ {
		if _, err := cl.Submit(ctx, qs); err != nil {
			t.Fatal(err)
		}
	}

	view, err := cl.Trace(ctx, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if view.SampleEvery != 1 {
		t.Errorf("sample_every = %d, want 1", view.SampleEvery)
	}
	if len(view.Records) != 12 {
		t.Fatalf("traced %d records, want 12", len(view.Records))
	}
	for _, r := range view.Records {
		if r.Template == "" || r.QueryID == 0 || r.Seq == 0 {
			t.Fatalf("incomplete record: %+v", r)
		}
		// The wire front stamps decode and back-fills encode before the
		// reply frame is sent, so by the time Submit returned both stages
		// were measured.
		if r.DecodeNanos <= 0 {
			t.Errorf("record %d/%d missing decode stage: %+v", r.Shard, r.Seq, r)
		}
		if r.EncodeNanos <= 0 {
			t.Errorf("record %d/%d missing encode stage: %+v", r.Shard, r.Seq, r)
		}
		if r.WaitNanos < 0 || r.DecideNanos <= 0 {
			t.Errorf("record %d/%d implausible wait/decide: %+v", r.Shard, r.Seq, r)
		}
	}

	// Filters ride the request frame.
	alice, err := cl.Trace(ctx, "alice", "Q6", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(alice.Records) != 4 {
		t.Fatalf("alice/Q6 records = %d, want 4", len(alice.Records))
	}
	for _, r := range alice.Records {
		if r.Tenant != "alice" || r.Template != "Q6" {
			t.Errorf("filter leaked record %+v", r)
		}
	}
}

// TestMuxEventsFrames: one-shot event fetches deliver the journal, and
// their totals reconcile with the engine's ledgers.
func TestMuxEventsFrames(t *testing.T) {
	srv, addr := newObsWireServer(t, 2)
	cl, err := wire.DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Hammer one tenant's hot templates until the economy invests; the
	// test params make that take a few hundred queries at most.
	qs := make([]wire.Query, 0, 64)
	for i := 0; i < 64; i++ {
		qs = append(qs, wire.Query{
			Tenant:   "alice",
			Template: []string{"Q6", "Q1", "Q3"}[i%3],
			Budget:   &server.BudgetJSON{Shape: "step", PriceUSD: 0.002, TmaxSec: 3600},
		})
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.EventTotals().Invests == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no investment after 10s of load")
		}
		if _, err := cl.Submit(ctx, qs); err != nil {
			t.Fatal(err)
		}
	}

	// One-shot fetch: totals match the engine's exact ledger sums. The
	// load has stopped, so the journal and the ledgers are quiescent.
	view, err := cl.Events(ctx, "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if view.Totals.Invests == 0 || len(view.Events) == 0 {
		t.Fatalf("events view empty after investments: %+v", view.Totals)
	}
	tot, rec := srv.EventTotals(), srv.RecoverTotals()
	if view.Totals.Invests != tot.Invests || view.Totals.Evicts != tot.Evicts || view.Totals.Recovers != rec.Recovers {
		t.Errorf("wire totals %+v != journal totals %+v and recover totals %+v", view.Totals, tot, rec)
	}
	st := srv.Stats()
	var investedUSD, recoveredUSD float64
	for _, sh := range st.PerShard {
		investedUSD += sh.InvestedUSD
		recoveredUSD += sh.RecoveredUSD
	}
	approx := func(name string, got, want float64) {
		if math.Abs(got-want) > math.Abs(want)*1e-9+1e-12 {
			t.Errorf("%s: journal says %v, ledgers say %v", name, got, want)
		}
	}
	approx("invested", view.Totals.InvestedUSD, investedUSD)
	approx("recovered", view.Totals.RecoveredUSD, recoveredUSD)
	for _, e := range view.Events {
		if e.Type != "invest" && e.Type != "evict" {
			t.Errorf("unknown event type %q", e.Type)
		}
		if e.Tenant != "" && e.Tenant != "alice" {
			t.Errorf("event names tenant %q, only alice submitted", e.Tenant)
		}
	}

	// Type filter.
	invests, err := cl.Events(ctx, "invest", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(invests.Events) == 0 {
		t.Fatal("invest filter returned nothing after investments")
	}
	for _, e := range invests.Events {
		if e.Type != "invest" {
			t.Errorf("invest filter leaked %q", e.Type)
		}
	}
	// Settlement recovery is counted, not journaled: filtering for it is
	// a tagged error, and the connection carries on.
	if _, err := cl.Events(ctx, "recover", "", 0); err == nil || !strings.Contains(err.Error(), `"recover"`) {
		t.Errorf("recover filter answered %v, want a tagged error naming the type", err)
	}

}
