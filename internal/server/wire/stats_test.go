package wire_test

import (
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/server/wire"
)

// TestWireStatsFrame: the stats fetch shares the query connection and
// returns the same snapshot /v1/stats would serve — per-tenant ledgers
// included — so binary-front clients never need the HTTP port.
func TestWireStatsFrame(t *testing.T) {
	srv, addr := newWireServer(t, 4)
	cl := dialMux(t, addr)

	// Interleave queries and stats requests on one connection.
	if _, err := cl.Submit(ctx, []wire.Query{
		{Tenant: "alice", Template: "Q6"},
		{Tenant: "bob", Template: "Q1"},
		{Tenant: "alice", Template: "Q3"},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 {
		t.Errorf("wire stats queries = %d, want 3", st.Queries)
	}
	if st.Provider != "altruistic" {
		t.Errorf("provider = %q, want altruistic", st.Provider)
	}
	if len(st.Tenants) != 2 || st.Tenants[0].Tenant != "alice" || st.Tenants[1].Tenant != "bob" {
		t.Fatalf("tenant sections = %+v, want sorted [alice bob]", st.Tenants)
	}
	if st.Tenants[0].Queries != 2 || st.Tenants[1].Queries != 1 {
		t.Errorf("tenant attribution wrong: %+v", st.Tenants)
	}

	// The wire snapshot must equal the in-process one field for field.
	if direct := srv.Stats(); !reflect.DeepEqual(st, direct) {
		t.Errorf("wire stats diverged from Server.Stats():\nwire   %+v\ndirect %+v", st, direct)
	}

	// The connection still carries queries after a stats exchange.
	if _, err := cl.Submit(ctx, []wire.Query{{Tenant: "bob", Template: "Q6"}}); err != nil {
		t.Fatal(err)
	}
}

// TestWireStatsCodec round-trips the payload without a socket.
func TestWireStatsCodec(t *testing.T) {
	in := server.Stats{
		Scheme:   "econ-cheap",
		Provider: "selfish",
		Shards:   2,
		Queries:  7,
		Tenants: []server.TenantStats{
			{Tenant: "a", Queries: 4, CreditUSD: 1.5},
			{Tenant: "b", Queries: 3, SpendUSD: 0.25},
		},
	}
	payload, err := wire.AppendStatsPush(nil, 9, in)
	if err != nil {
		t.Fatal(err)
	}
	tag, out, err := wire.DecodeStatsPush(payload)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 9 || !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed stats (tag %d):\nin  %+v\nout %+v", tag, in, out)
	}
	if _, _, err := wire.DecodeStatsPush([]byte{9, 9}); err == nil {
		t.Error("bad stats payload accepted")
	}
}
