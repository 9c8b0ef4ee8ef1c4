package server_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/persist"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenStream scripts the fixed 5 000-query stream behind the snapshot
// goldens: five tenants (one untagged) over all seven templates, explicit
// and shard-drawn selectivities, generous, tight and default budgets, and
// a clock that ticks 5 s per group with an hour-long lull every 200
// groups — long enough for rent to outgrow value, so the snapshot carries
// maintenance failures and the investment backoff they raise next to
// residents, pending builds, owners and live regret rows.
func goldenStream(t *testing.T, srv *server.Server, clock *server.VirtualClock) {
	t.Helper()
	const groups, per = 1000, 5
	tenants := []string{"alice", "bob", "carol", "dave", ""}
	templates := []string{"Q1", "Q3", "Q5", "Q6", "Q10", "Q14", "Q18"}
	ctx := context.Background()
	for g := 0; g < groups; g++ {
		clock.Advance(5 * time.Second)
		if g%200 == 199 {
			clock.Advance(time.Hour)
		}
		srv.Housekeep()
		reqs := make([]server.Request, per)
		for i := range reqs {
			n := g*per + i
			req := server.Request{
				Tenant:   tenants[g%len(tenants)],
				Template: templates[(g/len(tenants)+i)%len(templates)],
			}
			if n%4 != 3 {
				req.Selectivity = 0.001 + 0.0005*float64(n%11)
			}
			switch n % 5 {
			case 0, 1:
				req.Budget = budget.NewStep(money.FromDollars(0.05), time.Hour)
			case 2:
				req.Budget = budget.NewStep(money.FromDollars(0.0004), 30*time.Second)
			case 3:
				req.Budget = budget.NewLinear(money.FromDollars(0.02), 2*time.Minute)
			}
			reqs[i] = req
		}
		items, err := srv.SubmitBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("group %d item %d: %v", g, i, it.Err)
			}
		}
	}
}

// TestSnapshotGolden pins the exact bytes persist.EncodeBytes produces
// for a server's Snapshot() after the fixed stream, per scheme and (for
// the economy schemes) per provider. It is the byte-level guard on the
// state (de)serialisers: whatever containers the engine keeps its
// residency, regret rows, owners and failure history in, what reaches
// disk — order included — must not move.
func TestSnapshotGolden(t *testing.T) {
	type cell struct {
		scheme   string
		provider economy.Provider
	}
	cells := []cell{{"bypass", economy.ProviderAltruistic}}
	for _, name := range []string{"econ-col", "econ-cheap", "econ-fast"} {
		cells = append(cells, cell{name, economy.ProviderAltruistic}, cell{name, economy.ProviderSelfish})
	}
	for _, c := range cells {
		name := fmt.Sprintf("snapshot_%s_%s", c.scheme, c.provider)
		t.Run(name, func(t *testing.T) {
			params := testParams(testCatalog())
			params.Provider = c.provider
			clock := server.NewVirtualClock()
			srv, err := server.New(server.Config{Shards: 2, Scheme: c.scheme, Params: params, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			goldenStream(t, srv, clock)

			snap := srv.Snapshot()
			snap.CreatedUnixNano = 0 // the only wall-clock field
			var invested, failures int64
			for _, sh := range snap.Shards {
				invested += sh.Investments
				failures += sh.Failures
			}
			if invested == 0 {
				t.Fatal("stream triggered no investments; the golden would pin an empty economy")
			}
			// Column-only inventories never fail on this stream; the full
			// inventories must, or backoff state goes unpinned.
			if (c.scheme == "econ-cheap" || c.scheme == "econ-fast") && failures == 0 {
				t.Fatal("stream triggered no maintenance failures; the failure history would go unpinned")
			}
			got := persist.EncodeBytes(snap)

			golden := filepath.Join("testdata", name+".golden.snap")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			// Name what moved: decode the golden and compare as JSON.
			wantSnap, err := persist.Decode(want)
			if err != nil {
				t.Fatalf("snapshot bytes diverged from %s, and the golden no longer decodes: %v", golden, err)
			}
			t.Errorf("snapshot bytes diverged from %s (%d vs %d bytes):\ngot  %s\nwant %s",
				golden, len(got), len(want), mustJSON(t, snap), mustJSON(t, wantSnap))
		})
	}
}
