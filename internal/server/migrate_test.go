package server_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/persist"
	"repro/internal/server"
)

// Migration parity: a shard frozen on backend A, extracted as a packet,
// carried as bytes and installed on backend B must answer the remaining
// stream byte-identically — replies and final stats — to a shard that
// never moved. The harness reuses the restart-parity stream, but where
// the restart test moves the WHOLE engine through a drain, these move
// ONE shard between two live servers.

func migrationServer(t *testing.T, provider economy.Provider, clock server.Clock, shards int) *server.Server {
	t.Helper()
	params := testParams(testCatalog())
	params.Provider = provider
	srv, err := server.New(server.Config{
		Shards: shards,
		Scheme: "econ-cheap",
		Params: params,
		Clock:  clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// transferShard round-trips the packet through its wire encoding, the
// way a real migration carries it between processes.
func transferShard(t *testing.T, src *server.Server, shard int) *persist.ShardPacket {
	t.Helper()
	pkt, err := src.ExtractShard(shard)
	if err != nil {
		t.Fatalf("extract shard %d: %v", shard, err)
	}
	data := persist.EncodeShardPacket(pkt)
	got, err := persist.DecodeShardPacket(data)
	if err != nil {
		t.Fatalf("decode transferred packet: %v", err)
	}
	return got
}

// TestMigrationParity is the acceptance harness: both providers, a
// single-shard economy moved mid-stream, byte-compared against an
// unmigrated control run.
func TestMigrationParity(t *testing.T) {
	for _, provider := range []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			// Control: one server lives through the whole stream.
			ctlClock := server.NewVirtualClock()
			ctl := migrationServer(t, provider, ctlClock, 1)
			ctlReplies := runParityGroups(t, ctl, ctlClock, 0, parityGroups, true)
			if err := ctl.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			ctlStats := ctl.Stats()

			// Backend A serves the first half of the stream, then the
			// shard is frozen, extracted and shipped.
			clockA := server.NewVirtualClock()
			a := migrationServer(t, provider, clockA, 1)
			runParityGroups(t, a, clockA, 0, parityRestart, true)
			pkt := transferShard(t, a, 0)
			if pkt.State.Investments == 0 {
				t.Fatal("packet carries no investments; the parity run is not exercising the economy")
			}

			// The source now rejects the shard's traffic with the
			// not-owned sentinel and reports the slot disowned.
			if _, err := a.Submit(context.Background(), parityGroup(parityRestart)[0]); !errors.Is(err, server.ErrShardNotOwned) {
				t.Fatalf("post-extract submit on source: err = %v, want ErrShardNotOwned", err)
			}
			if owned := a.OwnedShards(); owned[0] {
				t.Fatal("extracted shard still reported as owned on the source")
			}

			// Backend B adopts the packet at the same economy time and
			// serves the rest of the stream.
			clockB := server.NewVirtualClock()
			clockB.Advance(pkt.Clock)
			b := migrationServer(t, provider, clockB, 1)
			if err := b.FreezeShard(0); err != nil {
				t.Fatal(err)
			}
			if err := b.InstallShard(0, pkt); err != nil {
				t.Fatalf("install: %v", err)
			}
			replies := runParityGroups(t, b, clockB, parityRestart, parityGroups, true)

			if err := a.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := b.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			wantReplies := ctlReplies[parityRestart*parityPer:]
			if got, want := mustJSON(t, replies), mustJSON(t, wantReplies); got != want {
				t.Errorf("replies after migration diverge from unmigrated run:\ngot  %s\nwant %s", got, want)
			}
			migStats := b.Stats()
			clearGauges(&migStats)
			clearGauges(&ctlStats)
			if got, want := mustJSON(t, migStats), mustJSON(t, ctlStats); got != want {
				t.Errorf("final stats after migration diverge from unmigrated run:\ngot  %s\nwant %s", got, want)
			}

			// The source kept nothing: the extract was a move, not a copy —
			// the remnant slot is a fresh, disowned economy (its credit is
			// the scheme's initial float, not carried-over balance).
			srcStats := a.Stats()
			if sh := srcStats.PerShard[0]; sh.Queries != 0 || sh.ResidentBytes != 0 || sh.InvestedUSD != 0 || sh.RevenueUSD != 0 || sh.Owned {
				t.Errorf("source shard retains state after extract: %+v", sh)
			}
		})
	}
}

// TestExtractShardCheckedAborts pins the commit gate the wire layer
// leans on: a check that rejects the captured packet (an encoding too
// large for one frame, say) must abort the extract with the shard's
// state, ownership and service untouched — the economy must not be
// destroyed for a reply that could never be delivered.
func TestExtractShardCheckedAborts(t *testing.T) {
	clock := server.NewVirtualClock()
	srv := migrationServer(t, economy.ProviderSelfish, clock, 1)
	defer srv.Shutdown(context.Background())
	runParityGroups(t, srv, clock, 0, parityRestart, true)
	before := srv.Stats()

	sentinel := errors.New("packet refused by the transport")
	var sawQueries int64
	if _, err := srv.ExtractShardChecked(0, func(pkt *persist.ShardPacket) error {
		sawQueries = pkt.State.Queries
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("aborted extract: err = %v, want the check's error", err)
	}
	if sawQueries == 0 {
		t.Fatal("check never saw a captured economy; the gate is vacuous")
	}
	if !srv.ShardOwned(0) {
		t.Fatal("aborted extract left the shard disowned")
	}
	after := srv.Stats()
	if got, want := mustJSON(t, after), mustJSON(t, before); got != want {
		t.Fatalf("aborted extract mutated shard state:\ngot  %s\nwant %s", got, want)
	}

	// The shard keeps serving the stream as if nothing happened, and a
	// later unguarded extract still moves the full economy.
	runParityGroups(t, srv, clock, parityRestart, parityRestart+8, true)
	pkt, err := srv.ExtractShard(0)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.State.Queries <= sawQueries {
		t.Fatalf("post-abort extract carries %d queries, want > %d", pkt.State.Queries, sawQueries)
	}
}

// TestInstallGuards pins the installation validation: wrong fingerprint,
// wrong slot, or a slot that already holds state must all fail loudly.
func TestInstallGuards(t *testing.T) {
	clockA := server.NewVirtualClock()
	a := migrationServer(t, economy.ProviderSelfish, clockA, 2)
	defer a.Shutdown(context.Background())
	runParityGroups(t, a, clockA, 0, 8, true)

	pkt, err := a.ExtractShard(0)
	if err != nil {
		t.Fatal(err)
	}

	// Same server, same slot: the reset made the slot unused, so a
	// round-trip reinstall is legal and restores ownership.
	if err := a.InstallShard(0, pkt); err != nil {
		t.Fatalf("reinstall into the extracted slot: %v", err)
	}
	if !a.ShardOwned(0) {
		t.Fatal("reinstalled shard not owned")
	}

	// A slot holding live state refuses installs.
	if err := a.InstallShard(0, pkt); !errors.Is(err, server.ErrShardInUse) {
		t.Fatalf("install over live state: err = %v, want ErrShardInUse", err)
	}
	// Wrong slot index.
	if err := a.InstallShard(1, pkt); err == nil {
		t.Fatal("install into mismatched slot accepted")
	}
	// Wrong provider fingerprint.
	alt := migrationServer(t, economy.ProviderAltruistic, server.NewVirtualClock(), 2)
	defer alt.Shutdown(context.Background())
	if err := alt.InstallShard(0, pkt); err == nil {
		t.Fatal("install across a provider change accepted")
	}
	// Readiness reflects draining.
	if state, ready := a.ReadyState(); !ready || state != "ok" {
		t.Fatalf("ReadyState() = %q, %v before shutdown", state, ready)
	}
	a.Shutdown(context.Background())
	if state, ready := a.ReadyState(); ready || state != "draining" {
		t.Fatalf("ReadyState() = %q, %v after shutdown", state, ready)
	}
}

// TestMigrationUnderConcurrentLoad runs one submitter per shard while a
// hot shard migrates mid-stream between two live servers, with each
// submitter retrying not-owned rejections against the new owner — the
// router's replay loop in miniature. Per-shard replies must be
// byte-identical to a sequential no-migration replay, modulo QueryID:
// IDs are allocation order across the whole server, so concurrent
// submitters interleave them nondeterministically; everything else —
// selectivity draws, verdicts, charges, response times — must match.
func TestMigrationUnderConcurrentLoad(t *testing.T) {
	const (
		shards   = 4
		hot      = 2   // the shard that moves
		perShard = 240 // queries per submitter
		moveAt   = 80  // migrate once the hot submitter has this many replies
	)

	// One tenant per shard, found by probing the routing hash.
	probe := migrationServer(t, economy.ProviderSelfish, server.NewVirtualClock(), shards)
	tenants := make([]string, shards)
	for i := 0; len(tenants[shards-1]) == 0 || func() bool {
		for _, s := range tenants {
			if s == "" {
				return true
			}
		}
		return false
	}(); i++ {
		name := fmt.Sprintf("tenant-%d", i)
		idx := probe.ShardIndex(server.Request{Tenant: name})
		if tenants[idx] == "" {
			tenants[idx] = name
		}
	}
	probe.Shutdown(context.Background())

	templates := []string{"Q1", "Q6", "Q3", "Q10", "Q14", "Q18"}
	reqFor := func(shard, n int) server.Request {
		req := server.Request{Tenant: tenants[shard], Template: templates[n%len(templates)]}
		if n%3 != 2 {
			req.Selectivity = 0.001 + 0.0001*float64(n%9)
		}
		if n%4 != 3 {
			req.Budget = budget.NewStep(money.FromDollars(0.05), time.Hour)
		}
		return req
	}

	a := migrationServer(t, economy.ProviderSelfish, server.NewVirtualClock(), shards)
	b := migrationServer(t, economy.ProviderSelfish, server.NewVirtualClock(), shards)
	// Cluster partition bootstrap: B owns nothing until the migration
	// installs the hot shard, so a racing submitter can never split the
	// economy across both backends.
	for i := 0; i < shards; i++ {
		if err := b.FreezeShard(i); err != nil {
			t.Fatal(err)
		}
	}

	// The gate that decides the outcome: the hot submitter parks after
	// moveAt replies until the shard is frozen, so its next submission
	// is rejected by construction, and the packet is installed only once
	// that rejection has been seen. The other three submitters run
	// unsynchronised throughout — the migration still races live load —
	// but "some submitter observed ErrShardNotOwned mid-migration" no
	// longer depends on who wins a sleep.
	reached := make(chan struct{})   // hot submitter has moveAt replies
	frozen := make(chan struct{})    // shard frozen on A; hot submitter may go on
	sawReject := make(chan struct{}) // a submitter was told not-owned
	var rejectOnce sync.Once
	replies := make([][]server.Response, shards)
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ctx := context.Background()
			owner := a
			for n := 0; n < perShard; n++ {
				if k == hot && n == moveAt {
					close(reached)
					<-frozen
				}
				req := reqFor(k, n)
				for {
					resp, err := owner.Submit(ctx, req)
					if err == nil {
						replies[k] = append(replies[k], resp)
						break
					}
					if !errors.Is(err, server.ErrShardNotOwned) {
						t.Errorf("shard %d query %d: %v", k, n, err)
						return
					}
					// Re-route: the owner moved. Flip to the other backend
					// and retry; while the packet is still in flight both
					// sides reject, so yield and go round again.
					rejectOnce.Do(func() { close(sawReject) })
					if owner == a {
						owner = b
					} else {
						owner = a
					}
					runtime.Gosched()
				}
			}
		}(k)
	}

	// The migration fires while all four submitters are running. A
	// submitter that bailed out on an unexpected error must fail the test
	// rather than leave it parked on the gate.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	await := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-done:
			t.Fatalf("submitters exited before %s", what)
		}
	}
	await(reached, "the hot shard reached its migration point")
	if err := a.FreezeShard(hot); err != nil {
		t.Fatal(err)
	}
	close(frozen)
	await(sawReject, "any of them saw ErrShardNotOwned; the migration did not race the load")
	pkt := transferShard(t, a, hot)
	if err := b.InstallShard(hot, pkt); err != nil {
		t.Fatalf("install during load: %v", err)
	}
	<-done

	// Sequential control: same per-shard streams, no migration.
	ctl := migrationServer(t, economy.ProviderSelfish, server.NewVirtualClock(), shards)
	ctlReplies := make([][]server.Response, shards)
	for k := 0; k < shards; k++ {
		for n := 0; n < perShard; n++ {
			resp, err := ctl.Submit(context.Background(), reqFor(k, n))
			if err != nil {
				t.Fatalf("control shard %d query %d: %v", k, n, err)
			}
			ctlReplies[k] = append(ctlReplies[k], resp)
		}
	}

	normalize := func(rs []server.Response) []server.Response {
		out := append([]server.Response(nil), rs...)
		for i := range out {
			out[i].QueryID = 0
		}
		return out
	}
	for k := 0; k < shards; k++ {
		if got, want := mustJSON(t, normalize(replies[k])), mustJSON(t, normalize(ctlReplies[k])); got != want {
			t.Errorf("shard %d replies diverge from sequential no-migration replay:\ngot  %s\nwant %s", k, got, want)
		}
	}

	// Final books: shard k's stats live on A (k != hot) or B (hot) and
	// must match the control's shard k exactly.
	for _, srv := range []*server.Server{a, b, ctl} {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	aStats, bStats, ctlStats := a.Stats(), b.Stats(), ctl.Stats()
	clearGauges(&aStats)
	clearGauges(&bStats)
	clearGauges(&ctlStats)
	for k := 0; k < shards; k++ {
		got := aStats.PerShard[k]
		if k == hot {
			got = bStats.PerShard[k]
		}
		if gotJSON, want := mustJSON(t, got), mustJSON(t, ctlStats.PerShard[k]); gotJSON != want {
			t.Errorf("shard %d final stats diverge:\ngot  %s\nwant %s", k, gotJSON, want)
		}
	}
}
