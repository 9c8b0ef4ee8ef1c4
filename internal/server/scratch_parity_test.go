package server_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/server"
)

// The allocation-free hot path reuses state aggressively: each shard
// owns a scratch workload.Query and budget.Step, the optimizer refills a
// plan pool on every Enumerate, batch replies land in pooled per-call
// buffers the completion only borrows, and Submit reply channels come
// from a sync.Pool. This test
// pins the safety contract of all that reuse: none of it may leak state
// between tenants or between concurrent submitters.
//
// The same deterministic multi-tenant stream is replayed twice — once
// sequentially, once by one goroutine per shard interleaving Submit and
// SubmitBatch — and both the per-shard replies and the final Stats must
// be byte-identical, modulo QueryID (IDs are allocation order across the
// whole server, so concurrent submitters interleave them). Run under
// -race this also proves the reuse paths publish no shared memory.

const (
	scratchShards   = 4
	scratchRounds   = 24
	scratchPerRound = 8 // queries per shard per round
)

// scratchTenants finds two tenants per shard by probing the routing
// hash, so every submitter exercises two ledgers on its shard.
func scratchTenants() [scratchShards][2]string {
	var tenants [scratchShards][2]string
	filled := 0
	for i := 0; filled < scratchShards*2; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		idx := server.ShardIndexFor(name, "", scratchShards)
		for j := 0; j < 2; j++ {
			if tenants[idx][j] == "" {
				tenants[idx][j] = name
				filled++
				break
			}
		}
	}
	return tenants
}

// scratchRequest scripts query n of a shard's stream: tenants alternate,
// templates rotate, and selectivity and budget toggle between explicit
// and server-defaulted so the shard RNG stream and the default budget
// policy are both on the reuse path.
func scratchRequest(tenants [2]string, n int) server.Request {
	templates := []string{"Q1", "Q6", "Q3", "Q10", "Q14", "Q18"}
	req := server.Request{
		Tenant:   tenants[n%2],
		Template: templates[n%len(templates)],
	}
	if n%3 != 2 {
		req.Selectivity = 0.001 + 0.0001*float64(n%9)
	}
	if n%4 != 3 {
		req.Budget = budget.NewStep(money.FromDollars(0.05), time.Hour)
	}
	return req
}

func TestScratchReuseParity(t *testing.T) {
	tenants := scratchTenants()

	// run replays the stream and returns per-shard replies plus final
	// Stats. Rounds are clock steps: the clock advances and Housekeep
	// runs between rounds (never during one), so both replays see every
	// query at the same virtual time. Within a round each shard's
	// queries arrive in stream order — the only order the engine
	// promises determinism for — with the front half of each round
	// submitted as one batch and the back half as individual Submits.
	run := func(t *testing.T, provider economy.Provider, concurrent bool) ([][]server.Response, server.Stats) {
		t.Helper()
		clock := server.NewVirtualClock()
		srv := parityServer(t, provider, clock, "", nil)
		ctx := context.Background()
		out := make([][]server.Response, scratchShards)

		submitRound := func(shard, round int) error {
			reqs := make([]server.Request, scratchPerRound)
			for i := range reqs {
				reqs[i] = scratchRequest(tenants[shard], round*scratchPerRound+i)
			}
			half := scratchPerRound / 2
			items, err := srv.SubmitBatch(ctx, reqs[:half])
			if err != nil {
				return err
			}
			for i, it := range items {
				if it.Err != nil {
					return fmt.Errorf("batch item %d: %w", i, it.Err)
				}
				out[shard] = append(out[shard], it.Resp)
			}
			for i := half; i < scratchPerRound; i++ {
				resp, err := srv.Submit(ctx, reqs[i])
				if err != nil {
					return fmt.Errorf("submit item %d: %w", i, err)
				}
				out[shard] = append(out[shard], resp)
			}
			return nil
		}

		for round := 0; round < scratchRounds; round++ {
			clock.Advance(20 * time.Second)
			srv.Housekeep()
			if concurrent {
				errs := make([]error, scratchShards)
				var wg sync.WaitGroup
				for shard := 0; shard < scratchShards; shard++ {
					wg.Add(1)
					go func(shard int) {
						defer wg.Done()
						errs[shard] = submitRound(shard, round)
					}(shard)
				}
				wg.Wait()
				for shard, err := range errs {
					if err != nil {
						t.Fatalf("round %d shard %d: %v", round, shard, err)
					}
				}
			} else {
				for shard := 0; shard < scratchShards; shard++ {
					if err := submitRound(shard, round); err != nil {
						t.Fatalf("round %d shard %d: %v", round, shard, err)
					}
				}
			}
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		stats := srv.Stats()
		clearGauges(&stats)
		for _, replies := range out {
			for i := range replies {
				replies[i].QueryID = 0
			}
		}
		return out, stats
	}

	for _, provider := range []economy.Provider{economy.ProviderAltruistic, economy.ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			seqReplies, seqStats := run(t, provider, false)
			conReplies, conStats := run(t, provider, true)
			for shard := range seqReplies {
				got, want := mustJSON(t, conReplies[shard]), mustJSON(t, seqReplies[shard])
				if got != want {
					t.Errorf("shard %d: interleaved replies diverge from sequential baseline:\ngot  %s\nwant %s",
						shard, got, want)
				}
			}
			if got, want := mustJSON(t, conStats), mustJSON(t, seqStats); got != want {
				t.Errorf("interleaved final stats diverge from sequential baseline:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}
