package router_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/server"
	"repro/internal/server/wire"
)

// frameCounter counts the frames a backend serves: the protocol loop
// hands its engine every batch frame as one SubmitBatchAsync call.
type frameCounter struct {
	wire.Engine
	frames atomic.Int64
}

func (e *frameCounter) SubmitBatchAsync(ctx context.Context, qs []wire.Query, decodeNanos int64, done func([]wire.Reply)) error {
	e.frames.Add(1)
	return e.Engine.SubmitBatchAsync(ctx, qs, decodeNanos, done)
}

// bytesPerRun is testing.AllocsPerRun for bytes, as in internal/server's
// shard_internal_test.go.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func count(set []bool) (n int64) {
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// TestRouterHopCounts holds the router hop to counts that repeat: one
// client drives serial round trips through a router to two 4-shard
// backends. A one-query frame costs exactly one backend frame, at most
// 4 allocations and 480 bytes; a 64-query frame spread over every shard
// costs exactly one backend frame per backend it touches, at most 4
// allocations and 12 KiB — 9 KiB of which is the client's own reply
// slice — with both ends of every hop and both backends counted.
func TestRouterHopCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	const shards = 4
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q14"}
	for _, tc := range []struct {
		batch     int
		maxAllocs float64
		maxBytes  uint64
	}{{1, 4, 480}, {64, 4, 12 << 10}} {
		t.Run(fmt.Sprintf("batch=%d", tc.batch), func(t *testing.T) {
			var counters []*frameCounter
			var addrs []string
			for b := 0; b < 2; b++ {
				c := &frameCounter{Engine: wire.ServerEngine(newEngine(t, shards, nil, nil))}
				addr, _ := serveBackend(t, c)
				counters, addrs = append(counters, c), append(addrs, addr)
			}
			r, front := newRouterFront(t, addrs, -1)
			cl, err := wire.DialMux(front)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			frames := func() int64 { return counters[0].frames.Load() + counters[1].frames.Load() }

			qs := make([]wire.Query, tc.batch)
			i := 0
			var trips, touched int64
			roundTrip := func() {
				var owners [2]bool
				for j := range qs {
					qs[j] = wire.Query{Tenant: tenants[i%len(tenants)], Template: templates[i%len(templates)]}
					i++
					owners[r.Owner(server.ShardIndexFor(qs[j].Tenant, qs[j].Template, shards))] = true
				}
				replies, err := cl.Submit(context.Background(), qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, rep := range replies {
					if rep.Err != "" {
						t.Fatal(rep.Err)
					}
				}
				trips++
				touched += count(owners[:])
			}
			for i < 5000 {
				roundTrip()
			}

			before, trips0, touched0 := frames(), trips, touched
			allocs := testing.AllocsPerRun(500, roundTrip)
			bytes := bytesPerRun(500, roundTrip)
			if got, want := frames()-before, touched-touched0; got != want {
				t.Errorf("%d client frames of %d queries cost %d backend frames, want %d (one per backend touched)",
					trips-trips0, tc.batch, got, want)
			}
			t.Logf("batch=%d: %.0f allocations, %d bytes per routed round trip", tc.batch, allocs, bytes)
			if allocs > tc.maxAllocs || bytes > tc.maxBytes {
				t.Errorf("a batch=%d routed round trip allocates %.1f times and %d bytes, gates %.0f and %d; `make profile` lists the engine's sites, `go test -run TestRouterHopCounts -memprofile mem.prof -memprofilerate 1 ./internal/router` the hop's",
					tc.batch, allocs, bytes, tc.maxAllocs, tc.maxBytes)
			}
		})
	}
}
