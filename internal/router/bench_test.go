package router_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/server/wire"
)

// BenchmarkRoutedRoundTrip drives the routed path in process — a
// MuxClient, a router and two 4-shard backends, over loopback — and
// reports queries/s. Each sub-benchmark answers one question:
//
//   - closed-64: one caller waits for each 64-query frame, the
//     routed-batch workload's shape. Every reply is alone on its
//     connection, so replies skip the writer goroutines.
//   - pipelined-1 and pipelined-8: 32 goroutines share one MuxClient
//     with 1- and 8-query frames. Many frames are in flight on every
//     connection, so this is what the writer goroutines' coalescing is
//     for; a rule that sends too much straight to the socket shows here.
func BenchmarkRoutedRoundTrip(b *testing.B) {
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	templates := []string{"Q1", "Q3", "Q6", "Q10", "Q14"}
	for _, bc := range []struct {
		name           string
		callers, batch int
	}{{"closed-64", 1, 64}, {"pipelined-1", 32, 1}, {"pipelined-8", 32, 8}} {
		b.Run(bc.name, func(b *testing.B) {
			_, addrA, _ := newBackend(b, 4, nil)
			_, addrB, _ := newBackend(b, 4, nil)
			_, front := newRouterFront(b, []string{addrA, addrB}, -1)
			cl, err := wire.DialMux(front)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			// Frames are numbered across callers, so the stream and hence
			// the economy's work are the same whoever sends them.
			var next atomic.Int64
			run := func(frames int64) {
				var wg sync.WaitGroup
				for range bc.callers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						qs := make([]wire.Query, bc.batch)
						for f := next.Add(1); f <= frames; f = next.Add(1) {
							for j := range qs {
								k := int(f)*bc.batch + j
								qs[j] = wire.Query{Tenant: tenants[k%len(tenants)], Template: templates[k%len(templates)]}
							}
							rs, err := cl.Submit(context.Background(), qs)
							if err == nil && rs[0].Err != "" {
								b.Error(rs[0].Err)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			warm := int64(4096 / bc.batch)
			run(warm)
			b.ResetTimer()
			run(warm + int64(b.N))
			b.ReportMetric(float64(b.N*bc.batch)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}
