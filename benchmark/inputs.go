package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/workload"
)

// Stream shape shared by every workload: the paper's Zipf skew and
// evolution phase, spread over 64 tenants so the served paths exercise
// per-tenant routing and ledgers.
const (
	streamTheta  = 1.1
	streamPhase  = 20_000
	tenants      = 64
	tenantTheta  = 1.0
	queryEvery   = time.Second // economy time per issued query
	maxBatchSize = 64
)

// inputs is everything a served workload sends, generated from the seed
// before any timing starts: the program under test only ever receives
// these.
type inputs struct {
	cat *catalog.Catalog
	// wire[i] is query i of the stream in wire form; clients walk the
	// pool cyclically. Its length is a multiple of maxBatchSize so a
	// batch never wraps.
	wire []wire.Query
	// gen holds the first len(gen) queries in generator form, for the
	// offline econ-vs-bypass replay of the same stream.
	gen []*workload.Query
	// httpReq[i] is the complete HTTP/1.1 request of query i
	// (http-mixed only).
	httpReq [][]byte
	// genNanos is what workload.Generator took to produce the pool.
	genNanos int64
}

func newGenerator(cat *catalog.Catalog, seed int64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{
		Catalog:     cat,
		Seed:        seed,
		Arrival:     workload.NewFixedArrival(queryEvery),
		Budgets:     experiments.PaperBudgetPolicy(),
		Theta:       streamTheta,
		PhaseLength: streamPhase,
		Tenants:     tenants,
		TenantTheta: tenantTheta,
	})
}

// generate builds a pool of n queries, keeping the first keep in
// generator form. With explicitBudgets every query carries its budget on
// the wire, alternating linear and convex curves over the price and
// deadline the paper's policy assigns — the path that cannot use the
// server's pre-boxed default budget.
func generate(seed int64, n, keep int, explicitBudgets bool) (*inputs, error) {
	if n%maxBatchSize != 0 || keep > n {
		return nil, fmt.Errorf("inputs: pool of %d (keep %d) must be a multiple of %d", n, keep, maxBatchSize)
	}
	cat := catalog.Paper()
	gen, err := newGenerator(cat, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{cat: cat, wire: make([]wire.Query, n), gen: make([]*workload.Query, 0, keep)}
	t0 := time.Now()
	qs := gen.Generate(n)
	in.genNanos = time.Since(t0).Nanoseconds()

	if explicitBudgets {
		in.httpReq = make([][]byte, n)
	}
	for i, q := range qs {
		wq := wire.Query{
			Tenant:         q.Tenant,
			Template:       q.Template.Name,
			Selectivity:    q.Selectivity,
			HasSelectivity: true,
		}
		if explicitBudgets {
			step, ok := q.Budget.(budget.Step)
			if !ok {
				return nil, fmt.Errorf("inputs: paper policy produced %T, want budget.Step", q.Budget)
			}
			bj := &server.BudgetJSON{Shape: "linear", PriceUSD: step.Price.Dollars(), TmaxSec: step.TMax.Seconds()}
			if i%2 == 1 {
				bj.Shape, bj.K = "convex", 2
			}
			wq.Budget = bj
			if q.Budget, err = bj.Func(); err != nil {
				return nil, err
			}
			sel := q.Selectivity
			body, err := json.Marshal(server.QueryRequest{Tenant: q.Tenant, Template: wq.Template, Selectivity: &sel, Budget: bj})
			if err != nil {
				return nil, err
			}
			in.httpReq[i] = fmt.Appendf(nil,
				"POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				len(body), body)
		}
		in.wire[i] = wq
		if i < keep {
			in.gen = append(in.gen, q)
		}
	}
	return in, nil
}

// replaySource feeds a fixed slice of generated queries to sim.Run.
type replaySource struct {
	qs   []*workload.Query
	next int
}

func (r *replaySource) Next() *workload.Query {
	if r.next >= len(r.qs) {
		return nil
	}
	q := r.qs[r.next]
	r.next++
	return q
}

func (r *replaySource) Batch(n int, buf []*workload.Query) []*workload.Query {
	for ; n > 0 && r.next < len(r.qs); n-- {
		buf = append(buf, r.qs[r.next])
		r.next++
	}
	return buf
}

func (r *replaySource) Clock() time.Duration {
	if r.next == 0 {
		return 0
	}
	return r.qs[r.next-1].Arrival
}
