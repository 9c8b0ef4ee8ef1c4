package sim

import (
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/scheme"
	"repro/internal/structure"
	"repro/internal/workload"
)

// residentCache holds one 2 GiB column and one extra CPU node, so every
// second of accrual is 2 GiB·s of storage and 1 node·s.
func residentCache(t *testing.T) *cache.Cache {
	t.Helper()
	ca := cache.New(0)
	col := &structure.Structure{ID: "col:t.c", Kind: structure.KindColumn, Bytes: 2 << 30}
	for _, st := range []*structure.Structure{col, structure.CPUNode(2)} {
		if err := ca.StartBuild(st, 0, money.FromDollars(1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ca.CompleteDue()); got != 2 {
		t.Fatalf("CompleteDue = %d, want 2", got)
	}
	return ca
}

// TestBooks pins the account's arithmetic: accrual only past the
// watermark, the tail closed through max(now, EndOfRun), and the priced
// total the sum of its parts.
func TestBooks(t *testing.T) {
	s := time.Second
	cases := []struct {
		name        string
		start       Books
		accrue      []time.Duration // Accrue calls, in order
		close       time.Duration   // Close(now); negative skips it
		wantGBSec   float64
		wantAccrual time.Duration
	}{
		{"at the watermark", Books{LastAccrual: 5 * s}, []time.Duration{5 * s}, -1, 0, 5 * s},
		{"before the watermark", Books{LastAccrual: 5 * s}, []time.Duration{3 * s}, -1, 0, 5 * s},
		{"past the watermark", Books{LastAccrual: 5 * s}, []time.Duration{8 * s, 7 * s}, -1, 6, 8 * s},
		{"close at now", Books{EndOfRun: 2 * s}, []time.Duration{1 * s}, 4 * s, 8, 4 * s},
		{"close through the tail", Books{EndOfRun: 6 * s}, []time.Duration{1 * s}, 4 * s, 12, 6 * s},
		{"close behind the watermark", Books{EndOfRun: 2 * s}, []time.Duration{5 * s}, 3 * s, 10, 5 * s},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca := residentCache(t)
			b := tc.start
			for _, now := range tc.accrue {
				b.Accrue(now, ca)
			}
			if tc.close >= 0 {
				b.Close(tc.close, ca)
			}
			if b.StorageGBSeconds != tc.wantGBSec || b.NodeSeconds != tc.wantGBSec/2 || b.LastAccrual != tc.wantAccrual {
				t.Errorf("%g GiB·s, %g node·s, watermark %v; want %g, %g, %v",
					b.StorageGBSeconds, b.NodeSeconds, b.LastAccrual, tc.wantGBSec, tc.wantGBSec/2, tc.wantAccrual)
			}
		})
	}

	b := Books{
		StorageGBSeconds: 3.6e6, NodeSeconds: 7200,
		ExecUsage:  cost.Usage{CPUSeconds: 10, IOOps: 1000, NetBytes: 1 << 30},
		BuildUsage: cost.Usage{CPUSeconds: 2, NetBytes: 1 << 20, Boots: 1},
	}
	c := b.Costs(pricing.EC22008())
	if c.Exec <= 0 || c.Build <= 0 || c.Storage <= 0 || c.Node <= 0 {
		t.Fatalf("a priced part is empty: %+v", c)
	}
	if c.Operating != money.Sum(c.Exec, c.Build, c.Storage, c.Node) {
		t.Errorf("Operating %v is not Exec + Build + Storage + Node of %+v", c.Operating, c)
	}
}

// scriptScheme answers each query with the result scripted for its ID.
type scriptScheme struct {
	ca      *cache.Cache
	results map[int64]scheme.Result
}

func (s *scriptScheme) Name() string { return "script" }

func (s *scriptScheme) HandleQuery(q *workload.Query) (scheme.Result, error) {
	s.ca.Advance(q.Arrival)
	return s.results[q.ID], nil
}

func (s *scriptScheme) Cache() *cache.Cache { return s.ca }

// listSource replays a fixed stream.
type listSource struct{ qs []*workload.Query }

func (l *listSource) Next() *workload.Query {
	if len(l.qs) == 0 {
		return nil
	}
	q := l.qs[0]
	l.qs = l.qs[1:]
	return q
}

func (l *listSource) Batch(n int, buf []*workload.Query) []*workload.Query {
	n = min(n, len(l.qs))
	buf = append(buf, l.qs[:n]...)
	l.qs = l.qs[n:]
	return buf
}

func (l *listSource) Clock() time.Duration { return 0 }

// TestDeclinedQueryDoesNotExtendEndOfRun: a decline runs nothing, so the
// tail-rent window stays at the last execution's completion — the rule
// the server shard has always applied (TestDeclinedQueryDoesNotExtendTailRent).
func TestDeclinedQueryDoesNotExtendEndOfRun(t *testing.T) {
	sch := &scriptScheme{ca: residentCache(t), results: map[int64]scheme.Result{
		1: {ResponseTime: time.Second, Location: plan.Backend},
		2: {Declined: true},
	}}
	src := &listSource{qs: []*workload.Query{{ID: 1}, {ID: 2, Arrival: 10 * time.Second}}}
	rep, err := Run(Config{Scheme: sch, Source: src, Queries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EndOfRun != time.Second || rep.Declined != 1 {
		t.Errorf("EndOfRun %v with %d declined, want 1s and 1", rep.EndOfRun, rep.Declined)
	}
}
