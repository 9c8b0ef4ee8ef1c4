// Package plan represents the physical query plans the cloud considers for
// an incoming query (§IV-B). A plan runs completely in the cache or
// completely in the back-end (§V-B), may use an index and extra CPU nodes,
// and carries the cost model's verdict: execution time, resource usage, and
// the amortized share of any structures it employs.
//
// The package also implements the skyline filter of footnote 2: PQ keeps
// only plans that are Pareto-optimal on (execution time, total cost).
package plan

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Location says where a plan executes.
type Location int

// The two execution locations of §V-B.
const (
	Backend Location = iota
	Cache
)

// String implements fmt.Stringer.
func (l Location) String() string {
	if l == Cache {
		return "cache"
	}
	return "backend"
}

// Plan is one costed execution alternative for a query.
type Plan struct {
	// Query the plan answers.
	Query *workload.Query
	// Location of execution.
	Location Location
	// Structures the plan employs (cache plans only): the columns it
	// scans, the index it probes (if any) and the extra CPU nodes it
	// runs on. Back-end plans use no cache structures. An enumerated
	// plan does not own its set (nor Missing): both belong to the
	// optimizer's per-template table and are read-only to everyone else
	// (see optimizer.Enumerate's aliasing contract).
	Structures *structure.Set
	// UsesIndex reports whether the plan probes an index.
	UsesIndex bool
	// Index identifies the index structure when UsesIndex.
	Index structure.ID
	// Nodes is the number of CPU nodes the plan runs on (1 = just the
	// base worker).
	Nodes int

	// Outcome is the cost model's execution verdict.
	Outcome cost.Outcome
	// ExecPrice is Ce(P_Q): the execution cost under the deciding
	// scheme's price schedule (Eq. 8/9).
	ExecPrice money.Amount
	// AmortPrice is Ca(P_Q): the amortized share of the build cost of
	// the structures the plan uses (Eq. 5–7).
	AmortPrice money.Amount
	// MaintPrice is the maintenance rent accrued against the plan's
	// structures since the last paying plan (§V-C footnote 3). The
	// selected plan settles it, but it is NOT part of the comparison
	// price: pricing arrears into selection would make an idle
	// structure's plans ever more expensive, deadlocking it out of use.
	MaintPrice money.Amount
	// Missing lists the members of Structures that are not yet built,
	// in Structures order. A plan with len(Missing) > 0 belongs to PQpos
	// — it cannot run today and is tracked only for regret (§IV-B).
	Missing []*structure.Structure
}

// Price is C(P_Q) = Ce + Ca (Eq. 4): the comparison price used for
// affordability and plan selection.
func (p *Plan) Price() money.Amount {
	return p.ExecPrice.Add(p.AmortPrice)
}

// Time is the plan's promised execution time.
func (p *Plan) Time() time.Duration { return p.Outcome.Time }

// Runnable reports whether the plan can execute now (PQexist membership).
func (p *Plan) Runnable() bool { return len(p.Missing) == 0 }

// String renders a compact description for traces and tests.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[t=%v price=%s", p.Location, p.Outcome.Time.Round(time.Millisecond), p.Price())
	if p.UsesIndex {
		fmt.Fprintf(&b, " idx=%s", p.Index)
	}
	if p.Nodes > 1 {
		fmt.Fprintf(&b, " nodes=%d", p.Nodes)
	}
	if !p.Runnable() {
		fmt.Fprintf(&b, " missing=%d", len(p.Missing))
	}
	b.WriteString("]")
	return b.String()
}

// Skyline filters plans down to the Pareto front on (time, price): a plan
// survives iff no other plan is at least as fast and at least as cheap with
// at least one strict improvement. Among exact ties the first plan wins,
// keeping the filter deterministic. The input slice is not modified.
func Skyline(plans []*Plan) []*Plan {
	if len(plans) <= 1 {
		out := make([]*Plan, len(plans))
		copy(out, plans)
		return out
	}
	// Sort by time asc, then price asc; sweep keeping strictly
	// decreasing prices.
	sorted := make([]*Plan, len(plans))
	copy(sorted, plans)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Outcome.Time != sorted[j].Outcome.Time {
			return sorted[i].Outcome.Time < sorted[j].Outcome.Time
		}
		return sorted[i].Price() < sorted[j].Price()
	})
	out := make([]*Plan, 0, len(sorted))
	bestPrice := money.Max
	lastTime := time.Duration(-1)
	for _, p := range sorted {
		price := p.Price()
		if p.Outcome.Time == lastTime {
			// Same time as the kept plan; it was at most this cheap.
			continue
		}
		if price >= bestPrice {
			// Dominated: somebody faster is no more expensive.
			continue
		}
		out = append(out, p)
		bestPrice = price
		lastTime = p.Outcome.Time
	}
	return out
}

// Cheapest returns the plan with the lowest Price; ties break toward the
// faster plan, then toward the earlier element. Returns nil for no plans.
func Cheapest(plans []*Plan) *Plan {
	var best *Plan
	for _, p := range plans {
		if best == nil {
			best = p
			continue
		}
		switch p.Price().Cmp(best.Price()) {
		case -1:
			best = p
		case 0:
			if p.Outcome.Time < best.Outcome.Time {
				best = p
			}
		}
	}
	return best
}

// Fastest returns the plan with the lowest execution time; ties break
// toward the cheaper plan, then toward the earlier element. Returns nil for
// no plans.
func Fastest(plans []*Plan) *Plan {
	var best *Plan
	for _, p := range plans {
		if best == nil {
			best = p
			continue
		}
		if p.Outcome.Time < best.Outcome.Time ||
			(p.Outcome.Time == best.Outcome.Time && p.Price() < best.Price()) {
			best = p
		}
	}
	return best
}

// Partition splits plans into PQexist (runnable now) and PQpos (needs new
// structures), preserving order (§IV-B).
func Partition(plans []*Plan) (exist, possible []*Plan) {
	for _, p := range plans {
		if p.Runnable() {
			exist = append(exist, p)
		} else {
			possible = append(possible, p)
		}
	}
	return exist, possible
}
