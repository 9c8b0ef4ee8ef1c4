package economy

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/money"
	"repro/internal/plan"
	"repro/internal/structure"
)

// This file holds the economy's adversarial-audit hooks: a pure
// counterfactual quote (what would this plan set have cost under a
// different budget declaration?) and a full self-audit of the books.
// Both exist so the adversarial property tests and FuzzEconomyAdversarial
// can check the economy from the outside without reaching into unexported
// state — and so a violation report names the broken law, not just a
// mismatched number.

// QuoteResult is the outcome of a counterfactual decision: how the
// economy would classify, select and charge a query's plan set under an
// arbitrary budget declaration, computed without mutating any state.
type QuoteResult struct {
	Case     Case
	Chosen   *plan.Plan
	Declined bool
	Charged  money.Amount
	Profit   money.Amount
}

// Quote replays the §IV-C classification, plan selection and settlement
// pricing for an already-enumerated plan set under budget b, touching no
// ledger, cache or market state. It is the honest-replay oracle behind
// the "no tenant profits from lying" invariant: for any decision the real
// economy made for a declared budget, Quote(plans, truthfulBudget) is
// what honesty would have produced on the exact same market state —
// comparing the two needs no second simulation and is immune to
// investment-history divergence.
//
// Quote deliberately re-derives the decision from the same rules
// HandleQuery applies (affordability over the full plan set, the scheme
// criterion over the affordable runnable set, §VII-A over-budget
// acceptance, charged = max(price, B(t))) but through its own code path:
// it allocates nothing from the economy's scratch space and is safe to
// call between HandleQuery calls on the same plan slice.
func (e *Economy) Quote(plans []*plan.Plan, b budget.Func) QuoteResult {
	var out QuoteResult
	affordable := func(p *plan.Plan) bool {
		return b.At(p.Time()) >= p.Price()
	}
	nAfford := 0
	var exist, afford []*plan.Plan
	for _, p := range plans {
		runnable := p.Runnable()
		if runnable {
			exist = append(exist, p)
		}
		if affordable(p) {
			nAfford++
			if runnable {
				afford = append(afford, p)
			}
		}
	}
	switch {
	case nAfford == 0:
		out.Case = CaseA
	case nAfford == len(plans):
		out.Case = CaseB
	default:
		out.Case = CaseC
	}

	var chosen *plan.Plan
	switch {
	case len(afford) > 0:
		chosen = e.selectPlanWith(b, afford)
	case e.cfg.UserAcceptsOverBudget:
		chosen = plan.Cheapest(exist)
	default:
		out.Declined = true
	}
	if chosen != nil {
		out.Chosen = chosen
		price := chosen.Price()
		charged := price
		if at := b.At(chosen.Time()); at > price {
			charged = at
		}
		out.Charged = charged
		out.Profit = charged.Sub(price)
	}
	return out
}

// selectPlanWith is selectPlan against an explicit budget function.
func (e *Economy) selectPlanWith(b budget.Func, plans []*plan.Plan) *plan.Plan {
	switch e.cfg.Criterion {
	case SelectFastest:
		return plan.Fastest(plans)
	case SelectMinProfit:
		var best *plan.Plan
		var bestProfit money.Amount
		for _, p := range plans {
			profit := b.At(p.Time()).Sub(p.Price())
			if best == nil || profit < bestProfit ||
				(profit == bestProfit && p.Time() < best.Time()) {
				best, bestProfit = p, profit
			}
		}
		return best
	default:
		return plan.Cheapest(plans)
	}
}

// CheckInvariants audits every conservation law the books must satisfy
// at any point between queries, returning the first violation:
//
//   - regret entries are non-negative, their count respects the cap, and
//     no entry's LRU stamp runs ahead of the ledger clock;
//   - regret conserves: live + dropped never exceeds accrued (the
//     difference is what investment legitimately consumed), and all
//     three counters are non-negative;
//   - money attribution counters (spend, profit, invested, recovered)
//     are non-negative and declines never exceed queries;
//   - a conservative account's credit never goes negative;
//   - altruistic mirrors carry no account state (credit, investments or
//     live entries) — only the communal pool plays the market;
//   - under the altruistic provider every financed structure is owned by
//     the pool ("").
//
// It is O(total ledger entries): cheap enough for a property test to
// call between every query, too hot for the serving path.
func (e *Economy) CheckInvariants() error {
	check := func(l *Ledger, isAccount bool) error {
		var live money.Amount
		for _, s := range l.live {
			entry, id := l.rows[s], e.reg.ID(s)
			if entry.regret.IsNegative() {
				return fmt.Errorf("ledger %q: negative regret %v on %s", l.tenant, entry.regret, id)
			}
			if entry.touched > l.clock {
				return fmt.Errorf("ledger %q: entry %s touched at %d beyond clock %d", l.tenant, id, entry.touched, l.clock)
			}
			live = live.Add(entry.regret)
		}
		if len(l.live) > l.cap {
			return fmt.Errorf("ledger %q: %d live entries exceed cap %d", l.tenant, len(l.live), l.cap)
		}
		if l.RegretAccrued.IsNegative() || l.RegretDropped.IsNegative() {
			return fmt.Errorf("ledger %q: negative regret counters (accrued %v, dropped %v)", l.tenant, l.RegretAccrued, l.RegretDropped)
		}
		if isAccount && live.Add(l.RegretDropped) > l.RegretAccrued {
			return fmt.Errorf("ledger %q: live %v + dropped %v exceeds accrued %v — regret was minted",
				l.tenant, live, l.RegretDropped, l.RegretAccrued)
		}
		if l.Spend.IsNegative() || l.Profit.IsNegative() || l.Invested.IsNegative() || l.Recovered.IsNegative() {
			return fmt.Errorf("ledger %q: negative money counter (spend %v, profit %v, invested %v, recovered %v)",
				l.tenant, l.Spend, l.Profit, l.Invested, l.Recovered)
		}
		if l.Declined > l.Queries {
			return fmt.Errorf("ledger %q: %d declines exceed %d queries", l.tenant, l.Declined, l.Queries)
		}
		if e.cfg.Conservative && isAccount && l.credit.IsNegative() {
			return fmt.Errorf("ledger %q: conservative account went negative: %v", l.tenant, l.credit)
		}
		return nil
	}
	if e.pool != nil {
		if err := check(e.pool, true); err != nil {
			return err
		}
	}
	for _, l := range e.tenants {
		if err := check(l, e.pool == nil); err != nil {
			return err
		}
		if e.pool != nil {
			if l.credit != 0 || l.Invested != 0 || l.InvestCount != 0 || len(l.live) != 0 || l.RegretDropped != 0 {
				return fmt.Errorf("altruistic mirror %q carries account state (credit %v, invested %v, %d entries)",
					l.tenant, l.credit, l.Invested, len(l.live))
			}
		}
	}
	if e.pool != nil {
		for s, row := range e.market.rows {
			if row.owner != "" {
				return fmt.Errorf("altruistic provider recorded tenant %q as owner of %s", row.owner, e.reg.ID(structure.Slot(s)))
			}
		}
	}
	return nil
}
