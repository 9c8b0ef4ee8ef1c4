package economy

import (
	"repro/internal/money"
	"repro/internal/structure"
)

// Ledger is one tenant's account with the cloud: credit, spend, profit
// and regret attribution, plus the live per-structure regret rows that
// drive the Eq. 3 investment test when the provider is selfish.
//
// Under the altruistic provider there is one communal Ledger (the pool)
// holding the account and the live regret map — exactly the single-account
// economy of §IV — while per-tenant Ledgers act as mirrors: they attribute
// spend, profit and accrued regret to the tenant that generated them but
// carry no credit of their own. Under the selfish provider every tenant
// Ledger is a real account: it is seeded with the initial capital on first
// contact, its own regret alone triggers builds, and those builds are
// charged to (and amortized back into) it.
type Ledger struct {
	tenant string
	credit money.Amount

	// rows is the regret table (Eq. 1–2 accumulation, capped per
	// §IV-B), indexed by the structure's registry slot and grown on
	// demand; live lists the slots holding a row, in structure-ID order —
	// the order the Eq. 3 scan and snapshots walk. clock is the table's
	// logical LRU clock.
	reg   *structure.Registry
	rows  []regretRow
	live  []structure.Slot
	clock int64
	cap   int
	// peak is the largest regret among the live rows, floored at 0: add
	// raises it, dropping the row that holds it recomputes it. The Eq. 3
	// scan reads it to skip a table no row of which can cross the bar.
	peak money.Amount
	// effPeak bounds from above every live row's regret ÷ backoff^rung —
	// its regret measured against its own failure-raised bar (see
	// Market.effRegret). Economy.distribute raises it, every investment
	// walk recomputes it exactly over the rows it keeps, and a restore
	// sets it to +Inf. Failures and drops only lower a row's true value,
	// so the bound needs no upkeep there.
	effPeak float64

	// Totals is the account's lifetime attribution.
	Totals
}

// Totals is one account's lifetime attribution: traffic, payments,
// regret and investment. A Ledger keeps it, a LedgerState persists it
// and TenantStats reports it — one declaration for all three.
type Totals struct {
	// Traffic attribution.
	Queries       int64
	Declined      int64
	CacheAnswered int64
	// Spend is the total the account's users were charged; Profit the
	// cloud's margin on it.
	Spend  money.Amount
	Profit money.Amount
	// RegretAccrued is the cumulative (monotone) Eq. 1–2 regret
	// attributed to the account's queries, so per-tenant regret stays
	// reportable and mergeable after ledger rows are consumed by
	// investment or garbage collected. RegretDropped is the cumulative
	// regret discarded by ledger-cap evictions: the live map may forget
	// a structure, but the books never silently lose the regret it had
	// accrued (live + dropped <= accrued always).
	RegretAccrued money.Amount
	RegretDropped money.Amount
	// Invested is what the account paid for structure builds, Recovered
	// what amortization and maintenance paid back into it, InvestCount
	// the builds charged to it. All three stay zero on an altruistic
	// provider's tenant mirrors, whose account is the communal pool.
	Invested    money.Amount
	Recovered   money.Amount
	InvestCount int64
}

// regretRow is one regret-table row; live marks slots that hold one.
type regretRow struct {
	regret  money.Amount
	touched int64 // ledger logical clock for LRU GC
	live    bool

	// blockedPrice and blockedEpoch remember that the row crossed the
	// Eq. 3 bar but a conservative account could not cover its build
	// price: while the cache's epoch plus one still equals blockedEpoch
	// the price stands, so the investment scan re-tests affordability
	// with a compare instead of pricing the build again. Derived state:
	// dropped with the row, never persisted.
	blockedPrice money.Amount
	blockedEpoch int64
}

// newLedger opens a ledger with the given seed capital and regret cap,
// keyed by the slots of reg.
func newLedger(tenant string, seed money.Amount, cap int, reg *structure.Registry) *Ledger {
	return &Ledger{tenant: tenant, credit: seed, cap: cap, reg: reg}
}

// Tenant returns the ledger's tenant name ("" for the communal pool).
func (l *Ledger) Tenant() string { return l.tenant }

// Credit returns the account balance.
func (l *Ledger) Credit() money.Amount { return l.credit }

// regretOf returns the live regret accumulated against a structure.
func (l *Ledger) regretOf(id structure.ID) money.Amount {
	if s := l.reg.Lookup(id); int(s) < len(l.rows) {
		return l.rows[s].regret
	}
	return 0
}

// row returns the slot's row, growing the table to cover every slot the
// registry has assigned.
func (l *Ledger) row(s structure.Slot) *regretRow {
	if int(s) >= len(l.rows) {
		l.rows = structure.Grow(l.rows, l.reg)
	}
	return &l.rows[s]
}

// add accrues a regret share against a structure, touching its LRU slot.
// The share is applied before the cap is enforced, so a fresh entry
// competes with its real regret and timestamp: the old order (insert
// empty, gc, then fill) let a full ledger evict every newcomer at
// touched=0 — the map froze at its first cap entries and new structures
// could never accrue regret again.
func (l *Ledger) add(s structure.Slot, share money.Amount) {
	l.clock++
	row := l.row(s)
	fresh := !row.live
	if fresh {
		row.live = true
		l.live = l.reg.Insert(l.live, s)
	}
	row.regret = row.regret.Add(share)
	row.touched = l.clock
	l.peak = money.MaxAmount(l.peak, row.regret)
	l.RegretAccrued = l.RegretAccrued.Add(share)
	if fresh {
		l.gc()
	}
}

// drop removes a live row (consumed by investment, or garbage
// collected).
func (l *Ledger) drop(s structure.Slot) {
	top := l.rows[s].regret == l.peak
	l.rows[s] = regretRow{}
	l.live = l.reg.Remove(l.live, s)
	if top {
		l.repeak()
	}
}

// repeak recomputes peak from the live rows.
func (l *Ledger) repeak() {
	l.peak = 0
	for _, s := range l.live {
		l.peak = money.MaxAmount(l.peak, l.rows[s].regret)
	}
}

// gc enforces the cap on the regret table (§IV-B garbage collection). The
// victim is the entry with the least regret, oldest-touched among ties —
// plain LRU would let an adversary cold-cycle one-off structure IDs
// through the table and evict a victim structure's accumulating regret
// before it ever reached the Eq. 3 bar, defeating investment forever.
// Least-regret eviction makes that attack self-defeating (the spray's
// own near-zero entries are the victims) and whatever is evicted is
// accounted in regretDropped rather than silently discarded.
func (l *Ledger) gc() {
	if len(l.live) <= l.cap {
		return
	}
	victim := l.live[0]
	for _, s := range l.live[1:] {
		row, vr := &l.rows[s], &l.rows[victim]
		if row.regret < vr.regret || (row.regret == vr.regret && row.touched < vr.touched) {
			victim = s
		}
	}
	l.RegretDropped = l.RegretDropped.Add(l.rows[victim].regret)
	l.drop(victim)
}

// TenantStats is the reportable snapshot of one tenant's ledger.
type TenantStats struct {
	// Tenant is the tenant name ("" for untagged queries).
	Tenant string
	Totals
	// Credit is zero under the altruistic provider, whose account is
	// communal.
	Credit money.Amount
	// RegretLive is the sum of the live regret entries. It is zero under
	// the altruistic provider, whose live map is communal (so is
	// RegretDropped), and RegretLive + RegretDropped never exceeds the
	// account's share of RegretAccrued (the rest was consumed by
	// investment).
	RegretLive money.Amount
	// LedgerSize is the tenant's live regret-map size (zero under the
	// altruistic provider, whose live map is communal).
	LedgerSize int
}

// liveRegret sums the live regret entries.
func (l *Ledger) liveRegret() money.Amount {
	var total money.Amount
	for _, s := range l.live {
		total = total.Add(l.rows[s].regret)
	}
	return total
}

// stats snapshots the ledger.
func (l *Ledger) stats() TenantStats {
	return TenantStats{
		Tenant:     l.tenant,
		Totals:     l.Totals,
		Credit:     l.credit,
		RegretLive: l.liveRegret(),
		LedgerSize: len(l.live),
	}
}
