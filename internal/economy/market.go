package economy

import (
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/structure"
)

// Market is the shared structure pool: the one cache all tenants answer
// from, plus the mechanics every account uses against it — residency,
// build pricing and construction, maintenance-failure eviction, the
// investment backoff history, and the physical-usage accumulator the
// simulator prices builds with. The Market holds no money of its own;
// Ledgers pay into it and are recorded as the owners of what they
// financed, so amortization and maintenance recovery can flow back to
// whoever built each resident.
type Market struct {
	cfg Config
	reg *structure.Registry // the cache's slot table

	// rows is the per-structure bookkeeping, indexed by registry slot and
	// grown on demand.
	rows []marketRow

	// buildUsage accumulates the physical resource usage of investments
	// since the last drain.
	buildUsage cost.Usage

	failureCount int64

	// ladder backs bars and victims backs sweepFailures, both reused
	// across queries.
	ladder  investBars
	victims []victim
	// scale[k] is backoff^k, the factor k failures raise the Eq. 3 bar by.
	scale [maxBackoffSteps + 1]float64

	// sweepUntil is the earliest safeUntil among the residents the last
	// full failure sweep left standing, and sweepStamp the cache epoch
	// plus one that sweep saw (0 = sweep in full next time). Until the
	// clock passes sweepUntil, while the epoch stands and no resident has
	// had its first use, every resident is still known safe and a full
	// sweep would test none of them.
	sweepUntil time.Duration
	sweepStamp int64

	// events receives the invest and evict events the market originates
	// (installed via Economy.SetEvents).
	events func(obs.Event)
}

// marketRow is the market's bookkeeping for one structure slot.
type marketRow struct {
	// owned marks a structure some ledger financed; owner is that
	// ledger's tenant name ("" for the altruistic pool) and ownerLedger
	// the ledger itself once known — a restore knows only the name, and
	// the first reimbursement resolves it. Cleared on eviction: a rebuild
	// may be financed by someone else.
	owned       bool
	owner       string
	ownerLedger *Ledger

	// failCount records how many times the structure has failed, for
	// investment backoff. Survives eviction by design.
	failCount int

	// rentPerHour memoizes the structure's hourly rent in dollars (a
	// constant of its kind and size); rentKnown marks it computed.
	rentPerHour float64
	rentKnown   bool

	// safeUntil is the clock up to which safeEntry — the resident the
	// slot held when it was computed, never-used or used per safeIdle —
	// is known not to fail, so the failure sweep need not test it.
	safeEntry *cache.Entry
	safeIdle  bool
	safeUntil time.Duration
}

// safe reports whether the resident in the row's slot is already known
// not to fail at clock now — the failure sweep's per-resident fast path.
func (r *marketRow) safe(entry *cache.Entry, now time.Duration) bool {
	return r.safeEntry == entry && r.safeIdle == (entry.Uses == 0) && now <= r.safeUntil
}

// emit reports one event if a sink is installed, stamping the economy
// clock.
func (m *Market) emit(ev obs.Event) {
	if m.events == nil {
		return
	}
	ev.ClockSec = m.cfg.Cache.Clock().Seconds()
	m.events(ev)
}

// newMarket wires the shared pool.
func newMarket(cfg Config) *Market {
	return &Market{cfg: cfg, reg: cfg.Cache.Registry(), scale: backoffScale(cfg.InvestBackoff)}
}

// backoffScale returns backoff^k for every rung k, by repeated
// multiplication; all ones when backoff is off (<= 1).
func backoffScale(backoff float64) (scale [maxBackoffSteps + 1]float64) {
	scale[0] = 1
	for k := 1; k < len(scale); k++ {
		scale[k] = scale[k-1]
		if backoff > 1 {
			scale[k] *= backoff
		}
	}
	return scale
}

// row returns the slot's bookkeeping row, growing the table to cover
// every slot the registry has assigned.
func (m *Market) row(s structure.Slot) *marketRow {
	if int(s) >= len(m.rows) {
		m.rows = structure.Grow(m.rows, m.reg)
	}
	return &m.rows[s]
}

// Cache exposes the shared residency state.
func (m *Market) Cache() *cache.Cache { return m.cfg.Cache }

// Owner returns the tenant that financed a resident structure ("" for
// the communal pool or unknown structures).
func (m *Market) Owner(id structure.ID) string {
	if s := m.reg.Lookup(id); int(s) < len(m.rows) {
		return m.rows[s].owner
	}
	return ""
}

// drainBuildUsage returns the physical usage of all investments since the
// previous drain and resets the accumulator.
func (m *Market) drainBuildUsage() cost.Usage {
	u := m.buildUsage
	m.buildUsage = cost.Usage{}
	return u
}

// maxBackoffSteps caps the failure history the investment bar compounds
// over.
const maxBackoffSteps = 30

// investBars is the Eq. 3 bar per failure count for one investment scan:
// bars.at(k) is the threshold raised by k prior failures. The ladder is
// the same MulFloat chain the bar has always been — threshold, then one
// multiplication per failure, rounding at every step — computed once per
// scan and extended only as far as the scan needs it.
type investBars struct {
	backoff float64
	n       int
	bar     [maxBackoffSteps + 1]money.Amount
}

// bars restarts the market's ladder at an account's base threshold.
func (m *Market) bars(threshold money.Amount) *investBars {
	m.ladder.backoff = m.cfg.InvestBackoff
	m.ladder.n = 1
	m.ladder.bar[0] = threshold
	return &m.ladder
}

// rung clamps a failure count to the ladder: no backoff configured means
// one bar for everybody.
func (b *investBars) rung(failures int) int {
	if !(b.backoff > 1) || failures <= 0 {
		return 0
	}
	return min(failures, maxBackoffSteps)
}

// at returns the bar after `failures` prior failures: the threshold
// raised exponentially, damping build-evict-rebuild cycles.
func (b *investBars) at(failures int) money.Amount {
	k := b.rung(failures)
	for b.n <= k {
		b.climb()
	}
	return b.bar[k]
}

// climb computes the next rung of the ladder.
func (b *investBars) climb() {
	b.bar[b.n] = b.bar[b.n-1].MulFloat(b.backoff)
	b.n++
}

// crossed reports whether regret meets Eq. 3 — round(regret/bar) >= 1,
// i.e. 2·regret >= bar — against the bar after `failures` prior failures.
// Each rung is at least the one below it (a positive amount times a
// factor above one never rounds down past itself), so a regret below any
// rung up to its own is below its own: the ladder is climbed only until a
// rung dismisses the row, which takes as many multiplications as the
// regret is doublings above the threshold, not as the row has failures.
func (b *investBars) crossed(regret money.Amount, failures int) bool {
	k := b.rung(failures)
	for b.n <= k {
		if regret < halfUp(b.bar[b.n-1]) {
			return false
		}
		b.climb()
	}
	return regret >= halfUp(b.bar[k])
}

// halfUp returns ⌈t/2⌉ for a positive bar t: the least regret r with
// 2·r >= t, so `r < halfUp(t)` is Eq. 3's `2·r < t` without an overflow-
// checked doubling per row.
func halfUp(t money.Amount) money.Amount { return t/2 + t%2 }

// The effective-regret gate. Let T be an account's base bar a·CR and b
// the backoff. Each rung of the ladder is round(rung below × b), and
// MulFloat rounds twice in float64 (the conversion and the product, each
// within a factor 1 ± 2⁻⁵³) before rounding to the micro-dollar (within
// ½). Unrolled over k rungs the factors compound to at least 1 − 2k·2⁻⁵³
// and the ½s, each scaled by fewer than k factors of b, to at most
// k/2·b^k, so until a rung saturates at money.Max
//
//	rung k ≥ b^k·(T − k/2)·(1 − 2k·2⁻⁵³),
//
// and every rung above a saturated one is money.Max. A row with k
// failures crosses Eq. 3 when 2·regret ≥ rung k, so with k ≤ 30 it cannot
// cross when both
//
//	2·regret/b^k < T·(1 − 10⁻¹²) − 32   and   2·regret < money.Max·(1 − 10⁻¹²)
//
// hold: the first keeps it under an unsaturated rung (k/2 ≤ 15, and the
// 10⁻¹² dwarfs the 60·2⁻⁵³ above and the float error of evaluating either
// side), the second under a saturated one. effRegret is regret/b^k, and a
// Ledger's effPeak bounds it over the live rows.
const gateSlack = 1 - 1e-12

// rawGate is the second condition's bound on 2·regret.
const rawGate = float64(money.Max) * gateSlack

// effGate is the first condition's bound on 2·effRegret for base bar t.
func effGate(t money.Amount) float64 { return float64(t)*gateSlack - 32 }

// effRegret returns regret measured against the bar `failures` prior
// failures raise: regret ÷ backoff^rung.
func (m *Market) effRegret(regret money.Amount, failures int) float64 {
	return float64(regret) / m.scale[min(failures, maxBackoffSteps)]
}

// failures returns the slot's failure count.
func (m *Market) failures(s structure.Slot) int {
	if int(s) < len(m.rows) {
		return m.rows[s].failCount
	}
	return 0
}

// buildStructure starts construction of st (and, for indexes, of its
// missing columns first, per Eq. 14), charging the payer ledger. It
// reports whether the investment was made; a conservative provider skips
// builds the payer's account cannot cover, and then — only then — short
// is the price the account fell short of, which stands until the cache's
// epoch moves.
func (m *Market) buildStructure(st *structure.Structure, payer *Ledger) (built bool, short money.Amount) {
	ca := m.cfg.Cache
	price, out, err := m.cfg.Optimizer.BuildPrice(st, ca)
	if err != nil {
		return false, 0
	}
	if m.cfg.Conservative && payer.credit < price {
		return false, price
	}

	now := ca.Clock()
	readyAt := now + out.Time
	if st.Kind == structure.KindIndex {
		// Build missing columns first; the index build waits for them.
		var colsReady = now
		for _, ref := range st.Index.Refs() {
			colSt, err := m.reg.Column(m.cfg.Model.Catalog(), ref)
			if err != nil {
				return false, 0
			}
			if ca.At(colSt.Slot) != nil || ca.BuildingAt(colSt.Slot) {
				continue
			}
			colPrice, colOut, err := m.cfg.Optimizer.BuildPrice(colSt, ca)
			if err != nil {
				return false, 0
			}
			if err := ca.StartBuild(colSt, now+colOut.Time, colPrice); err != nil {
				return false, 0
			}
			payer.credit = payer.credit.Sub(colPrice)
			payer.Invested = payer.Invested.Add(colPrice)
			m.started(colSt.Slot, payer)
			m.buildUsage.Add(colOut.Usage)
			m.emit(obs.Event{
				Type:      obs.EventInvest,
				Tenant:    payer.tenant,
				Structure: string(colSt.ID),
				Amount:    colPrice,
				Reason:    "prerequisite column for an index build",
			})
			if now+colOut.Time > colsReady {
				colsReady = now + colOut.Time
			}
		}
		// The composite BuildPrice included the missing columns, but
		// those were just charged individually; re-price the sort-only
		// component by pretending all columns are cached.
		sortOnly, sortOut, err := m.indexSortOnly(st)
		if err != nil {
			return false, 0
		}
		price, out = sortOnly, sortOut
		readyAt = colsReady + out.Time
	}

	if err := ca.StartBuild(st, readyAt, price); err != nil {
		return false, 0
	}
	payer.credit = payer.credit.Sub(price)
	payer.Invested = payer.Invested.Add(price)
	payer.InvestCount++
	m.started(m.reg.Find(st), payer)
	m.buildUsage.Add(out.Usage)
	m.emit(obs.Event{
		Type:      obs.EventInvest,
		Tenant:    payer.tenant,
		Structure: string(st.ID),
		Amount:    price,
		Reason:    "accumulated regret crossed the Eq. 3 investment bar",
	})
	return true, 0
}

// started records the ledger that just financed a build as its owner.
func (m *Market) started(s structure.Slot, payer *Ledger) {
	row := m.row(s)
	row.owned, row.owner, row.ownerLedger = true, payer.tenant, payer
}

// indexSortOnly prices just the in-cache sort of an index build.
func (m *Market) indexSortOnly(st *structure.Structure) (money.Amount, cost.Outcome, error) {
	out, err := m.cfg.Model.BuildIndex(st.Index, func(catalog.ColumnRef) bool { return true })
	if err != nil {
		return 0, cost.Outcome{}, err
	}
	return cost.Price(m.cfg.Model.Schedule(), out.Usage), out, nil
}

// resolveStructure returns the Structure behind a ledger slot. Rows
// accrued from plans already carry one; a row restored by name is parsed
// against the catalog once and registered, so a candidate that sits above
// the investment bar but cannot build (conservative provider, low credit)
// does not re-parse its ID on every query.
func (m *Market) resolveStructure(s structure.Slot) (*structure.Structure, error) {
	if st := m.reg.Structure(s); st != nil {
		return st, nil
	}
	st, err := ResolveID(m.cfg.Model.Catalog(), m.reg.ID(s))
	if err != nil {
		return nil, err
	}
	return m.reg.Register(st), nil
}

// maintDueOf returns the maintenance arrears a resident entry has accrued
// at the current cache clock — the same quantity the optimizer priced into
// the plan's MaintPrice.
func (m *Market) maintDueOf(entry *cache.Entry) money.Amount {
	return m.dueAt(entry, m.cfg.Cache.Clock())
}

// dueAt returns the arrears the entry will have accrued by clock t if
// nobody pays in between.
func (m *Market) dueAt(entry *cache.Entry, t time.Duration) money.Amount {
	return cache.MaintDue(entry, func(en *cache.Entry) money.Amount {
		return m.rent(en.S, t-en.MaintPaidUntil)
	})
}

// sweepFailures evicts structures whose maintenance rent no longer pays
// (footnote 3 "structure failure"). Two rules apply:
//
//   - Never-used structures fail when their accrued arrears exceed
//     MaintFailureFactor × build price: the investment clearly missed.
//   - Used structures fail when their rent *rate* exceeds
//     MaintFailureFactor × their lifetime value rate
//     (EarnedValue / time since build): at long inter-query intervals the
//     rent a structure accrues outweighs the value it produces, and a
//     rational provider evicts to save disk money (§VII-B, the 10 s and
//     60 s regimes). Rates — not single gaps — are compared so a busy
//     structure survives an occasional long idle stretch.
//
// NeverUsedFloor and the one-hour grace window give fresh builds time to
// see their first use (partial structure sets are unusable until
// complete).
//
// The sweep walks the residents in structure-ID order, so victims fall in
// the order they are reported. Pricing arrears is the expensive part of
// the test, so it comes last: a used structure is priced only once its
// rates already condemn it, and a never-used one only when the clock has
// passed the point up to which it is known to sit below its floor.
//
// The walk itself is skipped while the last one's verdicts all stand: a
// resident's "safe until T" holds as long as it is the same entry (the
// cache epoch has not moved) in the same use state (no first use since —
// settle reports those through firstUse), so before the earliest such T
// a walk would skip every resident and condemn nothing.
func (m *Market) sweepFailures() []structure.ID {
	if m.cfg.MaintFailureFactor <= 0 {
		return nil
	}
	ca := m.cfg.Cache
	now := ca.Clock()
	if m.sweepStamp == ca.Epoch()+1 && now <= m.sweepUntil {
		return nil
	}
	victims := m.victims[:0]
	until := time.Duration(math.MaxInt64)
	for _, s := range ca.Live() {
		entry := ca.At(s)
		row := m.row(s)
		if !row.safe(entry, now) {
			if due, reason := m.failing(entry, now); reason != "" {
				victims = append(victims, victim{entry: entry, due: due, reason: reason})
				continue
			}
		}
		until = min(until, row.safeUntil)
	}
	m.victims = victims
	var ids []structure.ID
	if len(victims) > 0 {
		ids = make([]structure.ID, 0, len(victims))
	}
	for i, v := range victims {
		s := v.entry.S.Slot
		row := m.row(s)
		m.emit(obs.Event{
			Type:      obs.EventEvict,
			Tenant:    row.owner,
			Structure: string(v.entry.S.ID),
			Amount:    v.due,
			Reason:    v.reason,
		})
		ca.EvictAt(s)
		row.owned, row.owner, row.ownerLedger = false, "", nil
		row.failCount++
		m.failureCount++
		ids = append(ids, v.entry.S.ID)
		victims[i] = victim{}
	}
	// Evicting the victims moved the epoch but left every survivor's
	// verdict as it was.
	m.sweepUntil, m.sweepStamp = until, ca.Epoch()+1
	return ids
}

// firstUse records that a resident is about to see its first use, which
// moves it from the never-used failure rule to the used one: the next
// sweep walks in full.
func (m *Market) firstUse() { m.sweepStamp = 0 }

// victim is one structure the failure sweep condemned.
type victim struct {
	entry  *cache.Entry
	due    money.Amount
	reason string
}

// failing applies the two failure rules to one resident at clock now,
// returning its arrears and the reason when it must go ("" otherwise).
//
// Both rules only ever turn true as the clock advances with the entry
// left alone (arrears and idle windows grow, the value rate decays), and
// a use only pushes them further from true (it settles the arrears and
// adds earned value). So a verdict of "not before clock T" stands until
// T: each miss looks ahead — doubling the entry's idle or measured window,
// or bisecting back towards now when the doubled window would fail — and
// the sweep skips the entry until the clock gets there. A condemning
// verdict remembers nothing, so asking again gives the same answer.
func (m *Market) failing(entry *cache.Entry, now time.Duration) (money.Amount, string) {
	st := entry.S
	row := m.row(st.Slot)
	idle := entry.Uses == 0
	if row.safe(entry, now) {
		return 0, ""
	}
	row.safeEntry, row.safeIdle, row.safeUntil = entry, idle, now
	if idle {
		limit := money.MaxAmount(m.cfg.NeverUsedFloor, entry.BuildPrice.MulFloat(m.cfg.MaintFailureFactor))
		if due := m.dueAt(entry, now); due > limit {
			row.safeEntry = nil
			return due, "never used: arrears exceeded the build price factor"
		}
		ahead := now + max(now-entry.MaintPaidUntil, time.Minute)
		if m.dueAt(entry, ahead) <= limit {
			row.safeUntil = ahead
		} else {
			row.safeUntil = lastSafe(now, ahead, func(t time.Duration) bool { return m.dueAt(entry, t) <= limit })
		}
		return 0, ""
	}
	// Grace window: rates need at least an hour of post-first-use
	// history to mean anything.
	window := now - entry.FirstUsed
	if window < time.Hour {
		row.safeUntil = entry.FirstUsed + time.Hour - 1
		return 0, ""
	}
	if !row.rentKnown {
		row.rentPerHour, row.rentKnown = m.rent(st, time.Hour).Dollars(), true
	}
	outweighed := func(window time.Duration) bool {
		valuePerHour := entry.EarnedValue.Dollars() / window.Hours()
		return row.rentPerHour > m.cfg.MaintFailureFactor*valuePerHour
	}
	if !outweighed(window) {
		if !outweighed(2 * window) {
			row.safeUntil = now + window
		} else {
			row.safeUntil = entry.FirstUsed + lastSafe(window, 2*window, func(w time.Duration) bool { return !outweighed(w) })
		}
		return 0, ""
	}
	row.safeEntry = nil
	return m.dueAt(entry, now), "rent rate outweighed lifetime value rate"
}

// lastSafe narrows the lookahead of a rule that holds at safe, fails at
// fails, and once failing stays failing as the clock (or window) grows:
// a few bisection steps find a point in between where it still holds, so
// a resident whose failure is near but not yet due is not retested on
// every query until it is.
func lastSafe(safe, fails time.Duration, holds func(time.Duration) bool) time.Duration {
	for range 6 {
		mid := safe + (fails-safe)/2
		if mid == safe {
			break
		}
		if holds(mid) {
			safe = mid
		} else {
			fails = mid
		}
	}
	return safe
}

// rent prices holding a structure for duration d.
func (m *Market) rent(st *structure.Structure, d time.Duration) money.Amount {
	return m.cfg.Model.MaintCost(st.Kind == structure.KindCPUNode, st.Bytes, d)
}
