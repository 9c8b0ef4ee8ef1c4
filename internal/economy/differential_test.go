package economy

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/money"
	"repro/internal/optimizer"
	"repro/internal/structure"
	"repro/internal/workload"
)

// refLedger is the plain map-keyed regret ledger the slot-indexed one
// replaced, kept as the reference model: rows live in a map by structure
// ID, the cap victim is found by scanning the map, and ordered output
// comes from sorting the keys.
type refLedger struct {
	entries map[structure.ID]*refRow
	clock   int64
	cap     int

	regretAccrued money.Amount
	regretDropped money.Amount
}

type refRow struct {
	regret  money.Amount
	touched int64
}

// add returns the ID the cap evicted, if any.
func (l *refLedger) add(id structure.ID, share money.Amount) (victim structure.ID) {
	l.clock++
	row, ok := l.entries[id]
	if !ok {
		row = &refRow{}
		l.entries[id] = row
	}
	row.regret = row.regret.Add(share)
	row.touched = l.clock
	l.regretAccrued = l.regretAccrued.Add(share)
	if ok || len(l.entries) <= l.cap {
		return ""
	}
	// Least regret, oldest touched among ties (touched stamps are unique,
	// so map order cannot matter).
	var vr *refRow
	for id, row := range l.entries {
		if vr == nil || row.regret < vr.regret || (row.regret == vr.regret && row.touched < vr.touched) {
			victim, vr = id, row
		}
	}
	l.regretDropped = l.regretDropped.Add(vr.regret)
	delete(l.entries, victim)
	return victim
}

func (l *refLedger) state() []RegretEntryState {
	var out []RegretEntryState
	for id, row := range l.entries {
		out = append(out, RegretEntryState{ID: id, Regret: row.regret, Touched: row.touched})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// liveIDs lists the slot-indexed ledger's rows by name, in its own
// iteration order.
func liveIDs(l *Ledger) []structure.ID {
	out := make([]structure.ID, 0, len(l.live))
	for _, s := range l.live {
		out = append(out, l.reg.ID(s))
	}
	return out
}

// TestLedgerMatchesMapModel drives the slot-indexed regret ledger and the
// map model through the same seeded sequences: regret accrual over an ID
// space several times the cap (so least-regret-then-oldest eviction and
// its regretDropped accounting run constantly), IDs first seen mid-run
// (lazily interned, landing anywhere in ID order), rows consumed the way
// an investment consumes them, and a snapshot/restore into a fresh
// registry — different slot numbers, same books — mid-sequence. After
// every op the rows, their ID-ordered iteration, the victims and the
// conservation counters must be identical.
func TestLedgerMatchesMapModel(t *testing.T) {
	const capN = 16
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := structure.NewRegistry()
		l := newLedger("t", 0, capN, reg)
		ref := &refLedger{entries: map[structure.ID]*refRow{}, cap: capN}
		// Names drawn so that late first-sights sort between early ones.
		name := func() structure.ID {
			switch rng.Intn(3) {
			case 0:
				return structure.ID(fmt.Sprintf("col:t.c%02d", rng.Intn(30)))
			case 1:
				return structure.ID(fmt.Sprintf("idx_t(c%02d)", rng.Intn(20)))
			}
			return structure.ID(fmt.Sprintf("cpu:%d", 2+rng.Intn(12)))
		}
		check := func(op string) {
			t.Helper()
			got := snapshotLedger(l)
			if want := ref.state(); !reflect.DeepEqual(got.Entries, want) {
				t.Fatalf("seed %d after %s: rows\ngot  %v\nwant %v", seed, op, got.Entries, want)
			}
			if got.Clock != ref.clock || got.RegretAccrued != ref.regretAccrued || got.RegretDropped != ref.regretDropped {
				t.Fatalf("seed %d after %s: clock %d accrued %v dropped %v, want %d %v %v", seed, op,
					got.Clock, got.RegretAccrued, got.RegretDropped, ref.clock, ref.regretAccrued, ref.regretDropped)
			}
			ids := liveIDs(l)
			if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
				t.Fatalf("seed %d after %s: live rows not in ID order: %v", seed, op, ids)
			}
			if live := l.liveRegret(); live.Add(l.RegretDropped) > l.RegretAccrued {
				t.Fatalf("seed %d after %s: live %v + dropped %v exceeds accrued %v", seed, op, live, l.RegretDropped, l.RegretAccrued)
			}
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 16:
				id := name()
				share := money.Amount(rng.Intn(50))
				if rng.Intn(4) == 0 {
					share = money.Amount(1000 + rng.Intn(5000))
				}
				candidates := append(liveIDs(l), id)
				l.add(reg.Intern(id), share)
				wantVictim := ref.add(id, share)
				// The slot ledger's victim is whichever candidate is no
				// longer live (possibly the newcomer itself).
				var gotVictim structure.ID
				for _, c := range candidates {
					if !l.rows[reg.Lookup(c)].live {
						gotVictim = c
					}
				}
				if gotVictim != wantVictim {
					t.Fatalf("seed %d step %d: add(%s, %v) evicted %q, model evicted %q", seed, step, id, share, gotVictim, wantVictim)
				}
				check(fmt.Sprintf("add(%s, %v)", id, share))
			case op < 18:
				// An investment consumes a live row.
				if len(l.live) == 0 {
					continue
				}
				s := l.live[rng.Intn(len(l.live))]
				l.drop(s)
				delete(ref.entries, reg.ID(s))
				check("drop " + string(reg.ID(s)))
			case op == 18:
				id := name()
				var want money.Amount
				if r := ref.entries[id]; r != nil {
					want = r.regret
				}
				if got := l.regretOf(id); got != want {
					t.Fatalf("seed %d step %d: regretOf(%s) = %v, want %v", seed, step, id, got, want)
				}
			default:
				// Restart: restore into a fresh registry, which meets the
				// IDs in snapshot (ID) order.
				reg = structure.NewRegistry()
				var err error
				if l, err = restoreLedger(snapshotLedger(l), capN, reg); err != nil {
					t.Fatal(err)
				}
				check("restore")
			}
		}
	}
}

// refFailing is the failure rule as the sweep applied it before it learned
// to look ahead: arrears priced for every resident on every query, no
// memory between queries.
func refFailing(m *Market, entry *cache.Entry, now time.Duration) (money.Amount, bool) {
	due := m.dueAt(entry, now)
	if entry.Uses == 0 {
		return due, due > m.cfg.NeverUsedFloor && due > entry.BuildPrice.MulFloat(m.cfg.MaintFailureFactor)
	}
	window := now - entry.FirstUsed
	if window < time.Hour {
		return due, false
	}
	rentPerHour := m.rent(entry.S, time.Hour).Dollars()
	valuePerHour := entry.EarnedValue.Dollars() / window.Hours()
	return due, rentPerHour > m.cfg.MaintFailureFactor*valuePerHour
}

// TestFailureSweepLookaheadMatchesRule pins the sweep's "not before clock
// T" memory to the memoryless rule: over rent-hostile streams whose gaps
// swing between seconds and hours (so structures are built, used, left to
// rot and rebuilt), every resident's verdict — before the query's sweep
// and again after its settlement moved the books — must be the verdict
// the rule reaches from scratch, arrears included when it condemns.
func TestFailureSweepLookaheadMatchesRule(t *testing.T) {
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			econ, opt, ca, tpls := testEconomy(t, provider, func(cfg *Config) {
				cfg.RegretFraction = 0.0001
				cfg.NeverUsedFloor = money.FromDollars(0.05)
				cfg.MaintFailureFactor = 0.2
			})
			m := econ.market
			rng := rand.New(rand.NewSource(11))
			verdicts, condemned := 0, map[string]int{}
			compare := func(when string, i int) {
				t.Helper()
				now := ca.Clock()
				ca.ForEach(func(entry *cache.Entry) {
					wantDue, want := refFailing(m, entry, now)
					due, reason := m.failing(entry, now)
					verdicts++
					if (reason != "") != want || (want && due != wantDue) {
						t.Fatalf("query %d %s, %s (uses %d): sweep says (%v, %q), rule says (%v, %v)",
							i, when, entry.S.ID, entry.Uses, due, reason, wantDue, want)
					}
					if want {
						condemned[reason]++
					}
				})
			}
			for i := 0; i < 6000; i++ {
				gap := time.Duration(1+rng.Intn(60)) * time.Second
				switch rng.Intn(50) {
				case 0:
					gap = time.Duration(1+rng.Intn(6)) * time.Hour
				case 1, 2:
					gap = time.Duration(5+rng.Intn(55)) * time.Minute
				}
				// Bursts on one template, so some structures go cold while
				// others stay busy.
				tpl := tpls[(i/200+rng.Intn(2))%len(tpls)]
				q := &workload.Query{
					ID:          int64(i + 1),
					Tenant:      fmt.Sprintf("t%d", rng.Intn(3)),
					Template:    tpl,
					Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
					Arrival:     ca.Clock() + gap,
					Budget:      budget.NewStep(money.FromDollars(0.05), time.Hour),
				}
				ca.Advance(q.Arrival)
				ca.CompleteDue()
				compare("before the sweep", i)
				plans, err := opt.Enumerate(q, ca)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := econ.HandleQuery(q, plans); err != nil {
					t.Fatal(err)
				}
				compare("after settlement", i)
			}
			if len(condemned) < 2 {
				t.Errorf("stream exercised failure reasons %v over %d verdicts; want both rules to fire", condemned, verdicts)
			}
		})
	}
}

// TestInvestBlockedMemoMatchesPlainLoop pins the investment scan's
// blocked-row memo to the plain loop that prices every crossed row on
// every query. Two economies run the same stream in lockstep, poor enough
// that rows cross Eq. 3 long before the account can pay for them; one has
// its memo wiped before every query. Decisions and books must stay equal
// while rows sit blocked, when credit rises past a remembered price, when
// the cache's epoch moves under a memo, and across a snapshot/restore of
// the memoizing side (which carries no memo over).
func TestInvestBlockedMemoMatchesPlainLoop(t *testing.T) {
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			type rig struct {
				econ *Economy
				opt  *optimizer.Optimizer
				ca   *cache.Cache
			}
			var tpls []*workload.Template
			mk := func() rig {
				econ, opt, ca, ts := testEconomy(t, provider, func(cfg *Config) {
					cfg.InitialCredit = money.FromDollars(0.05)
					cfg.RegretFraction = 0.001
				})
				tpls = ts
				return rig{econ, opt, ca}
			}
			ledgers := func(e *Economy) []*Ledger {
				var out []*Ledger
				if e.pool != nil {
					out = append(out, e.pool)
				}
				for _, l := range e.tenants {
					out = append(out, l)
				}
				return out
			}
			memo, plain := mk(), mk()
			rng := rand.New(rand.NewSource(23))
			var held, paidOff, outdated, builds int
			for i := 0; i < 8000; i++ {
				tpl := tpls[rng.Intn(len(tpls))]
				q := workload.Query{
					ID:          int64(i + 1),
					Tenant:      fmt.Sprintf("t%d", rng.Intn(2)),
					Template:    tpl,
					Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
					Arrival:     memo.ca.Clock() + time.Duration(1+rng.Intn(20))*time.Second,
					Budget:      budget.NewStep(money.FromDollars(0.003), time.Hour),
				}
				if i == 4000 {
					// Restart the memoizing side from its own snapshot.
					fresh := mk()
					resolve := func(id structure.ID) (*structure.Structure, error) {
						return ResolveID(memo.econ.cfg.Model.Catalog(), id)
					}
					if err := fresh.ca.Restore(memo.ca.Snapshot(), resolve); err != nil {
						t.Fatal(err)
					}
					if err := fresh.econ.Restore(memo.econ.Snapshot()); err != nil {
						t.Fatal(err)
					}
					memo = fresh
				}
				var decided [2]Decision
				heldIDs := map[structure.ID]bool{} // blocked on the memoizing side as the query arrives
				for side, r := range []rig{memo, plain} {
					r.ca.Advance(q.Arrival)
					r.ca.CompleteDue()
					for _, l := range ledgers(r.econ) {
						for _, s := range l.live {
							row := &l.rows[s]
							switch {
							case side == 1:
								row.blockedPrice, row.blockedEpoch = 0, 0
							case row.blockedEpoch == 0:
							case row.blockedEpoch != r.ca.Epoch()+1:
								outdated++
							default:
								held++
								heldIDs[l.reg.ID(s)] = true
							}
						}
					}
					qq := q
					plans, err := r.opt.Enumerate(&qq, r.ca)
					if err != nil {
						t.Fatal(err)
					}
					d, err := r.econ.HandleQuery(&qq, plans)
					if err != nil {
						t.Fatal(err)
					}
					if d.Chosen != nil {
						chosen := *d.Chosen // pooled: compare by value, not by address
						chosen.Query, chosen.Structures, chosen.Missing = nil, nil, nil
						d.Chosen = &chosen
					}
					decided[side] = d
				}
				builds += len(decided[0].Investments)
				if d := decided[0]; len(d.Failures) == 0 && len(d.Investments) > 0 && heldIDs[d.Investments[0]] {
					paidOff++ // the query's profit lifted the account past a remembered price
				}
				if !reflect.DeepEqual(decided[0], decided[1]) {
					t.Fatalf("query %d: with the memo %+v, plain loop %+v", i, decided[0], decided[1])
				}
				if i%250 == 0 || i == 7999 {
					if !reflect.DeepEqual(memo.econ.Snapshot(), plain.econ.Snapshot()) {
						t.Fatalf("query %d: books diverged:\n%+v\nvs\n%+v", i, memo.econ.Snapshot(), plain.econ.Snapshot())
					}
					if !reflect.DeepEqual(memo.ca.Snapshot(), plain.ca.Snapshot()) {
						t.Fatalf("query %d: caches diverged", i)
					}
				}
			}
			if held < 100 || paidOff == 0 || outdated == 0 || builds < 10 {
				t.Errorf("stream too tame: memo held %d row-queries, %d paid off, %d outlived their epoch, %d builds",
					held, paidOff, outdated, builds)
			}
		})
	}
}

// TestInvestBarsCrossedMatchesLadder pins the early-stopping climb to the
// full ladder: whatever order rows arrive in, crossed says what comparing
// against the row's own rung — every rung below it computed — says, which
// is the doubled-regret test of Eq. 3's round().
func TestInvestBarsCrossedMatchesLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, backoff := range []float64{0, 1, 1.0000001, 1.5, 2, 7.3} {
		for scan := 0; scan < 400; scan++ {
			threshold := money.Amount(1 + rng.Int63n(1<<uint(1+rng.Intn(50))))
			lazy := (&Market{cfg: Config{InvestBackoff: backoff}}).bars(threshold)
			full := (&Market{cfg: Config{InvestBackoff: backoff}}).bars(threshold)
			for row := 0; row < 40; row++ {
				failures := rng.Intn(maxBackoffSteps + 5)
				regret := money.Amount(rng.Int63n(1 << uint(1+rng.Intn(62))))
				bar := full.at(failures)
				want := regret.MulInt(2) >= bar
				if got := lazy.crossed(regret, failures); got != want {
					t.Fatalf("backoff %g, threshold %d: crossed(%d, %d failures) = %v, bar %d says %v",
						backoff, threshold, regret, failures, got, bar, want)
				}
			}
		}
	}
}

// lockstep runs the same query stream through two economies built by mk:
// before every query, prep readies each side (side 0 runs the fast path
// under test, side 1 the path it replaced), and the decisions must be
// equal query by query, the books and the caches every 250 queries. At
// query restoreAt, side 0 restarts from its own snapshot. next draws the
// i-th query's template, tenant and gap.
func lockstep(t *testing.T, n, restoreAt int, mk func() (*Economy, *optimizer.Optimizer, *cache.Cache),
	next func(i int) (*workload.Template, string, time.Duration, *rand.Rand),
	prep func(side int, e *Economy), check func(i int, e *Economy)) {
	t.Helper()
	type rig struct {
		econ *Economy
		opt  *optimizer.Optimizer
		ca   *cache.Cache
	}
	newRig := func() rig {
		e, o, c := mk()
		return rig{e, o, c}
	}
	fast, plain := newRig(), newRig()
	for i := 0; i < n; i++ {
		tpl, tenant, gap, rng := next(i)
		q := workload.Query{
			ID:          int64(i + 1),
			Tenant:      tenant,
			Template:    tpl,
			Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
			Arrival:     fast.ca.Clock() + gap,
			Budget:      budget.NewStep(money.FromDollars(0.004+0.05*rng.Float64()), time.Hour),
		}
		if i == restoreAt {
			fresh := newRig()
			resolve := func(id structure.ID) (*structure.Structure, error) {
				return ResolveID(fast.econ.cfg.Model.Catalog(), id)
			}
			if err := fresh.ca.Restore(fast.ca.Snapshot(), resolve); err != nil {
				t.Fatal(err)
			}
			if err := fresh.econ.Restore(fast.econ.Snapshot()); err != nil {
				t.Fatal(err)
			}
			fast = fresh
		}
		var decided [2]Decision
		for side, r := range []rig{fast, plain} {
			r.ca.Advance(q.Arrival)
			r.ca.CompleteDue()
			prep(side, r.econ)
			qq := q
			plans, err := r.opt.Enumerate(&qq, r.ca)
			if err != nil {
				t.Fatal(err)
			}
			d, err := r.econ.HandleQuery(&qq, plans)
			if err != nil {
				t.Fatal(err)
			}
			if d.Chosen != nil {
				chosen := *d.Chosen // pooled: compare by value, not by address
				chosen.Query, chosen.Structures, chosen.Missing = nil, nil, nil
				d.Chosen = &chosen
			}
			decided[side] = d
		}
		check(i, fast.econ)
		if !reflect.DeepEqual(decided[0], decided[1]) {
			t.Fatalf("query %d: fast path %+v, replaced path %+v", i, decided[0], decided[1])
		}
		if i%250 == 0 || i == n-1 {
			if !reflect.DeepEqual(fast.econ.Snapshot(), plain.econ.Snapshot()) {
				t.Fatalf("query %d: books diverged:\n%+v\nvs\n%+v", i, fast.econ.Snapshot(), plain.econ.Snapshot())
			}
			if !reflect.DeepEqual(fast.ca.Snapshot(), plain.ca.Snapshot()) {
				t.Fatalf("query %d: caches diverged", i)
			}
		}
	}
}

// ledgersOf lists an economy's regret ledgers: the pool, then the
// tenants.
func ledgersOf(e *Economy) []*Ledger {
	var out []*Ledger
	if e.pool != nil {
		out = append(out, e.pool)
	}
	for _, l := range e.tenants {
		out = append(out, l)
	}
	return out
}

// TestFailureSweepDeadlineMatchesFullWalk pins the sweep's deadline —
// skip the walk while every resident's last verdict stands — to the full
// walk on every query. Over rent-hostile streams whose gaps swing between
// seconds and hours, two economies run in lockstep, one with its deadline
// wiped before every query; decisions, books and caches must stay equal
// through first uses, build completions and evictions between queries,
// and across a restore of the deadline side. Whenever the deadline skips
// a walk, no resident may be failing by the memoryless rule.
func TestFailureSweepDeadlineMatchesFullWalk(t *testing.T) {
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			var tpls []*workload.Template
			mk := func() (*Economy, *optimizer.Optimizer, *cache.Cache) {
				econ, opt, ca, ts := testEconomy(t, provider, func(cfg *Config) {
					cfg.RegretFraction = 0.0001
					cfg.NeverUsedFloor = money.FromDollars(0.05)
					cfg.MaintFailureFactor = 0.2
				})
				tpls = ts
				return econ, opt, ca
			}
			rng := rand.New(rand.NewSource(31))
			next := func(i int) (*workload.Template, string, time.Duration, *rand.Rand) {
				gap := time.Duration(1+rng.Intn(60)) * time.Second
				switch rng.Intn(50) {
				case 0:
					gap = time.Duration(1+rng.Intn(6)) * time.Hour
				case 1, 2:
					gap = time.Duration(5+rng.Intn(55)) * time.Minute
				}
				return tpls[(i/200+rng.Intn(2))%len(tpls)], fmt.Sprintf("t%d", rng.Intn(3)), gap, rng
			}
			// Why each query on the deadline side walked, or that it did not.
			var skipped, firstUse, epochMoved, expired int
			prep := func(side int, e *Economy) {
				m, ca := e.market, e.cfg.Cache
				if side == 1 {
					m.sweepStamp = 0
					return
				}
				switch {
				case m.sweepStamp == 0:
					firstUse++
				case m.sweepStamp != ca.Epoch()+1:
					epochMoved++
				case ca.Clock() > m.sweepUntil:
					expired++
				default:
					skipped++
					ca.ForEach(func(entry *cache.Entry) {
						if _, fails := refFailing(m, entry, ca.Clock()); fails {
							t.Fatalf("the deadline skips the sweep at %v, but %s fails by the rule", ca.Clock(), entry.S.ID)
						}
					})
				}
			}
			lockstep(t, 6000, 3000, mk, next, prep, func(int, *Economy) {})
			if skipped < 500 || firstUse < 10 || epochMoved < 50 || expired < 50 {
				t.Errorf("stream too tame: %d skipped walks; walks after %d first uses, %d epoch moves, %d expired deadlines",
					skipped, firstUse, epochMoved, expired)
			}
		})
	}
}

// TestInvestPeakGateMatchesUngatedScan pins the investment scan's regret
// peak gate — no walk while the ledger's largest live regret is below the
// base bar — to the ungated scan. Two economies with small ledgers, whose
// rows climb to a high bar in many shares, run the same stream in
// lockstep, one with every peak forced to the maximum before each query;
// decisions (InvestConsidered included), books and caches must stay equal
// while rows approach and cross the bar, build, block and are garbage
// collected, and across a snapshot/restore of the gated side, which
// recomputes its peaks. After every query each gated ledger's peak must
// be its exact largest live regret.
func TestInvestPeakGateMatchesUngatedScan(t *testing.T) {
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			var tpls []*workload.Template
			mk := func() (*Economy, *optimizer.Optimizer, *cache.Cache) {
				econ, opt, ca, ts := testEconomy(t, provider, func(cfg *Config) {
					cfg.InitialCredit = money.FromDollars(25)
					cfg.RegretFraction = 0.003
					cfg.LedgerCap = 5
				})
				tpls = ts
				return econ, opt, ca
			}
			rng := rand.New(rand.NewSource(37))
			next := func(int) (*workload.Template, string, time.Duration, *rand.Rand) {
				return tpls[rng.Intn(len(tpls))], fmt.Sprintf("t%d", rng.Intn(2)), time.Duration(1+rng.Intn(20)) * time.Second, rng
			}
			var gated, near, walked int
			prep := func(side int, e *Economy) {
				for _, l := range ledgersOf(e) {
					if side == 1 {
						l.peak = money.Max
						continue
					}
					if bar := l.credit.MulFloat(e.cfg.RegretFraction); bar.IsPositive() {
						switch half := halfUp(bar); {
						case l.peak < half:
							gated++
						case l.peak < 2*half:
							near++
						default:
							walked++
						}
					}
				}
			}
			var dropped money.Amount
			check := func(i int, e *Economy) {
				dropped = 0
				for _, l := range ledgersOf(e) {
					var want money.Amount
					for _, s := range l.live {
						want = money.MaxAmount(want, l.rows[s].regret)
					}
					if l.peak != want {
						t.Fatalf("query %d: ledger %q keeps peak %v, its largest live regret is %v", i, l.tenant, l.peak, want)
					}
					dropped = dropped.Add(l.RegretDropped)
				}
			}
			lockstep(t, 8000, 4000, mk, next, prep, check)
			if gated < 500 || near < 500 || walked < 500 || !dropped.IsPositive() {
				t.Errorf("stream too tame: %d scans gated, %d walked with the peak within a bar of the gate, %d further off; %v regret garbage collected",
					gated, near, walked, dropped)
			}
		})
	}
}
