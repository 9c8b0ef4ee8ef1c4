package economy

import (
	"fmt"
	"math"
	"math/big"
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

// TestEffGateBoundsLadder checks the effective-regret gate against the
// real MulFloat ladder over random base bars T (1 µ$ to past money.Max/2),
// backoffs and failure counts (0–35): every unsaturated rung k meets the
// bound b^k·(T − k/2)·(1 − 2k·2⁻⁵³) the gate's proof rests on (evaluated
// in 256-bit floats), and the largest regret the gate dismisses — found
// by bisection, the dismissal being monotone in regret — is below the
// row's own bar, saturated or not.
func TestEffGateBoundsLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	backoffs := []float64{1.0000001, 1.3, 1.7, 2, 7.3}
	for range 40 {
		backoffs = append(backoffs, 1+9*rng.Float64())
	}
	bigf := func(x float64) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(x) }
	bigi := func(a money.Amount) *big.Float { return new(big.Float).SetPrec(256).SetInt64(int64(a)) }
	saturated, tight := 0, 0
	for _, b := range backoffs {
		m := &Market{cfg: Config{InvestBackoff: b}, scale: backoffScale(b)}
		for range 200 {
			threshold := money.Amount(1 + rng.Int63n(1<<uint(1+rng.Intn(62))))
			bars := m.bars(threshold)
			gate := effGate(threshold)
			for failures := range maxBackoffSteps + 6 {
				bar := bars.at(failures)
				k := min(failures, maxBackoffSteps)
				if bar == money.Max {
					saturated++
				} else {
					// b^k·(T − k/2)·(1 − 2k·2⁻⁵³), exactly enough.
					want := bigi(threshold)
					want.Sub(want, bigf(float64(k)/2))
					want.Mul(want, new(big.Float).SetPrec(256).Sub(bigf(1), bigf(2*float64(k)*0x1p-53)))
					for range k {
						want.Mul(want, bigf(b))
					}
					if bigi(bar).Cmp(want) < 0 {
						t.Fatalf("b %g, T %d: rung %d is %d, below the bound %s", b, threshold, k, bar, want.Text('g', 20))
					}
				}
				dismissed := func(r money.Amount) bool {
					return 2*m.effRegret(r, failures) < gate && 2*float64(r) < rawGate
				}
				if !dismissed(0) {
					continue
				}
				lo, hi := money.Amount(0), money.Max // dismissed(lo), and hi is not or is Max
				for hi-lo > 1 {
					if mid := lo + (hi-lo)/2; dismissed(mid) {
						lo = mid
					} else {
						hi = mid
					}
				}
				if bars.crossed(lo, failures) {
					t.Fatalf("b %g, T %d, %d failures: the gate dismisses regret %d, which crosses bar %d", b, threshold, failures, lo, bar)
				}
				if lo.MulInt(2) >= bar-bar/1000-64 {
					tight++
				}
			}
		}
	}
	if saturated == 0 || tight == 0 {
		t.Errorf("%d saturated rungs, %d gates within 0.1%% of their bar: the draw misses a case", saturated, tight)
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

// TestInvestPeakGateMatchesUngatedScan pins the investment scan's two
// gates — no walk while the ledger's largest live regret is below the
// base bar, nor while every row sits below its own failure-raised bar by
// the bound effPeak keeps — and the in-walk dismissal by that bound to
// the ungated scan. Two economies with small ledgers (LedgerCap 5, so
// rows are garbage collected) run the same stream in lockstep, one with
// every peak and effPeak forced to its maximum before each query;
// decisions (InvestConsidered included), books and caches must stay
// equal, across a snapshot/restore of the gated side. The plain arm is
// the queries' own regret alone: rows climb to a high bar in many shares,
// approach and cross it, build and block. The nudged arms also raise
// random rows' failure counts (0–35, past the 30 rungs the bar compounds
// over) and push random rows to just below, at or above their own bar,
// or somewhere under it; they run backoff 2 and 1.7, a threshold near
// money.Max whose ladder saturates, and an account too poor to pay for
// what crosses, so rows sit blocked. After every query each gated
// ledger's peak must be its exact largest live regret and its effPeak at
// least its exact largest effRegret; after the restore, every effPeak is
// +Inf. Each arm must reach its floors on scans gated by the base bar,
// past it with the peak within a bar of it or further off, gated by
// effPeak and walked, and must garbage collect regret.
func TestInvestPeakGateMatchesUngatedScan(t *testing.T) {
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			for _, arm := range peakGateArms {
				t.Run(arm.name, func(t *testing.T) { testPeakGate(t, provider, arm) })
			}
		})
	}
}

// peakGateArm is one configuration of TestInvestPeakGateMatchesUngatedScan
// and the scan counts its stream must reach.
type peakGateArm struct {
	name     string
	backoff  float64
	credit   money.Amount
	fraction float64
	// nudges is how many queries in 20 carry a nudge; 0 is the plain
	// stream.
	nudges int
	// The floors: scans gated by the base bar, past it with the peak
	// within a bar of it, further off; of those past it, gated by effPeak
	// and walked; rows pushed onto their bar.
	base, near, far, eff, walked, crossing int
}

var peakGateArms = []peakGateArm{
	{name: "plain", backoff: 2, credit: money.FromDollars(25), fraction: 0.003,
		base: 500, near: 500, far: 500, eff: 500},
	{name: "backoff-2", backoff: 2, credit: money.FromDollars(25), fraction: 0.003, nudges: 2,
		base: 150, near: 14, far: 5000, eff: 5000, walked: 45, crossing: 70},
	{name: "backoff-1.7", backoff: 1.7, credit: money.FromDollars(25), fraction: 0.003, nudges: 2,
		base: 150, near: 14, far: 5000, eff: 5000, walked: 45, crossing: 70},
	{name: "saturating", backoff: 2, credit: money.Max / 2, fraction: 0.5, nudges: 2,
		base: 5000, near: 90, far: 300, eff: 130, walked: 300, crossing: 10},
	{name: "short", backoff: 2, credit: money.FromDollars(0.05), fraction: 0.001, nudges: 2,
		base: 800, near: 25, far: 5000, eff: 5000, walked: 250, crossing: 55},
}

func testPeakGate(t *testing.T, provider Provider, arm peakGateArm) {
	var tpls []*workload.Template
	mk := func() (*Economy, *optimizer.Optimizer, *cache.Cache) {
		econ, opt, ca, ts := testEconomy(t, provider, func(cfg *Config) {
			cfg.InitialCredit = arm.credit
			cfg.RegretFraction = arm.fraction
			cfg.LedgerCap = 5
			cfg.InvestBackoff = arm.backoff
		})
		tpls = ts
		return econ, opt, ca
	}
	// The plain arm is the stream the scan gate was first pinned with;
	// the nudged arms run longer, since their pushed rows keep the peak
	// far above the base bar most of the time.
	n, restoreAt := 8000, 4000
	if arm.nudges > 0 {
		n, restoreAt = 16000, 8000
	}
	rng := rand.New(rand.NewSource(37))
	// Each query's nudge, drawn with it and applied to both sides alike:
	// pick a ledger and one of its rows, then either raise the row's
	// failure count or push its regret towards its bar.
	var draw struct {
		ledger, row, kind, sub, delta int
		frac                          float64
	}
	draw.kind = 20
	next := func(int) (*workload.Template, string, time.Duration, *rand.Rand) {
		if arm.nudges > 0 {
			draw.ledger, draw.row, draw.kind, draw.sub = rng.Intn(8), rng.Intn(5), rng.Intn(20), rng.Intn(6)
			draw.delta, draw.frac = rng.Intn(5)-2, 0.05+0.95*rng.Float64()
		}
		return tpls[rng.Intn(len(tpls))], fmt.Sprintf("t%d", rng.Intn(2)), time.Duration(1+rng.Intn(20)) * time.Second, rng
	}
	var nudge struct {
		id       structure.ID
		failures int
		share    money.Amount
		ledger   string
		pool     bool
	}
	var lastFast *Economy
	var base, near, far, effGated, rawWalked, walked, crossing int
	var dropped money.Amount
	prep := func(side int, e *Economy) {
		if side == 1 {
			applyNudge(e, nudge.pool, nudge.ledger, nudge.id, nudge.failures, nudge.share)
			for _, l := range ledgersOf(e) {
				l.peak, l.effPeak = money.Max, math.Inf(1)
			}
			return
		}
		if lastFast != nil && e != lastFast {
			for _, l := range ledgersOf(e) {
				if !math.IsInf(l.effPeak, 1) {
					t.Fatalf("restored ledger %q keeps effPeak %g, want +Inf", l.tenant, l.effPeak)
				}
			}
		}
		lastFast = e
		// The accounts whose rows drive investment: the pool, or the
		// tenants in name order.
		ledgers := []*Ledger{e.pool}
		if e.pool == nil {
			ledgers = ledgersOf(e)
			sort.Slice(ledgers, func(i, j int) bool { return ledgers[i].tenant < ledgers[j].tenant })
		}
		for _, l := range ledgers {
			threshold := l.credit.MulFloat(e.cfg.RegretFraction)
			if !threshold.IsPositive() {
				continue
			}
			gate, half := effGate(threshold), halfUp(threshold)
			switch {
			case l.peak < half:
				base++
				continue
			case l.peak < 2*half:
				near++
			default:
				far++
			}
			switch {
			case 2*l.effPeak < gate && 2*float64(l.peak) < rawGate:
				effGated++
			case 2*l.effPeak < gate:
				rawWalked++
			default:
				walked++
			}
		}
		// The nudge, by name, so the other side can apply it to its own
		// slots.
		nudge.id, nudge.share = "", 0
		if len(ledgers) == 0 {
			return
		}
		l := ledgers[draw.ledger%len(ledgers)]
		if len(l.live) == 0 || draw.kind >= arm.nudges {
			return
		}
		slot := l.live[draw.row%len(l.live)]
		nudge.id, nudge.ledger, nudge.pool = e.reg.ID(slot), l.tenant, l == e.pool
		nudge.failures = e.market.failures(slot)
		if draw.sub < 2 {
			nudge.failures = min(nudge.failures+3+draw.delta, 35)
		} else if threshold := l.credit.MulFloat(e.cfg.RegretFraction); threshold.IsPositive() {
			half := halfUp(e.market.bars(threshold).at(nudge.failures))
			target := half.Add(money.Amount(draw.delta))
			if draw.sub == 5 {
				target = half.MulFloat(draw.frac)
			}
			if target == half {
				crossing++
			}
			nudge.share = target.Sub(l.rows[slot].regret)
		}
		applyNudge(e, nudge.pool, nudge.ledger, nudge.id, nudge.failures, nudge.share)
	}
	check := func(i int, e *Economy) {
		dropped = 0
		for _, l := range ledgersOf(e) {
			dropped = dropped.Add(l.RegretDropped)
			var peak money.Amount
			eff := 0.0
			for _, s := range l.live {
				peak = money.MaxAmount(peak, l.rows[s].regret)
				eff = max(eff, e.market.effRegret(l.rows[s].regret, e.market.failures(s)))
			}
			if l.peak != peak {
				t.Fatalf("query %d: ledger %q keeps peak %v, its largest live regret is %v", i, l.tenant, l.peak, peak)
			}
			if l.effPeak < eff {
				t.Fatalf("query %d: ledger %q keeps effPeak %g, a live row's effRegret is %g", i, l.tenant, l.effPeak, eff)
			}
		}
	}
	lockstep(t, n, restoreAt, mk, next, prep, check)
	var deep int
	for _, s := range lastFast.reg.Ordered() {
		if lastFast.market.failures(s) > maxBackoffSteps {
			deep++
		}
	}
	if base < arm.base || near < arm.near || far < arm.far || effGated < arm.eff || walked+rawWalked < arm.walked ||
		crossing < arm.crossing || arm.nudges > 0 && deep == 0 || !dropped.IsPositive() {
		t.Errorf("stream too tame: %d scans gated by the base bar, %d past it with the peak within a bar of it, %d further off; "+
			"%d gated by effPeak, %d walked (%d on the saturation bound alone); %d rows pushed onto their bar, %d structures past the last rung; %v regret garbage collected",
			base, near, far, effGated, walked+rawWalked, rawWalked, crossing, deep, dropped)
	}
	if arm.credit > money.Max/4 && rawWalked < 130 {
		t.Errorf("saturating arm: only %d scans walked on the saturation bound alone", rawWalked)
	}
}

// applyNudge raises a row's failure count to failures and adds share to
// its regret, in the named ledger (the pool when pool is set).
func applyNudge(e *Economy, pool bool, ledger string, id structure.ID, failures int, share money.Amount) {
	if id == "" {
		return
	}
	slot := e.reg.Lookup(id)
	e.market.row(slot).failCount = failures
	if share.IsPositive() {
		l := e.pool
		if !pool {
			l = e.tenants[ledger]
		}
		l.add(slot, share)
		e.raiseEffPeak(l, slot)
	}
}
