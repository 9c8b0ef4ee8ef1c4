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
			if live := l.liveRegret(); live.Add(l.regretDropped) > l.regretAccrued {
				t.Fatalf("seed %d after %s: live %v + dropped %v exceeds accrued %v", seed, op, live, l.regretDropped, l.regretAccrued)
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
				l = restoreLedger(snapshotLedger(l), capN, reg)
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
	if due <= m.cfg.FailureFloor {
		return due, false
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
