package economy

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/pricing"
	"repro/internal/structure"
	"repro/internal/workload"
)

// Regression tests for the accounting violations found while building the
// adversarial economy fuzzer (PR 10). Each test pins one law an adversary
// could previously break:
//
//   - TestLedgerCapAdmitsNewEntries: a full regret ledger evicted every
//     newcomer at touched=0 (inverted LRU), freezing the map at its first
//     cap entries forever.
//   - TestLedgerCapEvictionAccountsRegret: cap evictions silently
//     discarded accrued regret, so cold-cycling one-off structure IDs
//     through the map erased a victim structure's Eq. 3 progress.
//   - TestDistributeRegretConservation: round-half-away division minted
//     regret when a plan's regret split across its missing structures
//     (1µ$ over two structures landed 2µ$).
//   - TestSelfishRecoverySplitExact: owner reimbursements must sum to
//     exactly the amortized + maintenance components the user was
//     charged, per query and in the journal totals.
//   - TestInvestBackoffSurvivesRestore: a restart must not reset the
//     investment backoff a failed build raised.
//   - TestRestoreRejectsDuplicates: a snapshot naming a regret row, an
//     owner or a fail count twice restored silently, the last row winning.

// testEconomy builds the standard adversarial test rig: TPCH catalog,
// paper templates, conservative economy under the given provider.
func testEconomy(t *testing.T, provider Provider, mutate func(*Config)) (*Economy, *optimizer.Optimizer, *cache.Cache, []*workload.Template) {
	t.Helper()
	cat := catalog.TPCH(20)
	model, err := cost.NewModel(cat, pricing.EC22008(), cost.DefaultTunables())
	if err != nil {
		t.Fatal(err)
	}
	ca := cache.New(0)
	opt, err := optimizer.New(optimizer.Config{Model: model, AmortN: 5000, AllowIndexes: true, AllowNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Model:                 model,
		Cache:                 ca,
		Optimizer:             opt,
		Criterion:             SelectCheapest,
		Provider:              provider,
		RegretFraction:        0.0002,
		AmortN:                5000,
		InitialCredit:         money.FromDollars(25),
		Conservative:          true,
		UserAcceptsOverBudget: true,
		MaintFailureFactor:    DefaultMaintFailureFactor,
		NeverUsedFloor:        money.FromDollars(0.5),
		InvestBackoff:         2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	econ, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tpls := workload.PaperTemplates()
	for _, tpl := range tpls {
		if err := tpl.Validate(cat); err != nil {
			t.Fatal(err)
		}
	}
	return econ, opt, ca, tpls
}

// TestLedgerCapAdmitsNewEntries pins the inverted-LRU insertion bug: a
// ledger at its cap must admit a new structure's regret (evicting the
// least-regret existing entry), not evict the entry it just inserted.
func TestLedgerCapAdmitsNewEntries(t *testing.T) {
	reg := structure.NewRegistry()
	l := newLedger("t", 0, 4, reg)
	for i := 0; i < 4; i++ {
		l.add(reg.Intern(structure.ID(fmt.Sprintf("s%d", i))), money.Amount(100*(i+1)))
	}
	l.add(reg.Intern("fresh"), money.Amount(1000))
	if !l.rows[reg.Lookup("fresh")].live {
		t.Fatal("full ledger evicted the entry it just inserted (inverted LRU): new structures can never accrue regret")
	}
	if l.rows[reg.Lookup("s0")].live {
		t.Error("eviction spared the least-regret entry s0")
	}
	if l.RegretDropped != money.Amount(100) {
		t.Errorf("dropped regret accounted %v, want 100µ$ (entry s0)", l.RegretDropped)
	}
	if got, want := l.liveRegret().Add(l.RegretDropped), l.RegretAccrued; got != want {
		t.Errorf("regret conservation: live+dropped %v != accrued %v", got, want)
	}
}

// TestLedgerCapEvictionAccountsRegret pins the cold-cycle attack from the
// adversary suite: spraying one-off structure IDs through a capped ledger
// must neither evict a victim structure's accumulating regret (the spray's
// own near-zero entries are the eviction victims) nor silently lose any
// regret from the books.
func TestLedgerCapEvictionAccountsRegret(t *testing.T) {
	const capN = 8
	reg := structure.NewRegistry()
	l := newLedger("t", 0, capN, reg)
	victim := reg.Intern("victim")
	var victimRegret money.Amount
	for round := 0; round < 500; round++ {
		l.add(victim, money.Amount(50))
		victimRegret = victimRegret.Add(money.Amount(50))
		// The cold-cycle: cap fresh never-repeated IDs per round, each
		// with a token share — under LRU eviction these would rotate the
		// victim out every round.
		for j := 0; j < capN; j++ {
			l.add(reg.Intern(structure.ID(fmt.Sprintf("oneoff-%d-%d", round, j))), money.Amount(1))
		}
	}
	e := l.rows[victim]
	if !e.live {
		t.Fatal("cold-cycling one-off IDs evicted the victim structure's regret entry")
	}
	if e.regret != victimRegret {
		t.Errorf("victim regret %v, want %v accrued across the attack", e.regret, victimRegret)
	}
	if len(l.live) > capN {
		t.Errorf("%d live entries exceed cap %d", len(l.live), capN)
	}
	if !l.RegretDropped.IsPositive() {
		t.Error("cap evictions accounted no dropped regret")
	}
	if got, want := l.liveRegret().Add(l.RegretDropped), l.RegretAccrued; got != want {
		t.Errorf("regret conservation: live+dropped %v != accrued %v — eviction lost regret silently", got, want)
	}
}

// TestDistributeRegretConservation pins the minted-regret bug: splitting a
// plan's regret across its missing structures must land exactly the
// computed regret, never more (round-half-away division landed 2µ$ for a
// 1µ$ regret over two missing structures, doubling what micro-queries
// feed the Eq. 3 trigger).
func TestDistributeRegretConservation(t *testing.T) {
	econ, opt, ca, tpls := testEconomy(t, ProviderAltruistic, nil)

	// Enumerate a real plan set and pick a possible plan with at least
	// two missing structures.
	q := &workload.Query{
		ID:          1,
		Template:    tpls[0],
		Selectivity: tpls[0].SelMin,
		Arrival:     time.Second,
		Budget:      budget.NewStep(money.FromDollars(1), time.Hour),
	}
	ca.Advance(q.Arrival)
	plans, err := opt.Enumerate(q, ca)
	if err != nil {
		t.Fatal(err)
	}
	var target *plan.Plan
	for _, p := range plans {
		if len(p.Missing) >= 2 {
			target = p
			break
		}
	}
	if target == nil {
		t.Fatal("no possible plan with >= 2 missing structures in the enumeration")
	}

	led := econ.ledgerFor("mallory")
	acct := econ.account(led)
	for _, r := range []money.Amount{1, 3, 5, 7, money.Amount(len(target.Missing) - 1)} {
		before := acct.liveRegret()
		landed := econ.distribute(target, r, led, acct)
		if landed > r {
			t.Fatalf("distribute landed %v of computed regret %v — regret was minted", landed, r)
		}
		if landed != r {
			// All kinds are allowed in this config, so the split must be
			// exact, not just bounded.
			t.Fatalf("distribute landed %v of computed regret %v — regret was lost", landed, r)
		}
		if got := acct.liveRegret().Sub(before); got != landed {
			t.Fatalf("ledger gained %v, distribute reported %v", got, landed)
		}
	}
}

// TestSelfishRecoverySplitExact pins the satellite-2 audit: under the
// selfish provider with skewed ownership, the amortization + maintenance
// recovery flowing back to owners must sum per query to exactly the
// AmortPrice + MaintPrice the chosen plan charged the user (whenever no
// failure sweep intersected the plan), every reimbursement must go to an
// owner of one of the plan's structures, and the reimbursements and
// invest events must reconcile exactly with the ledger sums. The
// reimbursements are read off the owners' credit: each ledger's credit
// moves by its recovery, plus its profit when it paid, minus what it
// invested.
func TestSelfishRecoverySplitExact(t *testing.T) {
	econ, opt, ca, tpls := testEconomy(t, ProviderSelfish, nil)

	var totalRecovered, totalInvested money.Amount
	econ.SetEvents(func(ev obs.Event) {
		if ev.Type == obs.EventInvest {
			totalInvested = totalInvested.Add(ev.Amount)
		}
	})
	type books struct{ credit, recovered, invested money.Amount }
	before := map[*Ledger]books{}

	// Skewed tenants: alice dominates, so she finances most structures
	// and the others' queries reimburse her.
	tenants := []string{"alice", "alice", "alice", "bob", "carol", ""}
	rng := rand.New(rand.NewSource(99))
	exactQueries := 0
	for i := 0; i < 4000; i++ {
		tpl := tpls[rng.Intn(len(tpls))]
		q := &workload.Query{
			ID:          int64(i + 1),
			Tenant:      tenants[rng.Intn(len(tenants))],
			Template:    tpl,
			Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
			Arrival:     ca.Clock() + time.Duration(1+rng.Intn(9_000))*time.Millisecond,
			Budget: budget.NewStep(
				money.FromDollars(rng.Float64()*0.02),
				time.Duration(1+rng.Intn(60))*time.Second),
		}
		ca.Advance(q.Arrival)
		ca.CompleteDue()
		plans, err := opt.Enumerate(q, ca)
		if err != nil {
			t.Fatal(err)
		}
		clear(before)
		for _, l := range econ.tenants {
			before[l] = books{l.credit, l.Recovered, l.Invested}
		}
		d, err := econ.HandleQuery(q, plans)
		if err != nil {
			t.Fatal(err)
		}
		owners := map[string]bool{}
		if d.Chosen != nil {
			for _, st := range d.Chosen.Structures.Items() {
				owners[econ.Market().Owner(st.ID)] = true
			}
		}
		var recovered money.Amount
		for name, l := range econ.tenants {
			was, ok := before[l]
			if !ok { // opened by this query, with the seed capital
				was = books{credit: econ.cfg.InitialCredit}
			}
			got := l.credit.Sub(was.credit).Add(l.Invested.Sub(was.invested))
			if name == q.Tenant {
				got = got.Sub(d.Profit)
			}
			if want := l.Recovered.Sub(was.recovered); got != want {
				t.Fatalf("query %d: %q's credit moved by %v beyond profit and investment, its recovery by %v", q.ID, name, got, want)
			}
			if got == 0 {
				continue
			}
			recovered = recovered.Add(got)
			totalRecovered = totalRecovered.Add(got)
			if len(d.Failures) == 0 && !owners[name] {
				t.Fatalf("query %d: %q was reimbursed %v but owns none of the chosen plan's structures", q.ID, name, got)
			}
		}
		if d.Chosen != nil && len(d.Failures) == 0 {
			want := d.Chosen.AmortPrice.Add(d.Chosen.MaintPrice)
			if recovered != want {
				t.Fatalf("query %d: owners reimbursed %v, user was charged %v amort+maint — %v lost or minted",
					q.ID, recovered, want, want.Sub(recovered))
			}
			if want != 0 {
				exactQueries++
			}
		}
	}
	if exactQueries == 0 {
		t.Fatal("no query exercised a non-zero recovery split")
	}

	// The reimbursements read off the credit and the invest events must
	// reconcile exactly with the ledger sums.
	var sumRecovered, sumInvested money.Amount
	ownersSeen := map[string]bool{}
	for _, ts := range econ.TenantStats() {
		sumRecovered = sumRecovered.Add(ts.Recovered)
		sumInvested = sumInvested.Add(ts.Invested)
		if ts.Recovered.IsPositive() {
			ownersSeen[ts.Tenant] = true
		}
	}
	if sumRecovered != totalRecovered {
		t.Errorf("ledgers recovered %v, their credit moved by %v", sumRecovered, totalRecovered)
	}
	if sumInvested != totalInvested {
		t.Errorf("ledgers invested %v, journal events say %v", sumInvested, totalInvested)
	}
	if len(ownersSeen) < 2 {
		t.Errorf("recovery reached %d owners, want skewed multi-owner coverage", len(ownersSeen))
	}
	if err := econ.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestInvestBackoffSurvivesRestore pins the satellite-3 audit: snapshot /
// restore must preserve the failure history that raises the Eq. 3 bar, so
// a restart cannot let a regret-inflater immediately re-trigger a build
// the backoff had damped.
func TestInvestBackoffSurvivesRestore(t *testing.T) {
	for _, provider := range []Provider{ProviderAltruistic, ProviderSelfish} {
		t.Run(provider.String(), func(t *testing.T) {
			// A rent-hostile regime: long gaps rot structures, so builds
			// fail and the backoff history grows.
			econ, opt, ca, tpls := testEconomy(t, provider, func(cfg *Config) {
				cfg.RegretFraction = 0.0001
				cfg.NeverUsedFloor = money.FromDollars(0.05)
				cfg.MaintFailureFactor = 0.2
			})
			rng := rand.New(rand.NewSource(7))
			run := func(e *Economy, c *cache.Cache, i int) {
				tpl := tpls[i%len(tpls)]
				q := &workload.Query{
					ID:          int64(i + 1),
					Tenant:      "mallory",
					Template:    tpl,
					Selectivity: tpl.SelMin + rng.Float64()*(tpl.SelMax-tpl.SelMin),
					Arrival:     c.Clock() + time.Duration(20+rng.Intn(40))*time.Second,
					Budget:      budget.NewStep(money.FromDollars(0.05), time.Hour),
				}
				c.Advance(q.Arrival)
				c.CompleteDue()
				plans, err := opt.Enumerate(q, c)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.HandleQuery(q, plans); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			for ; econ.market.failureCount == 0 && i < 5000; i++ {
				run(econ, ca, i)
			}
			if econ.market.failureCount == 0 {
				t.Fatal("stream produced no structure failures; backoff never exercised")
			}
			st := econ.Snapshot()
			if len(st.Market.FailCounts) == 0 {
				t.Fatal("failures recorded no failCount backoff history")
			}

			cfg := econ.cfg
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(st); err != nil {
				t.Fatal(err)
			}
			if got := restored.Snapshot().Market.FailCounts; len(got) != len(st.Market.FailCounts) {
				t.Fatalf("restore kept %d failCount entries, want %d", len(got), len(st.Market.FailCounts))
			}
			// The investment scan's blocked-row memo is derived state: a
			// snapshot carries none of it, a restored ledger starts without
			// it, and the restored books are the snapshot's, byte for byte.
			if !reflect.DeepEqual(restored.Snapshot(), st) {
				t.Errorf("restored books differ from the snapshot they came from")
			}
			mallory := restored.ledgerFor("mallory")
			for _, l := range []*Ledger{restored.account(mallory), mallory} {
				for _, s := range l.live {
					if row := l.rows[s]; row.blockedEpoch != 0 || row.blockedPrice != 0 {
						t.Errorf("restored ledger %q remembers a blocked build of %s", l.tenant, l.reg.ID(s))
					}
				}
			}
			threshold := money.FromDollars(0.001)
			for _, fc := range st.Market.FailCounts {
				id, n := fc.ID, int(fc.Count)
				slot, rslot := econ.reg.Lookup(id), restored.reg.Lookup(id)
				if got := restored.market.failures(rslot); got != n {
					t.Errorf("failCount[%s] restored as %d, want %d", id, got, n)
				}
				before := econ.market.bars(threshold).at(econ.market.failures(slot))
				after := restored.market.bars(threshold).at(restored.market.failures(rslot))
				if before != after {
					t.Errorf("investment bar for %s changed across restore: %v -> %v", id, before, after)
				}
				if n > 0 && after <= threshold {
					t.Errorf("restored bar for %s (%v) not raised above base threshold %v despite %d failures",
						id, after, threshold, n)
				}
			}
			// RegretDropped must survive too: it is part of the regret
			// conservation audit.
			for _, ts := range restored.TenantStats() {
				if err := restored.CheckInvariants(); err != nil {
					t.Fatalf("restored economy fails invariants (tenant %s): %v", ts.Tenant, err)
				}
			}
		})
	}
}

// TestRestoreRejectsDuplicates: a CRC-valid snapshot or shard packet is
// still outside input, and one that names a regret row, an owner, a fail
// count, a resident or a pending build twice is corrupt — restore refuses
// it instead of merging with the last row winning. The economy's three
// cases and the cache's three are one table because a shard restores
// both, cache first; the control row shows the same shapes with distinct
// names restore cleanly.
func TestRestoreRejectsDuplicates(t *testing.T) {
	cat := catalog.TPCH(20)
	resolve := func(id structure.ID) (*structure.Structure, error) { return ResolveID(cat, id) }
	row := RegretEntryState{ID: "cpu:2", Regret: 5, Touched: 1}
	pending := cache.PendingState{ID: "cpu:4", ReadyAt: time.Hour}
	cases := []struct {
		name     string
		provider Provider
		eco      State
		ca       cache.State
		want     string // "" restores
	}{
		{"distinct names", ProviderSelfish, State{
			Tenants: []LedgerState{{Tenant: "a", Entries: []RegretEntryState{row, {ID: "cpu:5"}}}},
			Market: MarketState{
				Owners:     []OwnerState{{ID: "cpu:2", Tenant: "a"}, {ID: "cpu:3", Tenant: "a"}},
				FailCounts: []FailCountState{{ID: "cpu:2", Count: 1}, {ID: "cpu:3", Count: 2}},
			},
		}, cache.State{Entries: []cache.EntryState{{ID: "cpu:3"}}, Pending: []cache.PendingState{pending}}, ""},
		{"pool regret row", ProviderAltruistic, State{Pool: &LedgerState{Entries: []RegretEntryState{row, row}}}, cache.State{}, "duplicate regret row"},
		{"tenant regret row", ProviderSelfish, State{Tenants: []LedgerState{{Tenant: "a", Entries: []RegretEntryState{row, row}}}}, cache.State{}, "duplicate regret row"},
		{"owner", ProviderSelfish, State{Market: MarketState{Owners: []OwnerState{{ID: "cpu:2", Tenant: "a"}, {ID: "cpu:2", Tenant: "b"}}}}, cache.State{}, "duplicate owner"},
		{"fail count", ProviderSelfish, State{Market: MarketState{FailCounts: []FailCountState{{ID: "cpu:2", Count: 1}, {ID: "cpu:2", Count: 3}}}}, cache.State{}, "duplicate fail count"},
		{"cache entry", ProviderSelfish, State{}, cache.State{Entries: []cache.EntryState{{ID: "cpu:3"}, {ID: "cpu:3"}}}, "duplicate entry"},
		{"cache pending build", ProviderSelfish, State{}, cache.State{Pending: []cache.PendingState{pending, pending}}, "duplicate pending build"},
		{"cache resident and pending", ProviderSelfish, State{}, cache.State{Entries: []cache.EntryState{{ID: "cpu:4"}}, Pending: []cache.PendingState{pending}}, "both resident and pending"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			econ, _, ca, _ := testEconomy(t, tc.provider, nil)
			tc.eco.Provider = tc.provider
			err := ca.Restore(tc.ca, resolve)
			if err == nil {
				err = econ.Restore(&tc.eco)
			}
			if tc.want == "" {
				if err != nil {
					t.Fatalf("distinct names refused: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("restore error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
