package economy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/money"
	"repro/internal/structure"
)

// This file exports the economy's mutable state for persistence. The
// exported structs are plain data — no behavior, no unexported fields —
// so internal/persist can serialize them without reaching into the
// economy, and a restored economy continues byte-for-byte: same credits,
// same regret entries with the same LRU clocks, same failure history,
// same investment backoff.

// RegretEntryState is one live regret-ledger row.
type RegretEntryState struct {
	ID      structure.ID
	Regret  money.Amount
	Touched int64
}

// LedgerState is the exported form of one Ledger.
type LedgerState struct {
	Tenant string
	Credit money.Amount
	// Clock is the ledger's logical LRU clock; Entries are sorted by ID.
	Clock   int64
	Entries []RegretEntryState
	Totals
}

// OwnerState records which tenant financed one resident structure.
type OwnerState struct {
	ID     structure.ID
	Tenant string
}

// FailCountState records a structure's failure history (investment
// backoff input).
type FailCountState struct {
	ID    structure.ID
	Count int64
}

// MarketState is the exported form of the shared structure pool's
// bookkeeping. Residency itself lives in the cache's own state.
type MarketState struct {
	Owners       []OwnerState
	FailCounts   []FailCountState
	BuildUsage   cost.Usage
	FailureCount int64
}

// State is the exported form of an Economy: the communal pool (altruistic
// provider only), every tenant ledger, and the market bookkeeping. All
// slices are sorted so repeated snapshots of the same economy are
// byte-identical.
type State struct {
	Provider Provider
	Pool     *LedgerState
	Tenants  []LedgerState
	Market   MarketState
}

// snapshotLedger exports one ledger.
func snapshotLedger(l *Ledger) LedgerState {
	st := LedgerState{Tenant: l.tenant, Credit: l.credit, Clock: l.clock, Totals: l.Totals}
	for _, s := range l.live {
		row := l.rows[s]
		st.Entries = append(st.Entries, RegretEntryState{ID: l.reg.ID(s), Regret: row.regret, Touched: row.touched})
	}
	return st
}

// restoreLedger rebuilds one ledger with the economy's configured cap,
// interning the regret rows' IDs into the cache's registry. A row named
// twice is a corrupt snapshot, never a merge.
func restoreLedger(st LedgerState, cap int, reg *structure.Registry) (*Ledger, error) {
	l := newLedger(st.Tenant, st.Credit, cap, reg)
	l.clock, l.Totals = st.Clock, st.Totals
	for _, es := range st.Entries {
		s := reg.Intern(es.ID)
		row := l.row(s)
		if row.live {
			return nil, fmt.Errorf("economy: ledger %q: duplicate regret row %s in snapshot", st.Tenant, es.ID)
		}
		l.live = reg.Insert(l.live, s)
		*row = regretRow{regret: es.Regret, touched: es.Touched, live: true}
	}
	l.repeak()
	// The failure history is restored after the ledgers, so the first
	// investment walk measures the rows against it.
	l.effPeak = math.Inf(1)
	return l, nil
}

// Snapshot exports the economy's state. The cache is not included: the
// economy shares it with the scheme, and the owner of both (a shard, a
// simulation) snapshots it alongside.
func (e *Economy) Snapshot() *State {
	st := &State{Provider: e.cfg.Provider}
	if e.pool != nil {
		pl := snapshotLedger(e.pool)
		st.Pool = &pl
	}
	names := make([]string, 0, len(e.tenants))
	for name := range e.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Tenants = append(st.Tenants, snapshotLedger(e.tenants[name]))
	}
	// Market rows in ID order, whatever slots the structures hold.
	for _, s := range e.reg.Ordered() {
		if int(s) >= len(e.market.rows) {
			continue
		}
		row := &e.market.rows[s]
		if row.owned {
			st.Market.Owners = append(st.Market.Owners, OwnerState{ID: e.reg.ID(s), Tenant: row.owner})
		}
		if row.failCount != 0 {
			st.Market.FailCounts = append(st.Market.FailCounts, FailCountState{ID: e.reg.ID(s), Count: int64(row.failCount)})
		}
	}
	st.Market.BuildUsage = e.market.buildUsage
	st.Market.FailureCount = e.market.failureCount
	return st
}

// Restore replaces the economy's mutable state with a previously
// exported one. The receiving economy must be fresh (straight from New)
// and configured with the same provider the snapshot was taken under: a
// provider change redefines whose money is whose, so the snapshot no
// longer describes this economy.
func (e *Economy) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("economy: nil state")
	}
	if st.Provider != e.cfg.Provider {
		return fmt.Errorf("economy: snapshot provider %v != configured %v", st.Provider, e.cfg.Provider)
	}
	if len(e.tenants) != 0 {
		return fmt.Errorf("economy: restore into non-fresh economy")
	}
	if (st.Pool != nil) != (e.cfg.Provider == ProviderAltruistic) {
		return fmt.Errorf("economy: snapshot pool/provider mismatch")
	}
	for _, ls := range st.Tenants {
		if _, dup := e.tenants[ls.Tenant]; dup {
			return fmt.Errorf("economy: duplicate tenant %q in snapshot", ls.Tenant)
		}
		l, err := restoreLedger(ls, e.cfg.LedgerCap, e.reg)
		if err != nil {
			return err
		}
		e.tenants[ls.Tenant] = l
	}
	if st.Pool != nil {
		pool, err := restoreLedger(*st.Pool, e.cfg.LedgerCap, e.reg)
		if err != nil {
			return err
		}
		e.pool = pool
	}
	m := e.market
	for _, os := range st.Market.Owners {
		row := m.row(e.reg.Intern(os.ID))
		if row.owned {
			return fmt.Errorf("economy: duplicate owner of %s in snapshot", os.ID)
		}
		row.owned, row.owner = true, os.Tenant
	}
	failed := make(map[structure.ID]bool, len(st.Market.FailCounts))
	for _, fs := range st.Market.FailCounts {
		if failed[fs.ID] {
			return fmt.Errorf("economy: duplicate fail count of %s in snapshot", fs.ID)
		}
		failed[fs.ID] = true
		m.row(e.reg.Intern(fs.ID)).failCount = int(fs.Count)
	}
	m.buildUsage = st.Market.BuildUsage
	m.failureCount = st.Market.FailureCount
	return nil
}
