package server

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Live shard migration: a router moves one shard between backends by
// freezing it on the source (FreezeShard — every further query answers
// ErrShardNotOwned so the router re-routes), extracting its complete
// economy as a persist.ShardPacket (ExtractShard — capture + reset, the
// source keeps only an empty disowned slot), and installing the packet
// into the same shard index on the destination (InstallShard — validate
// the configuration fingerprint, adopt the state, take ownership).
// Because a disowned shard decides nothing and accrues nothing, and the
// packet carries the rent watermarks and RNG, the migrated shard's
// remaining stream is byte-identical to one that never moved — the same
// parity guarantee the restart snapshot gives, proven by
// TestMigrationParity.
//
// Ownership is runtime state, not durable state: a restarted backend
// owns all its shards until a router (or operator) freezes some away
// again.

// ErrShardNotOwned is the answer to any query routed to a shard this
// server has frozen or migrated away. Routers match it to re-route the
// query to the shard's current owner.
var ErrShardNotOwned = errors.New("server: shard not owned here")

// ErrShardInUse is returned by InstallShard when the target shard slot
// already holds state: installing would silently discard a live economy.
var ErrShardInUse = errors.New("server: shard slot already holds state")

// validShard bounds-checks a shard index.
func (s *Server) validShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("server: shard %d outside [0, %d)", i, len(s.shards))
	}
	return nil
}

// FreezeShard disowns shard i: any decision in progress completes
// first, then every query routed to it answers ErrShardNotOwned and the
// shard's economy stops moving entirely (no decisions, no rent accrual,
// no housekeeping) until a packet is installed back. Idempotent; safe
// on a live server under full load.
func (s *Server) FreezeShard(i int) error {
	if err := s.validShard(i); err != nil {
		return err
	}
	sh := s.shards[i]
	sh.mu.Lock()
	sh.owned = false
	sh.mu.Unlock()
	return nil
}

// ExtractShard freezes shard i and returns its complete durable state
// as a migration packet, leaving behind an empty disowned slot (the
// scheme is rebuilt fresh, so the extracted economy exists in exactly
// one place). The packet carries the server's configuration fingerprint
// and query-ID counter for the installing side to validate and adopt.
func (s *Server) ExtractShard(i int) (*persist.ShardPacket, error) {
	return s.ExtractShardChecked(i, nil)
}

// ExtractShardChecked is ExtractShard with a commit gate: the captured
// packet is handed to check before the destructive reset, and a check
// error aborts the extract with the shard's state and ownership exactly
// as they were. The wire layer uses the gate to refuse an extract whose
// encoding cannot travel in one frame — without it, the reply would be
// dropped after the state was already destroyed.
func (s *Server) ExtractShardChecked(i int, check func(*persist.ShardPacket) error) (*persist.ShardPacket, error) {
	if err := s.validShard(i); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	s.mu.Unlock()
	s.migrating.Add(1)
	defer s.migrating.Add(-1)

	// Freeze first: a disowned shard decides nothing and accrues nothing,
	// so its state is stable from here until the commit (or the abort).
	sh := s.shards[i]
	sh.mu.Lock()
	wasOwned := sh.owned
	sh.owned = false
	sh.mu.Unlock()

	// The replacement scheme is built outside the shard lock; swapping it
	// in is what makes the extract a move rather than a copy.
	fresh, err := scheme.New(s.cfg.Scheme, s.cfg.Params)
	if err != nil {
		sh.mu.Lock()
		sh.owned = wasOwned
		sh.mu.Unlock()
		return nil, fmt.Errorf("server: rebuilding shard %d scheme: %w", i, err)
	}

	sh.mu.Lock()
	pkt := &persist.ShardPacket{Fingerprint: s.fingerprint(), State: sh.captureStateLocked()}
	if check != nil {
		if err := check(pkt); err != nil {
			sh.owned = wasOwned
			sh.mu.Unlock()
			return nil, err
		}
	}
	sh.resetLocked(fresh)
	sh.mu.Unlock()
	s.wireJournal(i, fresh)
	return pkt, nil
}

// InstallShard adopts a migration packet into shard i and takes
// ownership. The packet must match this server's configuration
// fingerprint and shard index, and the target slot must be unused —
// fresh, or emptied by a prior ExtractShard — so an install can never
// silently discard live state. The query-ID counter ratchets up to the
// packet's, keeping IDs monotone across the move.
func (s *Server) InstallShard(i int, pkt *persist.ShardPacket) error {
	if err := s.validShard(i); err != nil {
		return err
	}
	if err := s.checkFingerprint("packet", &pkt.Fingerprint); err != nil {
		return err
	}
	if pkt.State.Index != i {
		return fmt.Errorf("server: packet carries shard %d, installing into %d", pkt.State.Index, i)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.mu.Unlock()
	s.migrating.Add(1)
	defer s.migrating.Add(-1)

	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.unusedLocked() {
		return fmt.Errorf("%w: shard %d", ErrShardInUse, i)
	}
	if err := sh.restoreStateLocked(&pkt.State); err != nil {
		return fmt.Errorf("server: shard %d: %w", i, err)
	}
	for {
		cur := s.nextID.Load()
		if pkt.NextID <= cur || s.nextID.CompareAndSwap(cur, pkt.NextID) {
			break
		}
	}
	sh.owned = true
	return nil
}

// ShardOwned reports whether shard i is currently served here.
func (s *Server) ShardOwned(i int) bool {
	if err := s.validShard(i); err != nil {
		return false
	}
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.owned
}

// OwnedShards returns the per-shard ownership flags — the map a router
// reconciles its routing table against.
func (s *Server) OwnedShards() []bool {
	out := make([]bool, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = sh.owned
		sh.mu.Unlock()
	}
	return out
}

// ReadyState reports whether the server should receive new traffic and
// why not: "draining" once shutdown began, "migrating" while a shard
// transfer is in progress, else "ok". GET /readyz exposes it; the
// router's health loop keys off it.
func (s *Server) ReadyState() (state string, ready bool) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "draining", false
	}
	if s.migrating.Load() > 0 {
		return "migrating", false
	}
	return "ok", true
}

// unusedLocked reports whether the shard has never decided anything and
// holds no residency — the precondition for installing a packet over
// it. Callers hold s.mu.
func (s *shard) unusedLocked() bool {
	ca := s.sch.Cache()
	return s.books.Queries == 0 && s.errors == 0 && ca.Len() == 0 && ca.PendingCount() == 0
}

// resetLocked swaps in a fresh scheme instance and zeroes every counter
// and watermark, returning the shard to its just-built state (still
// disowned — installation is what grants ownership back). Callers hold
// s.mu and re-wire the journal sink via Server.wireJournal afterwards.
func (s *shard) resetLocked(fresh scheme.Scheme) {
	s.sch = fresh
	s.eco = economyOf(fresh)
	s.rng = uint64(shardSeed(s.srv.cfg.Seed, s.id))
	s.lastNow = 0
	s.books = sim.Books{}
	s.inline = 0
	s.errors = 0
	s.response = obs.NewResponseHistogram()
}

// wireJournal re-attaches shard i's economy event sink after a scheme
// swap, matching what New does at construction.
func (s *Server) wireJournal(i int, sch scheme.Scheme) {
	if es, ok := sch.(interface{ SetEvents(func(obs.Event)) }); ok {
		es.SetEvents(s.journals[i].Emit)
	}
}
