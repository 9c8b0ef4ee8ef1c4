package server

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/structure"
)

// Durable state: Snapshot captures every shard's economy, cache,
// counters and RNG into a persist.Snapshot; Config.Restore adopts one
// before the shard loops start, so a restarted daemon resumes the exact
// accounts, regret ledgers and resident structures it drained with. The
// graceful-drain path writes the snapshot after the loops exit but
// BEFORE tail-rent finalization: the tail window (Books.EndOfRun) is persisted
// and the restored server charges it at its own eventual drain, so a
// drain-restore-drain sequence accounts rent exactly once — the
// restart-parity test pins this byte for byte.

// yieldScheme is implemented by schemes whose only extra state is a
// yield accumulator (the bypass baseline).
type yieldScheme interface {
	YieldSnapshot() map[structure.ID]int64
	RestoreYield(map[structure.ID]int64)
}

// Snapshot captures the engine's durable state. Safe to call on a live
// server: each shard is captured under its own lock (decisions already
// in flight land in the next checkpoint). On a drained server it is the
// complete final state.
func (s *Server) Snapshot() *persist.Snapshot {
	snap := &persist.Snapshot{Fingerprint: s.fingerprint()}
	for _, sh := range s.shards {
		snap.Shards = append(snap.Shards, sh.captureState())
	}
	return snap
}

// fingerprint stamps a capture — whole-engine snapshot or single-shard
// packet — with the configuration it was taken under.
func (s *Server) fingerprint() persist.Fingerprint {
	return persist.Fingerprint{
		Scheme:          s.cfg.Scheme,
		Provider:        s.cfg.Params.Provider.String(),
		CatalogBytes:    s.catalog.TotalBytes(),
		NextID:          s.nextID.Load(),
		Clock:           s.clock.Now(),
		CreatedUnixNano: time.Now().UnixNano(),
	}
}

// checkFingerprint refuses state (what: "snapshot" or "packet") captured
// under another configuration: it must never silently cross a
// reconfiguration.
func (s *Server) checkFingerprint(what string, f *persist.Fingerprint) error {
	if f.Scheme != s.cfg.Scheme {
		return fmt.Errorf("server: %s scheme %q != configured %q", what, f.Scheme, s.cfg.Scheme)
	}
	if want := s.cfg.Params.Provider.String(); f.Provider != want {
		return fmt.Errorf("server: %s provider %q != configured %q", what, f.Provider, want)
	}
	if got := s.catalog.TotalBytes(); f.CatalogBytes != got {
		return fmt.Errorf("server: %s catalog (%d bytes) != configured catalog (%d bytes)", what, f.CatalogBytes, got)
	}
	if f.NextID < 0 {
		return fmt.Errorf("server: %s query counter %d is negative", what, f.NextID)
	}
	return nil
}

// Checkpoint writes the current state to Config.SnapshotPath and returns
// the path and encoded size. It fails when no snapshot path is
// configured or the server is already draining (the drain itself writes
// the authoritative final snapshot). The draining check holds snapMu
// through the write, so a checkpoint that races Shutdown can never
// capture a half-drained state, or rename an earlier capture over the
// drain's final snapshot: writes are strictly serialized and the drain's
// is last.
func (s *Server) Checkpoint() (string, int64, error) {
	if s.cfg.SnapshotPath == "" {
		return "", 0, fmt.Errorf("server: no snapshot path configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return "", 0, fmt.Errorf("server: draining; the drain writes the final snapshot")
	}
	n, err := s.writeSnapshotLocked()
	return s.cfg.SnapshotPath, n, err
}

// writeSnapshot captures and atomically persists the state.
func (s *Server) writeSnapshot() (int64, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.writeSnapshotLocked()
}

// writeSnapshotLocked does the capture and write. Callers hold snapMu.
func (s *Server) writeSnapshotLocked() (int64, error) {
	return persist.Write(s.cfg.SnapshotPath, s.Snapshot())
}

// runCheckpointer writes periodic checkpoints until stopped.
func (s *Server) runCheckpointer(every time.Duration) {
	defer close(s.ckptDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.writeSnapshot(); err != nil {
				slog.Error("server: checkpoint failed", "path", s.cfg.SnapshotPath, "err", err)
			}
		case <-s.ckptStop:
			return
		}
	}
}

// restore adopts a snapshot into freshly built shards. Called by New
// before the shard loops start, so no locking races are possible. Any
// mismatch between the snapshot and the live configuration fails the
// whole restore: state must never silently cross a reconfiguration.
func (s *Server) restore(snap *persist.Snapshot) error {
	if err := s.checkFingerprint("snapshot", &snap.Fingerprint); err != nil {
		return err
	}
	if len(snap.Shards) != len(s.shards) {
		return fmt.Errorf("server: snapshot has %d shards, configured %d", len(snap.Shards), len(s.shards))
	}
	for i := range snap.Shards {
		if err := s.shards[i].restoreState(&snap.Shards[i]); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	s.nextID.Store(snap.NextID)
	return nil
}

// captureState exports one shard's durable state under its lock.
func (s *shard) captureState() persist.ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captureStateLocked()
}

// captureStateLocked does the export. Callers hold s.mu.
func (s *shard) captureStateLocked() persist.ShardState {
	st := persist.ShardState{
		Index:       s.id,
		LastNow:     s.lastNow,
		Books:       s.books,
		Errors:      s.errors,
		RNG:         s.rng,
		ResponseSum: s.response.Sum(),
		Cache:       s.sch.Cache().Snapshot(),
	}
	copy(st.ResponseCounts[:], s.response.Counts())
	if s.eco != nil {
		st.Economy = s.eco.Snapshot()
	}
	if ys, ok := s.sch.(yieldScheme); ok {
		yield := ys.YieldSnapshot()
		ids := make([]structure.ID, 0, len(yield))
		for id := range yield {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			st.Yield = append(st.Yield, persist.YieldState{ID: id, Bytes: yield[id]})
		}
	}
	return st
}

// restoreState adopts one shard's state. The shard must be fresh: its
// loop not yet started, or live but unused (shard installation locks it
// and checks with unusedLocked first).
func (s *shard) restoreState(st *persist.ShardState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoreStateLocked(st)
}

// restoreStateLocked does the adoption. Callers hold s.mu.
func (s *shard) restoreStateLocked(st *persist.ShardState) error {
	resolve := func(id structure.ID) (*structure.Structure, error) {
		return economy.ResolveID(s.srv.catalog, id)
	}
	if err := s.sch.Cache().Restore(st.Cache, resolve); err != nil {
		return err
	}
	if (st.Economy != nil) != (s.eco != nil) {
		return fmt.Errorf("snapshot economy state does not match scheme %q", s.sch.Name())
	}
	if s.eco != nil {
		if err := s.eco.Restore(st.Economy); err != nil {
			return err
		}
	}
	if len(st.Yield) > 0 {
		ys, ok := s.sch.(yieldScheme)
		if !ok {
			return fmt.Errorf("snapshot carries yield state but scheme %q keeps none", s.sch.Name())
		}
		yield := make(map[structure.ID]int64, len(st.Yield))
		for _, y := range st.Yield {
			yield[y.ID] = y.Bytes
		}
		ys.RestoreYield(yield)
	}
	s.lastNow = st.LastNow
	s.books = st.Books
	s.errors = st.Errors
	s.rng = st.RNG
	s.response = obs.NewResponseHistogram()
	s.response.Add(st.ResponseCounts[:], st.ResponseSum)
	return nil
}
