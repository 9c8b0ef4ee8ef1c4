package wire_test

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// newWireServerWithState is newWireServer with a snapshot path
// configured, so the admin checkpoint frame has somewhere to write.
func newWireServerWithState(t *testing.T, shards int, snapshotPath string) (*server.Server, string) {
	t.Helper()
	return newTestServer(t, shards, func(cfg *server.Config) { cfg.SnapshotPath = snapshotPath })
}

// TestWireSnapshotFrame: the admin frame checkpoints the live engine to
// the configured state path, shares the connection with query traffic,
// and the written file decodes to the engine's current state.
func TestWireSnapshotFrame(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "econ.snap")
	_, addr := newWireServerWithState(t, 2, statePath)
	cl := dialMux(t, addr)

	if _, err := cl.Submit(ctx, []wire.Query{
		{Tenant: "alice", Template: "Q6"},
		{Tenant: "bob", Template: "Q1"},
		{Tenant: "carol", Template: "Q3"},
	}); err != nil {
		t.Fatal(err)
	}

	path, size, err := cl.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if path != statePath || size <= 0 {
		t.Fatalf("Checkpoint() = %q, %d; want %q, >0", path, size, statePath)
	}
	snap, err := persist.Load(statePath)
	if err != nil {
		t.Fatalf("on-demand checkpoint does not decode: %v", err)
	}
	var q int64
	for _, sh := range snap.Shards {
		q += sh.Queries
	}
	if q != 3 {
		t.Errorf("checkpoint accounts %d queries, want 3", q)
	}

	// The connection still carries queries after the admin exchange.
	if _, err := cl.Submit(ctx, []wire.Query{{Tenant: "alice", Template: "Q6"}}); err != nil {
		t.Fatal(err)
	}
}

// TestWireSnapshotFrameUnconfigured: a daemon without a state path
// refuses the admin frame by tag and keeps the connection.
func TestWireSnapshotFrameUnconfigured(t *testing.T) {
	_, addr := newWireServer(t, 2)
	cl := dialMux(t, addr)

	_, _, err := cl.Checkpoint(ctx)
	var terr *wire.TaggedError
	if !errors.As(err, &terr) {
		t.Fatalf("checkpoint without a configured state path: err = %v, want a *TaggedError", err)
	}
	// The error is a reply, not a hangup: the connection still serves.
	if _, err := cl.Submit(ctx, []wire.Query{{Tenant: "alice", Template: "Q6"}}); err != nil {
		t.Fatalf("connection dead after checkpoint refusal: %v", err)
	}
}

// TestMuxCheckpointRefusalSparesInFlight is the regression test for the
// control-plane bug: a refused checkpoint used to be answered with an
// untagged error frame, which the client treats as fatal — failing
// every call in flight on the connection. Here a Submit is held inside
// its shard's decision while the checkpoint is refused; it must still
// complete.
func TestMuxCheckpointRefusalSparesInFlight(t *testing.T) {
	const shards = 2
	held := server.ShardIndexFor("alice", "Q1", shards)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, addr := newHookedServer(t, shards, func(shard int) {
		if shard == held {
			once.Do(func() { close(entered); <-release })
		}
	})
	cl := dialMux(t, addr)

	type result struct {
		replies []wire.Reply
		err     error
	}
	done := make(chan result, 1)
	go func() {
		replies, err := cl.Submit(ctx, []wire.Query{{Tenant: "alice", Template: "Q1"}})
		done <- result{replies, err}
	}()
	<-entered // the batch is inside the engine, undecided

	_, _, err := cl.Checkpoint(ctx)
	var terr *wire.TaggedError
	if !errors.As(err, &terr) {
		t.Errorf("refused checkpoint: err = %v, want a *TaggedError", err)
	}
	close(release)
	if res := <-done; res.err != nil || len(res.replies) != 1 || res.replies[0].Err != "" {
		t.Fatalf("in-flight submit disturbed by the refusal: %+v, %v", res.replies, res.err)
	}
}

// TestWireSnapshotReplyCodec round-trips the reply payload without a
// socket.
func TestWireSnapshotReplyCodec(t *testing.T) {
	payload := wire.AppendCheckpointReply(nil, 11, "/var/lib/ccd/econ.snap", 123456)
	tag, path, size, err := wire.DecodeCheckpointReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 11 || path != "/var/lib/ccd/econ.snap" || size != 123456 {
		t.Errorf("round trip = %d, %q, %d", tag, path, size)
	}
	if tag, err := wire.DecodeCheckpointRequest(wire.AppendCheckpointRequest(nil, 11)); err != nil || tag != 11 {
		t.Errorf("checkpoint request round trip = %d, %v", tag, err)
	}
	if _, _, _, err := wire.DecodeCheckpointReply([]byte{42}); err == nil {
		t.Error("bad checkpoint reply accepted")
	}
	if _, _, _, err := wire.DecodeCheckpointReply(payload[:3]); err == nil {
		t.Error("truncated checkpoint reply accepted")
	}
}
