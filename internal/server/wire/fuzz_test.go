package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/server"
)

// unhex decodes a captured frame.
func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fuzzSeeds returns valid payloads for every frame type, so the fuzzer
// starts from deep inside the grammar instead of rediscovering it.
func fuzzSeeds(t testing.TB) [][]byte {
	sel := 0.0096
	queries := []Query{
		{Tenant: "alice", Template: "Q6", Selectivity: sel, HasSelectivity: true},
		{Template: "Q1", Budget: &server.BudgetJSON{Shape: "linear", PriceUSD: 0.01, TmaxSec: 60, K: 2}},
		{Tenant: "bob", Template: "Q3"},
	}
	tqb, err := AppendTaggedQueryBatch(nil, 42, queries)
	if err != nil {
		t.Fatal(err)
	}
	trb := AppendTaggedReplyBatch(nil, 42, []Reply{
		{Resp: server.Response{QueryID: 9, Shard: 1, Template: "Q3", Location: "backend"}},
		{Err: "server: closed"},
	})
	sp, err := appendJSONPush(nil, msgStatsPush, 5, server.Stats{Scheme: "econ-cheap", Shards: 4, Queries: 10})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := appendJSONPush(nil, msgTracePush, 6, server.TraceView{SampleEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := appendJSONPush(nil, msgEventsPush, 7, server.EventsView{})
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		// Frames of the retired lockstep generation (message types 1, 2,
		// 4–7), as its encoders last wrote them: what a legacy client
		// still sends. No decoder may accept one, let alone choke on it.
		unhex(t, "010305616c69636502513601613255302aa9833f0002513102017b14ae47e17a843f0000000000004e40000000000000004003626f6202513300"),
		unhex(t, "0202000e02025136613255302aa9833f000000000000f83f00056361636865000000000000d03ffca9f1d24d62603f000000000000000000000116756e6b6e6f776e2074656d706c617465202251393922"),
		append([]byte{5}, sp[2:]...), // stats reply: type byte, then the JSON
		{4},                          // stats request
		{6},                          // snapshot request
		unhex(t, "07142f746d702f73746174652f65636f6e2e736e6170c0c407"),
		appendErrorPayload(nil, "server: closed"),
		// Hello, tagged batches and the stats stream.
		AppendHello(nil, ProtocolV2),
		tqb,
		trb,
		AppendTaggedError(nil, 42, "wire: batch refused"),
		AppendStatsSubscribe(nil, 5, 0.25),
		appendTag(nil, msgStatsUnsubscribe, 5),
		sp,
		// Observability frames: trace and events.
		AppendTraceRequest(nil, 6, "alice", "Q6", 128),
		tp,
		AppendEventsRequest(nil, 7, "invest", "alice", 64),
		ep,
		// The retired events subscription (types 19 and 20), as its
		// encoders last wrote them: a tag, then a cadence.
		unhex(t, "1307000000000000e03f"),
		unhex(t, "1407"),
		// Shard checkpoint-transfer admin frames. The packet bytes are an
		// arbitrary opaque blob at this layer (persist validates them), so
		// the seeds carry a stand-in.
		AppendShardFreeze(nil, 8, 3),
		AppendShardExtract(nil, 8, 3),
		AppendShardState(nil, 8, 3, []byte("CCSHRD-packet-stand-in")),
		AppendShardInstall(nil, 8, 3, []byte("CCSHRD-packet-stand-in")),
		AppendShardAck(nil, 8, 3),
		AppendOwnersRequest(nil, 9),
		AppendOwnersReply(nil, 9, []bool{true, false, true, true}),
		AppendCheckpointRequest(nil, 10),
		AppendCheckpointReply(nil, 10, "/tmp/state/econ.snap", 123456),
	}
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzWireDecode feeds arbitrary bytes to every payload decoder and the
// frame reader. The decoders must never panic — a malicious or corrupt
// client frame must never take the daemon down — and anything that does
// decode must survive an encode/decode round trip unchanged. A reply
// batch presizes its slice from the count it carries, so that decode must
// also allocate within a small multiple of the payload: a hostile count
// must not buy more than its own frame holds.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Truncations of valid payloads probe every mid-field error path.
		if len(seed) > 2 {
			f.Add(seed[:len(seed)/2])
		}
	}
	// A reply batch whose count its payload cannot hold.
	f.Add(binary.AppendUvarint(appendTag(nil, msgTaggedReplyBatch, 1), MaxBatch))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trips are compared as re-encoded BYTES, not values:
		// arbitrary inputs can carry NaN floats, which decode fine but
		// never compare equal to themselves.
		_, _ = DecodeHello(data)
		_, _ = DecodeError(data)
		if tag, qs, err := DecodeTaggedQueryBatch(data, nil); err == nil {
			enc, err := AppendTaggedQueryBatch(nil, tag, qs)
			if err == nil {
				tag2, qs2, err := DecodeTaggedQueryBatch(enc, nil)
				if err != nil || tag2 != tag {
					t.Fatalf("tagged query batch re-decode: tag %d→%d, err %v", tag, tag2, err)
				}
				enc2, err := AppendTaggedQueryBatch(nil, tag2, qs2)
				if err != nil || !bytes.Equal(enc, enc2) {
					t.Fatalf("tagged query batch round trip diverged (%v):\n%x\n%x", err, enc, enc2)
				}
			}
		}
		isReplyBatch := len(data) > 0 && data[0] == msgTaggedReplyBatch
		var before uint64
		if isReplyBatch { // the memory reads stop the world: only where they tell
			before = heapAllocs()
		}
		tag, rs, err := DecodeTaggedReplyBatch(data, nil)
		// A reply takes at least two payload bytes and decodes into one
		// Reply plus at most its own bytes of strings; 64 KiB of slack
		// absorbs the error text and the fuzz worker's own goroutines.
		if limit := uint64(len(data)/2)*uint64(unsafe.Sizeof(Reply{})) + uint64(len(data)) + 64<<10; isReplyBatch && heapAllocs()-before > limit {
			t.Fatalf("decoding a %d-byte reply batch allocated %d bytes (limit %d)", len(data), heapAllocs()-before, limit)
		}
		if err == nil && len(rs) != 0 {
			enc := AppendTaggedReplyBatch(nil, tag, rs)
			tag2, rs2, err := DecodeTaggedReplyBatch(enc, nil)
			if err != nil || tag2 != tag {
				t.Fatalf("tagged reply batch re-decode: tag %d→%d, err %v", tag, tag2, err)
			}
			if enc2 := AppendTaggedReplyBatch(nil, tag2, rs2); !bytes.Equal(enc, enc2) {
				t.Fatalf("tagged reply batch round trip diverged:\n%x\n%x", enc, enc2)
			}
		}
		if tag, msg, err := DecodeTaggedError(data); err == nil {
			enc := AppendTaggedError(nil, tag, msg)
			if tag2, msg2, err := DecodeTaggedError(enc); err != nil || tag2 != tag || msg2 != msg {
				t.Fatalf("tagged error round trip: (%d,%q)→(%d,%q), err %v", tag, msg, tag2, msg2, err)
			}
		}
		if tag, interval, err := DecodeStatsSubscribe(data); err == nil {
			enc := AppendStatsSubscribe(nil, tag, interval)
			if tag2, _, err := DecodeStatsSubscribe(enc); err != nil || tag2 != tag {
				// interval is compared as bytes, not values: NaN survives
				// the trip but never equals itself.
				t.Fatalf("stats subscribe round trip: tag %d→%d, err %v", tag, tag2, err)
			}
			if !bytes.Equal(enc, AppendStatsSubscribe(nil, tag, interval)) {
				t.Fatal("stats subscribe encoding unstable")
			}
		}
		if tag, err := decodeTagOnly(data, msgStatsUnsubscribe); err == nil {
			enc := appendTag(nil, msgStatsUnsubscribe, tag)
			if tag2, err := decodeTagOnly(enc, msgStatsUnsubscribe); err != nil || tag2 != tag {
				t.Fatalf("stats unsubscribe round trip: tag %d→%d, err %v", tag, tag2, err)
			}
		}
		var st server.Stats
		_, _ = decodeJSONPush(data, msgStatsPush, &st)

		// Observability decoders: same contract.
		if tag, tenant, template, n, err := DecodeTraceRequest(data); err == nil {
			enc := AppendTraceRequest(nil, tag, tenant, template, n)
			tag2, tenant2, template2, n2, err := DecodeTraceRequest(enc)
			if err != nil || tag2 != tag || tenant2 != tenant || template2 != template || n2 != n {
				t.Fatalf("trace request round trip diverged: err %v", err)
			}
		}
		if tag, typ, tenant, n, err := DecodeEventsRequest(data); err == nil {
			enc := AppendEventsRequest(nil, tag, typ, tenant, n)
			tag2, typ2, tenant2, n2, err := DecodeEventsRequest(enc)
			if err != nil || tag2 != tag || typ2 != typ || tenant2 != tenant || n2 != n {
				t.Fatalf("events request round trip diverged: err %v", err)
			}
		}
		var tv server.TraceView
		_, _ = decodeJSONPush(data, msgTracePush, &tv)
		var ev server.EventsView
		_, _ = decodeJSONPush(data, msgEventsPush, &ev)

		// Shard-admin decoders: same never-panic, byte-stable-round-trip
		// contract as every other frame.
		if tag, shard, err := DecodeShardFreeze(data); err == nil {
			enc := AppendShardFreeze(nil, tag, shard)
			if tag2, shard2, err := DecodeShardFreeze(enc); err != nil || tag2 != tag || shard2 != shard {
				t.Fatalf("shard freeze round trip: (%d,%d)→(%d,%d), err %v", tag, shard, tag2, shard2, err)
			}
		}
		if tag, shard, err := DecodeShardExtract(data); err == nil {
			enc := AppendShardExtract(nil, tag, shard)
			if tag2, shard2, err := DecodeShardExtract(enc); err != nil || tag2 != tag || shard2 != shard {
				t.Fatalf("shard extract round trip: (%d,%d)→(%d,%d), err %v", tag, shard, tag2, shard2, err)
			}
		}
		if tag, shard, err := DecodeShardAck(data); err == nil {
			enc := AppendShardAck(nil, tag, shard)
			if tag2, shard2, err := DecodeShardAck(enc); err != nil || tag2 != tag || shard2 != shard {
				t.Fatalf("shard ack round trip: (%d,%d)→(%d,%d), err %v", tag, shard, tag2, shard2, err)
			}
		}
		if tag, shard, packet, err := DecodeShardState(data); err == nil {
			enc := AppendShardState(nil, tag, shard, packet)
			tag2, shard2, packet2, err := DecodeShardState(enc)
			if err != nil || tag2 != tag || shard2 != shard || !bytes.Equal(packet, packet2) {
				t.Fatalf("shard state round trip diverged: err %v", err)
			}
		}
		if tag, shard, packet, err := DecodeShardInstall(data); err == nil {
			enc := AppendShardInstall(nil, tag, shard, packet)
			tag2, shard2, packet2, err := DecodeShardInstall(enc)
			if err != nil || tag2 != tag || shard2 != shard || !bytes.Equal(packet, packet2) {
				t.Fatalf("shard install round trip diverged: err %v", err)
			}
		}
		if tag, err := DecodeOwnersRequest(data); err == nil {
			enc := AppendOwnersRequest(nil, tag)
			if tag2, err := DecodeOwnersRequest(enc); err != nil || tag2 != tag {
				t.Fatalf("owners request round trip: tag %d→%d, err %v", tag, tag2, err)
			}
		}
		if tag, err := DecodeCheckpointRequest(data); err == nil {
			enc := AppendCheckpointRequest(nil, tag)
			if tag2, err := DecodeCheckpointRequest(enc); err != nil || tag2 != tag {
				t.Fatalf("checkpoint request round trip: tag %d→%d, err %v", tag, tag2, err)
			}
		}
		if tag, path, size, err := DecodeCheckpointReply(data); err == nil {
			enc := AppendCheckpointReply(nil, tag, path, size)
			tag2, path2, size2, err := DecodeCheckpointReply(enc)
			if err != nil || tag2 != tag || path2 != path || size2 != size {
				t.Fatalf("checkpoint reply round trip: (%d,%q,%d)→(%d,%q,%d), err %v", tag, path, size, tag2, path2, size2, err)
			}
		}
		if tag, owned, err := DecodeOwnersReply(data); err == nil {
			enc := AppendOwnersReply(nil, tag, owned)
			tag2, owned2, err := DecodeOwnersReply(enc)
			if err != nil || tag2 != tag || len(owned2) != len(owned) {
				t.Fatalf("owners reply round trip diverged: err %v", err)
			}
			if enc2 := AppendOwnersReply(nil, tag2, owned2); !bytes.Equal(enc, enc2) {
				t.Fatal("owners reply encoding unstable")
			}
		}

		_, _ = ReadFrame(bytes.NewReader(data), nil)
	})
}
