package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// snapshotRoundTrip asserts that a decoded snapshot re-encodes to bytes
// that decode and re-encode to the same bytes. The round trip is
// compared as re-encoded BYTES, not values: a CRC-valid input can carry
// NaN floats, which decode fine but never compare equal to themselves.
func snapshotRoundTrip(t *testing.T, s *Snapshot) {
	t.Helper()
	enc := EncodeBytes(s)
	s2, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
	}
	if enc2 := EncodeBytes(s2); !bytes.Equal(enc, enc2) {
		t.Fatalf("snapshot round trip diverged:\n%x\n%x", enc, enc2)
	}
}

// packetRoundTrip is snapshotRoundTrip for a shard packet.
func packetRoundTrip(t *testing.T, p *ShardPacket) {
	t.Helper()
	enc := EncodeShardPacket(p)
	p2, err := DecodeShardPacket(enc)
	if err != nil {
		t.Fatalf("re-decode of re-encoded shard packet failed: %v", err)
	}
	if enc2 := EncodeShardPacket(p2); !bytes.Equal(enc, enc2) {
		t.Fatalf("shard packet round trip diverged:\n%x\n%x", enc, enc2)
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder. It
// must never panic and never allocate past a small multiple of the
// input — a corrupt or truncated state file must fail restore cleanly
// (the daemon logs it and boots fresh), not crash the boot or load
// partial state. Any input that does decode must survive an
// encode/decode round trip unchanged: decoding is a bijection between
// valid files and snapshots.
func FuzzSnapshotDecode(f *testing.F) {
	valid := EncodeBytes(sampleSnapshot())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte("CCSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Decode(data); err == nil {
			snapshotRoundTrip(t, s)
		}
	})
}

// FuzzShardPacketDecode covers the single-shard migration packet the
// same way: packets cross the wire between backends, so a truncated or
// bit-flipped transfer must fail installation cleanly, and any packet
// that decodes must re-encode to the same bytes.
func FuzzShardPacketDecode(f *testing.F) {
	snap := sampleSnapshot()
	for i := range snap.Shards {
		valid := EncodeShardPacket(&ShardPacket{Fingerprint: snap.Fingerprint, State: snap.Shards[i]})
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte("CCSHRD"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeShardPacket(data); err == nil {
			packetRoundTrip(t, p)
		}
	})
}

// frames splits a snapshot or shard-packet file into its header and its
// frame payloads (meta first), so the record fuzzer can seed itself from
// real records and build containers around hostile ones.
func frames(tb testing.TB, file []byte) (header []byte, payloads [][]byte) {
	tb.Helper()
	n := len(magic) + 2
	for rest := file[n:]; len(rest) > 0; {
		payload, r, err := nextFrame(rest)
		if err != nil {
			tb.Fatal(err)
		}
		payloads, rest = append(payloads, payload), r
	}
	return file[:n:n], payloads
}

// heapAllocs reads the process's cumulative heap allocation in bytes.
// ReadMemStats flushes every P's allocation cache first, so the figure
// is exact to the call (runtime/metrics is cheaper but credits small
// allocations a span at a time, which reads as phantom spikes here).
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// FuzzRecordDecode is the target that reaches the record decoders. The
// two file-level fuzzers above mutate whole files, so any mutation
// inside a frame dies at the frame's CRC and the layouts never see a
// hostile byte; here the fuzz bytes ARE one record payload, wrapped in a
// frame with a freshly computed CRC and placed where a shard record
// belongs — behind a valid header and meta frame of a one-shard
// snapshot, and again of a shard packet — and, for the two meta
// layouts, where the meta record belongs. Seeds are the records of
// sampleSnapshot and of the server's seven golden snapshots, plus their
// halves. Properties: never panics; allocates no more than a small
// multiple of the payload (a lying count must fail before it is
// believed); the two containers agree on which shard records are valid;
// and whatever decodes re-encodes to bytes that decode to the same bytes.
func FuzzRecordDecode(f *testing.F) {
	files := [][]byte{EncodeBytes(sampleSnapshot())}
	goldens, err := filepath.Glob("../server/testdata/*.golden.snap")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden snapshots to seed from (err %v)", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, data)
	}
	for _, file := range files {
		_, recs := frames(f, file)
		for _, rec := range recs {
			f.Add(rec)
			f.Add(rec[:len(rec)/2])
		}
	}
	pktHeader, pktRecs := frames(f, EncodeShardPacket(&ShardPacket{}))
	f.Add(pktRecs[0])

	// The containers a fuzzed record is dropped into: everything of a
	// valid one-shard snapshot, and of a valid packet, but that record.
	one := sampleSnapshot()
	one.Shards = one.Shards[:1]
	snapHeader, snapRecs := frames(f, EncodeBytes(one))
	snapHead := appendFrame(snapHeader, snapRecs[0])
	pktHead := appendFrame(pktHeader, pktRecs[0])
	pktShard := appendFrame(nil, pktRecs[1])

	f.Fuzz(func(t *testing.T, rec []byte) {
		frame := appendFrame(nil, rec)
		asShard := slices.Concat(snapHead, frame)
		asPacket := slices.Concat(pktHead, frame)
		asMeta := slices.Concat(snapHeader, frame)
		asShardMeta := slices.Concat(pktHeader, frame, pktShard)

		before := heapAllocs()
		s, serr := Decode(asShard)
		p, perr := DecodeShardPacket(asPacket)
		_, _ = Decode(asMeta)
		pm, pmerr := DecodeShardPacket(asShardMeta)
		// 64 KiB of slack absorbs what the test process itself allocates
		// meanwhile (error strings, the fuzz worker's own goroutines); a
		// believed count of a few thousand elements already exceeds it.
		if got, limit := heapAllocs()-before, uint64(64*len(rec)+64<<10); got > limit {
			t.Fatalf("decoding a %d-byte record allocated %d bytes (limit %d)", len(rec), got, limit)
		}

		// A snapshot additionally pins the record's index to its position.
		if (serr == nil) != (perr == nil && p.State.Index == 0) {
			t.Fatalf("containers disagree: snapshot err %v, packet err %v", serr, perr)
		}
		if serr == nil {
			snapshotRoundTrip(t, s)
		}
		if perr == nil {
			packetRoundTrip(t, p)
		}
		if pmerr == nil {
			packetRoundTrip(t, pm)
		}
	})
}
