package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/scheme"
	"repro/internal/server"
)

func TestQueryBatchRoundTrip(t *testing.T) {
	sel := 0.0096
	in := []Query{
		{Tenant: "alice", Template: "Q6", Selectivity: sel, HasSelectivity: true,
			Budget: &server.BudgetJSON{Shape: "step", PriceUSD: 0.002, TmaxSec: 3600}},
		{Template: "Q1"}, // no tenant, no selectivity, no budget
		{Tenant: "bob", Template: "Q18", Selectivity: 0, HasSelectivity: true,
			Budget: &server.BudgetJSON{Shape: "concave", PriceUSD: 1.5, TmaxSec: 60, K: 3}},
	}
	payload, err := AppendTaggedQueryBatch(nil, 300, in)
	if err != nil {
		t.Fatal(err)
	}
	tag, out, err := DecodeTaggedQueryBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 300 || !reflect.DeepEqual(in, out) {
		t.Errorf("round trip diverged:\nin  %+v\nout %+v", in, out)
	}
	// An explicit zero selectivity survives the trip.
	if !out[2].HasSelectivity || out[2].Selectivity != 0 {
		t.Errorf("explicit zero selectivity lost: %+v", out[2])
	}
}

// TestNonZeroSelectivityWithoutFlag: per server.Request's contract a
// non-zero selectivity is explicit even without HasSelectivity, so the
// codec must carry it (normalized to the flagged form), not drop it.
func TestNonZeroSelectivityWithoutFlag(t *testing.T) {
	payload, err := AppendTaggedQueryBatch(nil, 1, []Query{{Template: "Q6", Selectivity: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeTaggedQueryBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].HasSelectivity || out[0].Selectivity != 0.5 {
		t.Errorf("unflagged non-zero selectivity lost: %+v", out[0])
	}
}

func TestReplyBatchRoundTrip(t *testing.T) {
	in := []Reply{
		{Resp: server.Response{
			QueryID: 42, Shard: 3, Template: "Q6", Selectivity: 0.004,
			ArrivalSec: 12.5, Declined: false, Location: "cache",
			ResponseTimeSec: 0.25, ChargedUSD: 0.002, ProfitUSD: 0.0005,
			Investments: 2, Failures: 1,
		}},
		{Err: "server: unknown template \"Q999\""},
		{Resp: server.Response{QueryID: 43, Declined: true, Location: "none"}},
	}
	payload := AppendTaggedReplyBatch(nil, 300, in)
	tag, out, err := DecodeTaggedReplyBatch(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 300 || !reflect.DeepEqual(in, out) {
		t.Errorf("round trip diverged:\nin  %+v\nout %+v", in, out)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good, err := AppendTaggedQueryBatch(nil, 7, []Query{{Template: "Q1"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"wrong type":     {99, 7, 1},
		"retired type":   {1, 1, 0, 2, 'Q', '1', 0}, // a lockstep query batch
		"no tag":         {msgTaggedQueryBatch},
		"truncated":      good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0xFF),
		"zero batch":     {msgTaggedQueryBatch, 7, 0},
		"oversize":       {msgTaggedQueryBatch, 7, 0xFF, 0xFF, 0xFF, 0x7F},
		"bad shape":      {msgTaggedQueryBatch, 7, 1, 0, 2, 'Q', '1', flagBudget, 9},
		"string overrun": {msgTaggedQueryBatch, 7, 1, 200},
	}
	for name, payload := range cases {
		if _, _, err := DecodeTaggedQueryBatch(payload, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, _, err := DecodeTaggedReplyBatch([]byte{}, nil); err == nil {
		t.Error("empty reply payload decoded")
	}
	if _, _, err := DecodeTaggedReplyBatch([]byte{msgTaggedReplyBatch, 7, 1, 7}, nil); err == nil {
		t.Error("bad reply status decoded")
	}
}

func TestErrorPayload(t *testing.T) {
	payload := appendErrorPayload(nil, "server: closed")
	if msg, err := DecodeError(payload); err != nil || msg != "server: closed" {
		t.Errorf("error payload decoded to (%q, %v)", msg, err)
	}
	if _, err := DecodeError(AppendHello(nil, ProtocolV2)); err == nil {
		t.Error("hello decoded as an error payload")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, bytes.Repeat([]byte{0xAB}, 1000), {3, 2, 1}}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var reuse []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, reuse)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %v, want %v", got, want)
		}
		reuse = got[:0]
	}
	if _, err := ReadFrame(&buf, nil); err == nil {
		t.Error("read past last frame succeeded")
	}

	// Corrupt length prefixes are rejected, not allocated.
	if _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0}), nil); err == nil {
		t.Error("oversized frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil); err == nil {
		t.Error("empty frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{5, 0, 0, 0, 1, 2}), nil); err == nil {
		t.Error("truncated frame accepted")
	}
}

// TestAdminDecodeOnlyValidation: the checks that make sense only on
// decode — a value the encoder can never write — reject exactly like a
// truncation does, on frames that are otherwise well-formed.
func TestAdminDecodeOnlyValidation(t *testing.T) {
	over := binary.AppendUvarint(nil, maxOwners+1)
	cases := map[string]func() error{
		"owners bool 2": func() error {
			_, _, err := DecodeOwnersReply([]byte{msgOwnersReply, 9, 2, 1, 2})
			return err
		},
		"owners count over the cap": func() error {
			_, _, err := DecodeOwnersReply(append([]byte{msgOwnersReply, 9}, over...))
			return err
		},
		"shard index over the cap": func() error {
			_, _, err := DecodeShardFreeze(append([]byte{msgShardFreeze, 9}, over...))
			return err
		},
		"packet frame with a shard index over the cap": func() error {
			_, _, _, err := DecodeShardInstall(append(append([]byte{msgShardInstall, 9}, over...), "packet"...))
			return err
		},
		"checkpoint size over MaxInt64": func() error {
			p := binary.AppendUvarint(appendString([]byte{msgCheckpointReply, 9}, "/s"), 1<<63)
			_, _, _, err := DecodeCheckpointReply(p)
			return err
		},
	}
	for name, decode := range cases {
		if decode() == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The same frames with in-range values decode.
	if _, owned, err := DecodeOwnersReply([]byte{msgOwnersReply, 9, 2, 1, 0}); err != nil || len(owned) != 2 || !owned[0] || owned[1] {
		t.Errorf("valid owners reply: %v %v", owned, err)
	}
	if _, _, size, err := DecodeCheckpointReply(binary.AppendUvarint(appendString([]byte{msgCheckpointReply, 9}, "/s"), 1<<62)); err != nil || size != 1<<62 {
		t.Errorf("valid checkpoint reply: %d %v", size, err)
	}
}

func TestBatchSizeLimits(t *testing.T) {
	if _, err := AppendTaggedQueryBatch(nil, 1, nil); err == nil {
		t.Error("empty batch encoded")
	}
	big := make([]Query, MaxBatch+1)
	for i := range big {
		big[i].Template = "Q1"
	}
	if _, err := AppendTaggedQueryBatch(nil, 1, big); err == nil {
		t.Error("oversized batch encoded")
	}
}

// TestWireStatsCodec round-trips the payload without a socket.
func TestWireStatsCodec(t *testing.T) {
	in := server.Stats{
		Scheme:   "econ-cheap",
		Provider: "selfish",
		Shards:   2,
		Queries:  7,
		Tenants: []server.TenantStats{
			{Tenant: "a", Queries: 4, CreditUSD: 1.5},
			{Tenant: "b", Queries: 3, SpendUSD: 0.25},
		},
	}
	payload, err := appendJSONPush(nil, msgStatsPush, 9, in)
	if err != nil {
		t.Fatal(err)
	}
	var out server.Stats
	tag, err := decodeJSONPush(payload, msgStatsPush, &out)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 9 || !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed stats (tag %d):\nin  %+v\nout %+v", tag, in, out)
	}
	if _, err := decodeJSONPush([]byte{9, 9}, msgStatsPush, &out); err == nil {
		t.Error("bad stats payload accepted")
	}
}

// TestFrameBytesPinned holds every frame of message types 8–27 but the
// reserved 19 and 20 to the bytes its encoder wrote before the codecs were folded onto shared
// helpers (captured at the commit that retired the lockstep
// generation): each encoder must still produce exactly these bytes, and
// each decoder must read them back to the values that made them.
func TestFrameBytesPinned(t *testing.T) {
	queries := []Query{
		{Tenant: "alice", Template: "Q6", Selectivity: 0.0096, HasSelectivity: true,
			Budget: &server.BudgetJSON{Shape: "convex", PriceUSD: 0.002, TmaxSec: 3600, K: 2}},
		{Template: "Q1"},
	}
	replies := []Reply{
		{Resp: server.Response{QueryID: 42, Shard: 3, Template: "Q6", Selectivity: 0.004,
			ArrivalSec: 12.5, Location: "cache", ResponseTimeSec: 0.25, ChargedUSD: 0.002,
			ProfitUSD: 0.0005, Investments: 2, Failures: 1}},
		{Err: "server: unknown template \"Q999\""},
	}
	stats := server.Stats{Scheme: "econ-cheap", Provider: "selfish", Shards: 2, Queries: 7,
		Tenants: []server.TenantStats{{Tenant: "a", Queries: 4, CreditUSD: 1.5}}}
	traces := server.TraceView{SampleEvery: 64, Records: []obs.Record{
		{QueryID: 9, Tenant: "alice", Template: "Q6", DecideNanos: 1200}}}
	events := server.EventsView{Events: []obs.Event{
		{Seq: 3, Type: "invest", Tenant: "alice", Structure: "idx(lineitem.l_shipdate)", Reason: "regret"}}}
	packet := []byte("CCSHRD-packet-stand-in")
	owned := []bool{true, false, true, true}

	// must unwraps the encoders that can fail.
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// same compares decoded values; the decoders' error is folded in.
	same := func(got, want any, err error) error {
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("decoded %+v, want %+v", got, want)
		}
		return err
	}
	type tagShard struct {
		tag   uint64
		shard int
	}
	cases := []struct {
		typ     byte
		encoded []byte
		pinned  string
		decode  func(payload []byte) error
	}{
		{msgHello, AppendHello(nil, ProtocolV2), "0802", func(p []byte) error {
			v, err := DecodeHello(p)
			return same(v, uint64(ProtocolV2), err)
		}},
		{msgTaggedQueryBatch, must(AppendTaggedQueryBatch(nil, 300, queries)),
			"09ac020205616c69636502513603613255302aa9833f02fca9f1d24d62603f000000000020ac40000000000000004000" +
				"02513100", func(p []byte) error {
				tag, qs, err := DecodeTaggedQueryBatch(p, nil)
				return same([]any{tag, qs}, []any{uint64(300), queries}, err)
			}},
		{msgTaggedReplyBatch, AppendTaggedReplyBatch(nil, 300, replies),
			"0aac0202005403025136fca9f1d24d62703f000000000000294000056361636865000000000000d03ffca9f1d24d6260" +
				"3ffca9f1d24d62403f0201011f7365727665723a20756e6b6e6f776e2074656d706c61746520225139393922", func(p []byte) error {
				tag, rs, err := DecodeTaggedReplyBatch(p, nil)
				return same([]any{tag, rs}, []any{uint64(300), replies}, err)
			}},
		{msgTaggedError, AppendTaggedError(nil, 300, "wire: batch refused"), "0bac0213776972653a2062617463682072656675736564", func(p []byte) error {
			tag, msg, err := DecodeTaggedError(p)
			return same([]any{tag, msg}, []any{uint64(300), "wire: batch refused"}, err)
		}},
		{msgStatsSubscribe, AppendStatsSubscribe(nil, 5, 0.25), "0c05000000000000d03f", func(p []byte) error {
			tag, iv, err := DecodeStatsSubscribe(p)
			return same([]any{tag, iv}, []any{uint64(5), 0.25}, err)
		}},
		{msgStatsUnsubscribe, appendTag(nil, msgStatsUnsubscribe, 5), "0d05", func(p []byte) error {
			tag, err := decodeTagOnly(p, msgStatsUnsubscribe)
			return same(tag, uint64(5), err)
		}},
		{msgStatsPush, must(appendJSONPush(nil, msgStatsPush, 5, stats)),
			"0e057b22736368656d65223a2265636f6e2d6368656170222c2270726f7669646572223a2273656c66697368222c2273" +
				"6861726473223a322c22636c6f636b5f73223a302c22647261696e696e67223a66616c73652c2271756572696573223a" +
				"372c226465636c696e6564223a302c2263616368655f616e737765726564223a302c22696e766573746d656e7473223a" +
				"302c226661696c75726573223a302c226572726f7273223a302c22726573706f6e73655f6d65616e5f73223a302c2272" +
				"6573706f6e73655f7035305f73223a302c22726573706f6e73655f7039355f73223a302c22726573706f6e73655f7039" +
				"395f73223a302c22657865635f636f73745f757364223a302c226275696c645f636f73745f757364223a302c2273746f" +
				"726167655f636f73745f757364223a302c226e6f64655f636f73745f757364223a302c226f7065726174696e675f636f" +
				"73745f757364223a302c22726576656e75655f757364223a302c2270726f6669745f757364223a302c22726573696465" +
				"6e745f6279746573223a302c226372656469745f757364223a302c2274656e616e7473223a5b7b2274656e616e74223a" +
				"2261222c2271756572696573223a342c226465636c696e6564223a302c2263616368655f616e737765726564223a302c" +
				"226869745f72617465223a302c226372656469745f757364223a312e352c227370656e645f757364223a302c2270726f" +
				"6669745f757364223a302c227265677265745f757364223a302c22696e7665737465645f757364223a302c227265636f" +
				"76657265645f757364223a302c22737472756374757265735f63686172676564223a302c226c65646765725f73697a65" +
				"223a307d5d2c227065725f7368617264223a6e756c6c7d", func(p []byte) error {
				var st server.Stats
				tag, err := decodeJSONPush(p, msgStatsPush, &st)
				return same([]any{tag, st}, []any{uint64(5), stats}, err)
			}},
		{msgTraceRequest, AppendTraceRequest(nil, 6, "alice", "Q6", 128), "0f0605616c6963650251368001", func(p []byte) error {
			tag, tenant, template, n, err := DecodeTraceRequest(p)
			return same([]any{tag, tenant, template, n}, []any{uint64(6), "alice", "Q6", uint64(128)}, err)
		}},
		{msgTracePush, must(appendJSONPush(nil, msgTracePush, 6, traces)),
			"10067b2273616d706c655f6576657279223a36342c227265636f726473223a5b7b22736571223a302c2271756572795f" +
				"6964223a392c227368617264223a302c2274656e616e74223a22616c696365222c2274656d706c617465223a22513622" +
				"2c2273656c6563746976697479223a302c226172726976616c5f73223a302c226465636c696e6564223a66616c73652c" +
				"2263616368655f686974223a66616c73652c22726573706f6e73655f74696d655f73223a302c22636861726765645f75" +
				"7364223a302c2270726f6669745f757364223a302c227265677265745f64656c74615f757364223a302c22696e766573" +
				"745f636f6e73696465726564223a302c22696e766573745f74616b656e223a302c226661696c757265735f7377657074" +
				"223a302c226465636f64655f6e73223a302c226d61696c626f785f776169745f6e73223a302c226465636964655f6e73" +
				"223a313230302c22656e636f64655f6e73223a302c2277616c6c5f6e73223a307d5d7d", func(p []byte) error {
				var view server.TraceView
				tag, err := decodeJSONPush(p, msgTracePush, &view)
				return same([]any{tag, view}, []any{uint64(6), traces}, err)
			}},
		{msgEventsRequest, AppendEventsRequest(nil, 7, "invest", "alice", 64), "110706696e7665737405616c69636540", func(p []byte) error {
			tag, typ, tenant, n, err := DecodeEventsRequest(p)
			return same([]any{tag, typ, tenant, n}, []any{uint64(7), "invest", "alice", uint64(64)}, err)
		}},
		{msgEventsPush, must(appendJSONPush(nil, msgEventsPush, 7, events)),
			"12077b22746f74616c73223a7b22696e7665737473223a302c22657669637473223a302c227265636f76657273223a30" +
				"2c22696e7665737465645f757364223a302c22657669637465645f757364223a302c227265636f76657265645f757364" +
				"223a307d2c226576656e7473223a5b7b22736571223a332c22636c6f636b5f73223a302c227368617264223a302c2274" +
				"797065223a22696e76657374222c2274656e616e74223a22616c696365222c22737472756374757265223a2269647828" +
				"6c696e656974656d2e6c5f736869706461746529222c22757364223a302c22726561736f6e223a22726567726574227d" +
				"5d7d", func(p []byte) error {
				var view server.EventsView
				tag, err := decodeJSONPush(p, msgEventsPush, &view)
				return same([]any{tag, view}, []any{uint64(7), events}, err)
			}},
		{msgShardFreeze, AppendShardFreeze(nil, 8, 3), "150803", func(p []byte) error {
			tag, shard, err := DecodeShardFreeze(p)
			return same(tagShard{tag, shard}, tagShard{8, 3}, err)
		}},
		{msgShardExtract, AppendShardExtract(nil, 8, 3), "160803", func(p []byte) error {
			tag, shard, err := DecodeShardExtract(p)
			return same(tagShard{tag, shard}, tagShard{8, 3}, err)
		}},
		{msgShardState, AppendShardState(nil, 8, 3, packet), "1708034343534852442d7061636b65742d7374616e642d696e", func(p []byte) error {
			tag, shard, pkt, err := DecodeShardState(p)
			return same([]any{tagShard{tag, shard}, pkt}, []any{tagShard{8, 3}, packet}, err)
		}},
		{msgShardInstall, AppendShardInstall(nil, 8, 3, packet), "1808034343534852442d7061636b65742d7374616e642d696e", func(p []byte) error {
			tag, shard, pkt, err := DecodeShardInstall(p)
			return same([]any{tagShard{tag, shard}, pkt}, []any{tagShard{8, 3}, packet}, err)
		}},
		{msgShardAck, AppendShardAck(nil, 8, 3), "190803", func(p []byte) error {
			tag, shard, err := DecodeShardAck(p)
			return same(tagShard{tag, shard}, tagShard{8, 3}, err)
		}},
		{msgOwnersRequest, AppendOwnersRequest(nil, 9), "1a09", func(p []byte) error {
			tag, err := DecodeOwnersRequest(p)
			return same(tag, uint64(9), err)
		}},
		{msgOwnersReply, AppendOwnersReply(nil, 9, owned), "1b090401000101", func(p []byte) error {
			tag, got, err := DecodeOwnersReply(p)
			return same([]any{tag, got}, []any{uint64(9), owned}, err)
		}},
	}
	want := msgHello
	for i, c := range cases {
		// The table must walk the pinned range in order, no type skipped
		// but the reserved ones (TestRetiredTypesAnswerByTag).
		for msgNames[want] == "" {
			want++
		}
		if c.typ != want {
			t.Fatalf("case %d covers message type %d, want %d", i, c.typ, want)
		}
		want++
		pinned, err := hex.DecodeString(c.pinned)
		if err != nil {
			t.Fatal(err)
		}
		name := msgNames[c.typ]
		if pinned[0] != c.typ {
			t.Errorf("%s: pinned frame opens with type %d, want %d", name, pinned[0], c.typ)
		}
		if !bytes.Equal(c.encoded, pinned) {
			t.Errorf("%s: encoder moved a byte:\n got %x\nwant %x", name, c.encoded, pinned)
		}
		if err := c.decode(pinned); err != nil {
			t.Errorf("%s: pinned frame: %v", name, err)
		}
	}
	if last := cases[len(cases)-1].typ; last != 27 {
		t.Errorf("pinned range ends at message type %d, want 27", last)
	}
}

// TestRetiredTypesAnswerByTag: the retired events subscription's frames
// (types 19 and 20, as their encoders last wrote them) are refused under
// their own tag, and the connection goes on serving. No reserved type
// has a name, so none can be reused by a new frame.
func TestRetiredTypesAnswerByTag(t *testing.T) {
	for _, typ := range []byte{1, 2, 4, 5, 6, 7, 19, 20} {
		if msgNames[typ] != "" {
			t.Errorf("reserved message type %d is named %q", typ, msgNames[typ])
		}
	}

	srv, err := server.New(server.Config{
		Shards: 1,
		Scheme: "econ-cheap",
		Params: scheme.DefaultParams(catalog.TPCH(20)),
		Clock:  server.NewVirtualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	conn, peer := net.Pipe()
	served := make(chan struct{})
	go func() { defer close(served); serveConn(peer, ServerEngine(srv)) }()
	t.Cleanup(func() { conn.Close(); <-served })
	roundTrip := func(frame []byte) []byte {
		t.Helper()
		if err := WriteFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	roundTrip(AppendHello(nil, ProtocolV2))

	for _, frame := range []string{"1307000000000000e03f", "1407"} {
		tag, msg, err := DecodeTaggedError(roundTrip(unhex(t, frame)))
		if err != nil {
			t.Fatalf("frame %s: want a tagged error, got %v", frame, err)
		}
		if tag != 7 || !strings.Contains(msg, "events request") {
			t.Errorf("frame %s answered (%d, %q), want tag 7 pointing at the events request", frame, tag, msg)
		}
	}

	batch, err := AppendTaggedQueryBatch(nil, 8, []Query{{Template: "Q1"}})
	if err != nil {
		t.Fatal(err)
	}
	tag, replies, err := DecodeTaggedReplyBatch(roundTrip(batch), nil)
	if err != nil || tag != 8 || len(replies) != 1 || replies[0].Err != "" {
		t.Fatalf("batch after the retired frames: tag %d, replies %+v, err %v", tag, replies, err)
	}
}
