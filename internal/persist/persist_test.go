package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/binenc"
	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/economy"
	"repro/internal/money"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sampleSnapshot exercises every field of the format: two shards, one
// with a full economy (pool + tenants + market), one bypass-shaped
// (no economy, yield accumulators), pending builds, response buckets.
func sampleSnapshot() *Snapshot {
	pool := economy.LedgerState{
		Tenant: "",
		Credit: money.FromDollars(42.5),
		Clock:  17,
		Entries: []economy.RegretEntryState{
			{ID: "col:lineitem.l_extendedprice", Regret: money.FromDollars(0.004), Touched: 9},
			{ID: "cpu:2", Regret: money.FromDollars(0.001), Touched: 17},
		},
		Totals: economy.Totals{
			Spend:         money.FromDollars(10),
			Profit:        money.FromDollars(3),
			Invested:      money.FromDollars(7),
			Recovered:     money.FromDollars(2),
			RegretAccrued: money.FromDollars(0.5),
			InvestCount:   4,
			Declined:      2,
			Queries:       100,
			CacheAnswered: 31,
		},
	}
	return &Snapshot{
		Fingerprint: Fingerprint{
			Scheme:          "econ-cheap",
			Provider:        "altruistic",
			CatalogBytes:    123456789,
			NextID:          4242,
			Clock:           90 * time.Minute,
			CreatedUnixNano: 1700000000000000000,
		},
		Shards: []ShardState{
			{
				Index:   0,
				LastNow: time.Hour,
				Books: sim.Books{
					LastAccrual:      time.Hour - time.Second,
					EndOfRun:         time.Hour + 3*time.Second,
					StorageGBSeconds: 123.456,
					NodeSeconds:      7.5,
					Queries:          100, Declined: 2, CacheAnswered: 31,
					Investments: 4, Failures: 1,
					Revenue:    money.FromDollars(10),
					Profit:     money.FromDollars(3),
					ExecUsage:  cost.Usage{CPUSeconds: 1.5, IOOps: 200, NetBytes: 1 << 30, Boots: 1},
					BuildUsage: cost.Usage{CPUSeconds: 0.5, IOOps: 10, NetBytes: 1 << 20},
				},
				Errors:         3,
				RNG:            0xDEADBEEFCAFEF00D,
				ResponseCounts: [obs.ResponseBuckets]int64{20: 40, 31: 50, 44: 7, obs.ResponseBuckets - 1: 1},
				ResponseSum:    39_200_000_000,
				Cache: cache.State{
					Clock: time.Hour,
					Entries: []cache.EntryState{{ID: "col:lineitem.l_shipdate", Record: cache.Record{
						BuiltAt: time.Minute, FirstUsed: 2 * time.Minute,
						LastUsed: 50 * time.Minute, Uses: 12, BuildPrice: money.FromDollars(1.5),
						AmortRemaining: money.FromDollars(0.75), MaintPaidUntil: 49 * time.Minute,
						UnpaidMaint: money.FromDollars(0.01), EarnedValue: money.FromDollars(2.25),
					}}},
					Pending: []cache.PendingState{{
						ID: "cpu:2", ReadyAt: time.Hour + time.Second,
						BuildPrice: money.FromDollars(0.2), AmortRemaining: money.FromDollars(0.2),
					}},
				},
				Economy: &economy.State{
					Provider: economy.ProviderAltruistic,
					Pool:     &pool,
					Tenants: []economy.LedgerState{
						{Tenant: "alice", Totals: economy.Totals{Spend: money.FromDollars(4), Queries: 40}},
						{Tenant: "bob", Totals: economy.Totals{Spend: money.FromDollars(6), Queries: 60, CacheAnswered: 31}},
					},
					Market: economy.MarketState{
						Owners:       []economy.OwnerState{{ID: "col:lineitem.l_shipdate", Tenant: ""}},
						FailCounts:   []economy.FailCountState{{ID: "cpu:3", Count: 2}},
						BuildUsage:   cost.Usage{CPUSeconds: 0.25},
						FailureCount: 1,
					},
				},
			},
			{
				Index:          1,
				LastNow:        time.Hour,
				Books:          sim.Books{Queries: 7},
				ResponseCounts: [obs.ResponseBuckets]int64{0: 2, 12: 5},
				ResponseSum:    45_000_000,
				Cache:          cache.State{Clock: time.Hour, Capacity: 1 << 40},
				Yield: []YieldState{
					{ID: "col:orders.o_orderdate", Bytes: 1 << 20},
					{ID: "col:orders.o_totalprice", Bytes: 42},
				},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	data := EncodeBytes(want)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
	// Encoding is deterministic: same snapshot, same bytes.
	if string(EncodeBytes(want)) != string(data) {
		t.Error("encoding is not deterministic")
	}
}

// fillDistinct sets every leaf of v, a settable struct walked through its
// nested structs, to a distinct non-zero value.
func fillDistinct(t *testing.T, v reflect.Value, n *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(*n)
	case reflect.Float64:
		*n++
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("fillDistinct: no case for %s", v.Type())
	}
}

// TestAccountsRoundTripEveryField holds the embedded accounts to the
// layouts: every field of sim.Books, economy.Totals and cache.Record set to
// its own non-zero value must come back from the bytes. A field added to
// an account without a layout line fails here instead of silently not
// being persisted.
func TestAccountsRoundTripEveryField(t *testing.T) {
	var books sim.Books
	var totals economy.Totals
	var rec cache.Record
	var n int64
	for _, account := range []any{&books, &totals, &rec} {
		fillDistinct(t, reflect.ValueOf(account).Elem(), &n)
	}
	snap := &Snapshot{Shards: []ShardState{{
		Books: books,
		Cache: cache.State{Entries: []cache.EntryState{{ID: "cpu:2", Record: rec}}},
		Economy: &economy.State{
			Pool:    &economy.LedgerState{Totals: totals},
			Tenants: []economy.LedgerState{{Tenant: "a", Totals: totals}},
		},
	}}}
	got, err := Decode(EncodeBytes(snap))
	if err != nil {
		t.Fatal(err)
	}
	sh := got.Shards[0]
	if sh.Books != books {
		t.Errorf("sim.Books came back %+v, want %+v", sh.Books, books)
	}
	if sh.Cache.Entries[0].Record != rec {
		t.Errorf("cache.Record came back %+v, want %+v", sh.Cache.Entries[0].Record, rec)
	}
	if sh.Economy.Pool.Totals != totals || sh.Economy.Tenants[0].Totals != totals {
		t.Errorf("economy.Totals came back %+v and %+v, want %+v", sh.Economy.Pool.Totals, sh.Economy.Tenants[0].Totals, totals)
	}
}

func TestWriteLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "econ.snap")
	want := sampleSnapshot()
	n, err := Write(path, want)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("stat: %v, size %v want %d", err, fi.Size(), n)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("loaded snapshot diverged")
	}
	// Overwrite goes through rename: no temp litter is left behind.
	if _, err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("state dir holds %d files after rewrites, want 1", len(entries))
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := EncodeBytes(sampleSnapshot())

	// Every strict prefix fails.
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", cut, len(data))
		}
	}
	// Every single-byte flip fails: the header by the magic/version
	// match, everything else by a frame CRC.
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded", i)
		}
	}
	// Trailing garbage fails.
	if _, err := Decode(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A future version fails.
	mut := append([]byte(nil), data...)
	mut[6] = 0xFF
	if _, err := Decode(mut); err == nil {
		t.Error("unknown version accepted")
	}
}

// TestDecodeRejectsLyingHistogram: a CRC-valid shard record whose
// response histogram has another layout's bucket count, a negative
// count or a negative sum must be rejected at decode — restored, it would
// read percentiles off the wrong buckets, or off counts below zero.
func TestDecodeRejectsLyingHistogram(t *testing.T) {
	packet := func(st ShardState, mutate func(shard []byte)) []byte {
		shard := encode(layoutShard, &st)
		mutate(shard)
		return appendFrame(appendFrame(appendHeader(shardMagic), encode(layoutShardMeta, &Fingerprint{})), shard)
	}
	// The bucket count is the byte after the shard's 8-byte RNG state.
	setBuckets := func(n byte) func([]byte) {
		return func(shard []byte) {
			at := bytes.Index(shard, binenc.AppendU64(nil, sampleSnapshot().Shards[0].RNG)) + 8
			if at < 8 || shard[at] != obs.ResponseBuckets {
				t.Fatal("sample shard no longer has its bucket count after its RNG state")
			}
			shard[at] = n
		}
	}
	negative := sampleSnapshot().Shards[0]
	negative.ResponseCounts[31] = -1
	negSum := sampleSnapshot().Shards[0]
	negSum.ResponseSum = -5
	for name, data := range map[string][]byte{
		"one bucket short":    packet(sampleSnapshot().Shards[0], setBuckets(obs.ResponseBuckets-1)),
		"one bucket too many": packet(sampleSnapshot().Shards[0], setBuckets(obs.ResponseBuckets+1)),
		"negative count":      packet(negative, func([]byte) {}),
		"negative sum":        packet(negSum, func([]byte) {}),
	} {
		_, err := DecodeShardPacket(data)
		if err == nil || !strings.Contains(err.Error(), "response") {
			t.Errorf("%s: err %v, want a response-histogram rejection", name, err)
		}
	}
	if _, err := DecodeShardPacket(packet(sampleSnapshot().Shards[0], func([]byte) {})); err != nil {
		t.Fatalf("the unmutated packet fails too: %v", err)
	}
}

// TestDecodeOnlyBounds: values no encoder run would write — a shard
// index or count past MaxShards, a snapshot of no shards, a count that
// promises more elements than bytes remain — arrive CRC-valid and must be
// rejected by the layouts themselves.
func TestDecodeOnlyBounds(t *testing.T) {
	snap := func(mutate func(*Snapshot)) []byte {
		s := sampleSnapshot()
		mutate(s)
		return EncodeBytes(s)
	}
	for name, data := range map[string][]byte{
		"no shards": snap(func(s *Snapshot) { s.Shards = nil }),
		"shard count past MaxShards": appendFrame(appendHeader(magic),
			encode(layoutMeta, &meta{shards: MaxShards + 1})),
		"wrong record type": appendFrame(appendHeader(magic),
			encode(layoutShardMeta, &Fingerprint{})),
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	if _, err := DecodeShardPacket(EncodeShardPacket(&ShardPacket{State: ShardState{Index: MaxShards + 1}})); err == nil {
		t.Error("shard index past MaxShards decoded")
	}

	// A yield list claiming three entries over the bytes of two: the
	// count is checked against what remains before the loop runs.
	shard := encode(layoutShard, &sampleSnapshot().Shards[1])
	at := bytes.LastIndex(shard, []byte("\x02\x16col:orders.o_orderdate"))
	if at < 0 {
		t.Fatal("sample shard no longer ends in its two-entry yield list")
	}
	shard[at] = 0x7F
	pkt := appendFrame(appendFrame(appendHeader(shardMagic), encode(layoutShardMeta, &Fingerprint{})), shard)
	if _, err := DecodeShardPacket(pkt); err == nil || !strings.Contains(err.Error(), "count") {
		t.Errorf("lying yield count: err %v, want the count bound", err)
	}
}

func TestDecodeEmptyAndGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, []byte("CCSNAP"), []byte("not a snapshot at all")} {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%q) succeeded", data)
		}
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("loading a missing file succeeded")
	}
}
