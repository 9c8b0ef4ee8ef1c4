// Package persist serializes the serving layer's durable state — every
// shard's economy (market residency, per-structure ownership, invest
// backoff, tenant ledgers), cache, counters and RNG — into a versioned
// binary snapshot, and restores it byte-for-byte. A drained cloudcached
// no longer cold-starts: it resumes the exact accounts, regret ledgers
// and resident structures it shut down with.
//
// The format is deliberately paranoid about partial writes and bit rot:
//
//	file    := magic "CCSNAP" | u16 version (LE)
//	frame   := u32 len (LE) | payload | u32 crc32-IEEE(payload) (LE)
//	file    := header | frame(meta) | frame(shard) × meta.Shards
//
// Every frame is length-prefixed and CRC-checked, so truncation or
// corruption anywhere fails decoding cleanly — the caller boots fresh
// instead of loading partial state. Inside frames, integers ride
// varints, money rides its fixed-point int64, times ride nanosecond
// varints and floats ride IEEE-754 bits, so encode(decode(x)) == x
// exactly. Writes go through a temp file and an atomic rename: a crash
// mid-checkpoint leaves the previous snapshot intact.
//
// Every record is described ONCE, by a layout function (layoutShard,
// layoutLedger, ...) that a two-direction codec walks: encoding appends
// each field the layout shows it, decoding fills the same fields from a
// binenc.Reader, so the two directions cannot disagree about order,
// width or bounds. The decoder never panics on hostile input and never
// allocates more than a small multiple of the input size (every count is
// validated against the bytes that remain before anything is looped over
// or allocated). Three fuzz targets hold it to that. FuzzSnapshotDecode
// and FuzzShardPacketDecode mutate whole files and so exercise the
// containers — header, frame lengths, CRCs, trailing bytes; a mutation
// inside a frame dies at its CRC and never reaches a layout.
// FuzzRecordDecode is the one that does: its bytes are a record payload,
// framed with a fresh CRC behind a valid header, so the count bounds and
// histogram checks meet hostile input.
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/binenc"
	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/structure"
)

// Version is the current snapshot format version. Decoders reject
// versions they do not know; bumping this is how incompatible layout
// changes stay loud. v2 added the ledgers' RegretDropped counter; v3
// replaced the response reservoir with the response histogram's counts.
const Version = 3

// magic identifies a snapshot file.
var magic = [6]byte{'C', 'C', 'S', 'N', 'A', 'P'}

// shardMagic identifies a single-shard packet — the unit of live shard
// migration between backends. Distinct from the snapshot magic so a
// shard packet can never be mistaken for (or restored as) a whole
// engine.
var shardMagic = [6]byte{'C', 'C', 'S', 'H', 'R', 'D'}

// Record types inside frames.
const (
	recMeta      byte = 1
	recShard     byte = 2
	recShardMeta byte = 3
)

// MaxShards bounds the shard count a snapshot may claim, far above any
// real deployment but low enough that a corrupt meta frame cannot
// balloon the decode loop.
const MaxShards = 1 << 16

// YieldState is one bypass-scheme yield accumulator (the bypass
// baseline's only scheme state beyond the cache).
type YieldState struct {
	ID    structure.ID
	Bytes int64
}

// ShardState is the complete durable state of one server shard.
type ShardState struct {
	Index int

	// LastNow is the shard's monotone clock clamp.
	LastNow time.Duration

	// Books is the shard's operating account, as the shard keeps it.
	sim.Books
	// Errors counts submissions that failed before a decision.
	Errors int64

	// RNG is the shard's selectivity-draw generator state, so draws for
	// queries that omit a selectivity continue the exact pre-restart
	// sequence.
	RNG uint64

	// ResponseCounts and ResponseSum are the response-time histogram: its
	// bucket counts in obs's response layout and its exact nanosecond sum.
	ResponseCounts [obs.ResponseBuckets]int64
	ResponseSum    int64

	// Cache is the shard's residency state.
	Cache cache.State

	// Economy is the shard's ledgers and market bookkeeping; nil for
	// schemes without an economy (bypass).
	Economy *economy.State

	// Yield holds the bypass scheme's per-column yield accumulators,
	// sorted by ID; nil for economy schemes.
	Yield []YieldState
}

// Fingerprint names the configuration a snapshot or shard packet was
// captured under. Restore and shard installation validate scheme,
// provider and catalog so state never silently crosses a
// reconfiguration, and adopt NextID so query IDs stay monotone.
type Fingerprint struct {
	Scheme   string
	Provider string
	// CatalogBytes fingerprints the catalog (its total size): state taken
	// against one catalog must not restore against another.
	CatalogBytes int64
	// NextID is the source server's query-ID counter at capture time.
	NextID int64
	// Clock is the server clock at capture time; a restored daemon
	// resumes its wall clock from here so rent does not replay.
	Clock time.Duration
	// CreatedUnixNano stamps the capture (informational).
	CreatedUnixNano int64
}

// Snapshot is one serialized engine state.
type Snapshot struct {
	Fingerprint
	Shards []ShardState
}

// ShardPacket is one shard's state plus the fingerprint it was captured
// under — the unit of live migration.
type ShardPacket struct {
	Fingerprint
	State ShardState
}

// --- the two-direction codec ------------------------------------------------

// codec walks a record layout in one of two directions. Encoding (r is
// nil) appends every field the layout shows it to b; decoding fills the
// same fields from r, whose first failure sticks, so a layout never
// checks an error: decode does, once, when the layout returns. The field
// primitives below are the only code that knows which direction it is.
type codec struct {
	b []byte
	r *binenc.Reader
}

// varint is a signed integer — counters, money's fixed-point micro-dollars,
// nanosecond times.
func varint[T ~int64 | ~int](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.Varint())
	} else {
		c.b = binary.AppendVarint(c.b, int64(*v))
	}
}

// bounded is a non-negative int riding a uvarint. Decoding rejects values
// above limit, so a corrupt count or index cannot balloon a loop.
func bounded(c *codec, v *int, limit uint64, what string) {
	if c.r == nil {
		c.b = binary.AppendUvarint(c.b, uint64(*v))
		return
	}
	u := c.r.Uvarint()
	if u > limit {
		c.r.Fail("persist: %s %d exceeds %d", what, u, limit)
	}
	*v = int(u)
}

func f64(c *codec, v *float64) {
	if c.r != nil {
		*v = c.r.F64()
	} else {
		c.b = binenc.AppendF64(c.b, *v)
	}
}

func u64(c *codec, v *uint64) {
	if c.r != nil {
		*v = c.r.U64()
	} else {
		c.b = binenc.AppendU64(c.b, *v)
	}
}

func str[T ~string](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.String())
	} else {
		c.b = binenc.AppendString(c.b, string(*v))
	}
}

// octet is one byte: a small enumeration, or a record's type.
func octet[T ~uint8 | ~int](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.Byte())
	} else {
		c.b = append(c.b, byte(*v))
	}
}

// flag is one byte, written 0 or 1; any non-zero byte reads as true.
func flag(c *codec, v *bool) {
	if c.r != nil {
		*v = c.r.Byte() != 0
	} else {
		c.b = binenc.AppendBool(c.b, *v)
	}
}

// record opens a payload with its type byte. Encoding writes typ;
// decoding reads it back into got, which can differ only then.
func record(c *codec, typ byte) {
	got := typ
	octet(c, &got)
	if got != typ {
		c.r.Fail("persist: expected record type %d, got %d", typ, got)
	}
}

// optional is a presence flag and, when set, the value behind the pointer.
func optional[T any](c *codec, p **T, layout func(*codec, *T)) {
	has := *p != nil
	flag(c, &has)
	if !has {
		return
	}
	if c.r != nil {
		*p = new(T)
	}
	layout(c, *p)
}

// list is a counted sequence: a uvarint count, then each element's
// layout. Decoding validates the count against the bytes that remain
// (minBytes being the least one element can occupy) before the loop, then
// grows the slice element by element and decodes in place — allocation
// follows the bytes actually present, never the count claimed — and
// leaves an empty sequence nil.
func list[T any](c *codec, s *[]T, minBytes int, each func(*codec, *T)) {
	if c.r == nil {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		for i := range *s {
			each(c, &(*s)[i])
		}
		return
	}
	n := c.r.Count(minBytes)
	for i := 0; i < n && c.r.Err() == nil; i++ {
		var zero T
		*s = append(*s, zero)
		each(c, &(*s)[i])
	}
}

// encode runs a layout forwards and returns the record's bytes.
func encode[T any](layout func(*codec, *T), v *T) []byte {
	var c codec
	layout(&c, v)
	return c.b
}

// decode runs the same layout backwards over one frame's payload, which
// the record must fill exactly.
func decode[T any](payload []byte, what string, layout func(*codec, *T), v *T) error {
	r := binenc.NewReader(payload)
	layout(&codec{r: &r}, v)
	return r.End(what + " record")
}

// --- record layouts ---------------------------------------------------------
//
// One function per record; field order here IS the format.

func layoutUsage(c *codec, u *cost.Usage) {
	f64(c, &u.CPUSeconds)
	varint(c, &u.IOOps)
	varint(c, &u.NetBytes)
	varint(c, &u.Boots)
}

// layoutResponse is the response histogram: its bucket count, which
// must be the layout's, every count, none negative, and the sum.
func layoutResponse(c *codec, st *ShardState) {
	n := len(st.ResponseCounts)
	bounded(c, &n, obs.ResponseBuckets, "response bucket count")
	if n != len(st.ResponseCounts) {
		c.r.Fail("persist: %d response buckets, the layout has %d", n, len(st.ResponseCounts))
		return
	}
	for i := range st.ResponseCounts {
		varint(c, &st.ResponseCounts[i])
	}
	varint(c, &st.ResponseSum)
	if c.r == nil {
		return
	}
	for i, v := range st.ResponseCounts {
		if v < 0 {
			c.r.Fail("persist: response bucket %d counts %d", i, v)
		}
	}
	if st.ResponseSum < 0 {
		c.r.Fail("persist: negative response sum %d", st.ResponseSum)
	}
}

func layoutCacheEntry(c *codec, e *cache.EntryState) {
	str(c, &e.ID)
	varint(c, &e.BuiltAt)
	varint(c, &e.FirstUsed)
	varint(c, &e.LastUsed)
	varint(c, &e.Uses)
	varint(c, &e.BuildPrice)
	varint(c, &e.AmortRemaining)
	varint(c, &e.MaintPaidUntil)
	varint(c, &e.UnpaidMaint)
	varint(c, &e.EarnedValue)
}

func layoutCachePending(c *codec, p *cache.PendingState) {
	str(c, &p.ID)
	varint(c, &p.ReadyAt)
	varint(c, &p.BuildPrice)
	varint(c, &p.AmortRemaining)
}

func layoutCacheState(c *codec, st *cache.State) {
	varint(c, &st.Clock)
	varint(c, &st.Capacity)
	list(c, &st.Entries, 10, layoutCacheEntry)
	list(c, &st.Pending, 4, layoutCachePending)
}

func layoutRegretEntry(c *codec, e *economy.RegretEntryState) {
	str(c, &e.ID)
	varint(c, &e.Regret)
	varint(c, &e.Touched)
}

func layoutLedger(c *codec, st *economy.LedgerState) {
	str(c, &st.Tenant)
	varint(c, &st.Credit)
	varint(c, &st.Clock)
	list(c, &st.Entries, 3, layoutRegretEntry)
	varint(c, &st.Spend)
	varint(c, &st.Profit)
	varint(c, &st.Invested)
	varint(c, &st.Recovered)
	varint(c, &st.RegretAccrued)
	varint(c, &st.RegretDropped)
	varint(c, &st.InvestCount)
	varint(c, &st.Declined)
	varint(c, &st.Queries)
	varint(c, &st.CacheAnswered)
}

func layoutOwner(c *codec, o *economy.OwnerState) {
	str(c, &o.ID)
	str(c, &o.Tenant)
}

func layoutFailCount(c *codec, f *economy.FailCountState) {
	str(c, &f.ID)
	varint(c, &f.Count)
}

func layoutEconomyState(c *codec, st *economy.State) {
	octet(c, &st.Provider)
	optional(c, &st.Pool, layoutLedger)
	list(c, &st.Tenants, 2, layoutLedger)
	list(c, &st.Market.Owners, 2, layoutOwner)
	list(c, &st.Market.FailCounts, 2, layoutFailCount)
	layoutUsage(c, &st.Market.BuildUsage)
	varint(c, &st.Market.FailureCount)
}

func layoutYield(c *codec, y *YieldState) {
	str(c, &y.ID)
	varint(c, &y.Bytes)
}

func layoutShard(c *codec, st *ShardState) {
	record(c, recShard)
	bounded(c, &st.Index, MaxShards, "shard index")
	varint(c, &st.LastNow)
	varint(c, &st.LastAccrual)
	varint(c, &st.EndOfRun)
	f64(c, &st.StorageGBSeconds)
	f64(c, &st.NodeSeconds)
	varint(c, &st.Queries)
	varint(c, &st.Declined)
	varint(c, &st.CacheAnswered)
	varint(c, &st.Investments)
	varint(c, &st.Failures)
	varint(c, &st.Errors)
	varint(c, &st.Revenue)
	varint(c, &st.Profit)
	layoutUsage(c, &st.ExecUsage)
	layoutUsage(c, &st.BuildUsage)
	u64(c, &st.RNG)
	layoutResponse(c, st)
	layoutCacheState(c, &st.Cache)
	optional(c, &st.Economy, layoutEconomyState)
	list(c, &st.Yield, 2, layoutYield)
}

func layoutFingerprint(c *codec, f *Fingerprint) {
	str(c, &f.Scheme)
	str(c, &f.Provider)
	varint(c, &f.CatalogBytes)
	varint(c, &f.NextID)
	varint(c, &f.Clock)
	varint(c, &f.CreatedUnixNano)
}

// meta is a snapshot's first record: the fingerprint, then how many
// shard frames follow.
type meta struct {
	Fingerprint
	shards int
}

func layoutMeta(c *codec, m *meta) {
	record(c, recMeta)
	layoutFingerprint(c, &m.Fingerprint)
	bounded(c, &m.shards, MaxShards, "shard count")
	if c.r != nil && m.shards == 0 {
		c.r.Fail("persist: snapshot claims no shards")
	}
}

// layoutShardMeta is a shard packet's first record.
func layoutShardMeta(c *codec, f *Fingerprint) {
	record(c, recShardMeta)
	layoutFingerprint(c, f)
}

// --- framing and containers -------------------------------------------------

// appendFrame wraps one payload with its length prefix and CRC.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// nextFrame splits one CRC-checked frame off data.
func nextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("persist: truncated frame header")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(n)+4 > uint64(len(data)) {
		return nil, nil, fmt.Errorf("persist: frame of %d bytes overruns file", n)
	}
	payload, data = data[:n], data[n:]
	want := binary.LittleEndian.Uint32(data)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("persist: frame CRC mismatch: %08x != %08x", got, want)
	}
	return payload, data[4:], nil
}

// appendHeader opens a container: its magic and the format version.
func appendHeader(m [6]byte) []byte {
	return binary.LittleEndian.AppendUint16(append([]byte{}, m[:]...), Version)
}

// openContainer checks a container's magic and version and splits off
// its first frame, whose record the layout decodes into v.
func openContainer[T any](data []byte, m [6]byte, what string, layout func(*codec, *T), v *T) (rest []byte, err error) {
	if len(data) < len(m)+2 {
		return nil, fmt.Errorf("persist: %s too short for header", what)
	}
	if !bytes.Equal(data[:len(m)], m[:]) {
		return nil, fmt.Errorf("persist: bad %s magic", what)
	}
	if ver := binary.LittleEndian.Uint16(data[len(m):]); ver != Version {
		return nil, fmt.Errorf("persist: unsupported %s version %d (want %d)", what, ver, Version)
	}
	payload, rest, err := nextFrame(data[len(m)+2:])
	if err != nil {
		return nil, err
	}
	return rest, decode(payload, what+" meta", layout, v)
}

// shardFrame decodes the next frame as a shard record into st.
func shardFrame(data []byte, st *ShardState) (rest []byte, err error) {
	payload, rest, err := nextFrame(data)
	if err != nil {
		return nil, err
	}
	return rest, decode(payload, "shard", layoutShard, st)
}

// EncodeBytes serializes a snapshot.
func EncodeBytes(s *Snapshot) []byte {
	b := appendFrame(appendHeader(magic), encode(layoutMeta, &meta{s.Fingerprint, len(s.Shards)}))
	for i := range s.Shards {
		b = appendFrame(b, encode(layoutShard, &s.Shards[i]))
	}
	return b
}

// Decode parses a snapshot. Truncated, corrupt or version-mismatched
// input fails with an error — never a panic, never partial state.
func Decode(data []byte) (*Snapshot, error) {
	var m meta
	rest, err := openContainer(data, magic, "snapshot", layoutMeta, &m)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Fingerprint: m.Fingerprint}
	for i := 0; i < m.shards; i++ {
		s.Shards = append(s.Shards, ShardState{})
		if rest, err = shardFrame(rest, &s.Shards[i]); err != nil {
			return nil, fmt.Errorf("persist: shard %d: %w", i, err)
		}
		if got := s.Shards[i].Index; got != i {
			return nil, fmt.Errorf("persist: shard record %d carries index %d", i, got)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after last shard", len(rest))
	}
	return s, nil
}

// EncodeShardPacket serializes one shard for transfer:
//
//	packet := shardMagic "CCSHRD" | u16 version (LE)
//	        | frame(shard-meta) | frame(shard)
//
// with the same length-prefixed CRC framing as snapshot files, so a
// packet truncated or corrupted in flight fails installation cleanly on
// the receiving backend instead of loading partial state.
func EncodeShardPacket(p *ShardPacket) []byte {
	b := appendFrame(appendHeader(shardMagic), encode(layoutShardMeta, &p.Fingerprint))
	return appendFrame(b, encode(layoutShard, &p.State))
}

// DecodeShardPacket parses a single-shard packet with the same
// guarantees as Decode: never panics, never allocates past a small
// multiple of the input, and fails loudly on truncation, corruption or
// a version mismatch.
func DecodeShardPacket(data []byte) (*ShardPacket, error) {
	p := &ShardPacket{}
	rest, err := openContainer(data, shardMagic, "shard packet", layoutShardMeta, &p.Fingerprint)
	if err != nil {
		return nil, err
	}
	if rest, err = shardFrame(rest, &p.State); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after shard record", len(rest))
	}
	return p, nil
}

// Write atomically persists a snapshot: encode to a temp file in the
// destination directory, fsync, rename. A crash mid-write leaves any
// previous snapshot untouched. Returns the encoded size.
func Write(path string, s *Snapshot) (int64, error) {
	data := EncodeBytes(s)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// Load reads and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
