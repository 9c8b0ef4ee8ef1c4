// Package wire is the daemon's length-prefixed binary protocol: the
// fast front the JSON/HTTP API is too slow for. A connection carries a
// sequence of frames, each a 4-byte little-endian payload length
// followed by the payload; the first payload byte is the message type.
//
// The protocol is multiplexed. A connection opens with a hello/version
// exchange, after which every frame carries a client-chosen uvarint
// tag. Any number of tagged query batches may be outstanding; the
// server accepts new frames while prior batches are still deciding and
// replies complete OUT OF ORDER as their shard groups finish, matched
// to requests by tag. Errors are scoped to a tag — one bad batch
// answers a tagged error and the connection keeps serving — and a
// stats subscription streams server-pushed snapshots without polling.
// MuxClient speaks it and is safe for concurrent use.
//
//	frame   := len uint32 LE | payload
//	payload := msgHello             | uvarint version
//	         | msgError             | string          (connection-fatal)
//	         | msgTaggedQueryBatch  | uvarint tag | uvarint n | n × query
//	         | msgTaggedReplyBatch  | uvarint tag | uvarint n | n × reply
//	         | msgTaggedError       | uvarint tag | string
//	         | msgStatsSubscribe    | uvarint tag | f64 intervalSec
//	         | msgStatsUnsubscribe  | uvarint tag
//	         | msgStatsPush         | uvarint tag | json            (server.Stats)
//	         | msgTraceRequest      | uvarint tag | string tenant | string template | uvarint n
//	         | msgTracePush         | uvarint tag | json            (server.TraceView)
//	         | msgEventsRequest     | uvarint tag | string type | string tenant | uvarint n
//	         | msgEventsPush        | uvarint tag | json            (server.EventsView)
//
// plus the tagged admin frames in admin.go (shard migration, ownership,
// on-demand checkpoint). msgError is the one untagged reply: it reports
// a violation no tag can scope — a first frame that is not a hello, an
// unparseable tag, an unknown message type — and the sender closes the
// connection after it.
//
// Message types 1, 2 and 4–7 belonged to the retired lockstep
// generation (untagged query/reply batches, stats and snapshot
// request/reply pairs). They are reserved and never reused: a peer that
// opens with one is told to say hello and hung up on. Types 19 and 20
// were the retired events subscription (subscribe, unsubscribe); they
// are reserved too, and a session that sends one gets a tagged error
// pointing at the events request and keeps its connection.
//
// Requests and subscriptions are fully binary; the snapshot bodies
// (stats, traces, events) ride as JSON inside the frame — they flow at
// human cadence, not per query, so the self-describing encoding tracks
// the evolving view schemas for free while framing, connection reuse and
// the hot query path stay binary.
//
// Item grammar:
//
//	query      := string tenant | string template | byte flags
//	              | f64 selectivity?   (flags&flagSelectivity)
//	              | budget?            (flags&flagBudget)
//	budget     := byte shape | f64 priceUSD | f64 tmaxSec | f64 k
//	reply      := byte 0 | response  — or —  byte 1 | string error
//	response   := varint queryID | uvarint shard | string template
//	              | f64 selectivity | f64 arrivalSec | byte declined
//	              | string location | f64 responseSec | f64 chargedUSD
//	              | f64 profitUSD | uvarint investments | uvarint failures
//	string     := uvarint len | bytes
//
// Numbers that are naturally small ride varints; money and time ride
// IEEE-754 doubles, matching the JSON API's dollar/second units exactly.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/binenc"
	"repro/internal/server"
)

// Message types. 1, 2, 4–7, 19 and 20 are retired (see the package
// comment) and must never be reassigned; the admin frames in admin.go continue the
// numbering at 21.
const (
	msgError byte = 3

	msgHello            byte = 8
	msgTaggedQueryBatch byte = 9
	msgTaggedReplyBatch byte = 10
	msgTaggedError      byte = 11
	msgStatsSubscribe   byte = 12
	msgStatsUnsubscribe byte = 13
	msgStatsPush        byte = 14

	msgTraceRequest  byte = 15
	msgTracePush     byte = 16
	msgEventsRequest byte = 17
	msgEventsPush    byte = 18
)

// msgNames words the decoders' complaints.
var msgNames = [...]string{
	msgError:             "error",
	msgHello:             "hello",
	msgTaggedQueryBatch:  "tagged query batch",
	msgTaggedReplyBatch:  "tagged reply batch",
	msgTaggedError:       "tagged error",
	msgStatsSubscribe:    "stats subscribe",
	msgStatsUnsubscribe:  "stats unsubscribe",
	msgStatsPush:         "stats push",
	msgTraceRequest:      "trace request",
	msgTracePush:         "trace push",
	msgEventsRequest:     "events request",
	msgEventsPush:        "events push",
	msgShardFreeze:       "shard freeze",
	msgShardExtract:      "shard extract",
	msgShardState:        "shard state",
	msgShardInstall:      "shard install",
	msgShardAck:          "shard ack",
	msgOwnersRequest:     "owners request",
	msgOwnersReply:       "owners reply",
	msgCheckpointRequest: "checkpoint request",
	msgCheckpointReply:   "checkpoint reply",
}

// ProtocolV2 is the version the hello frame negotiates. A server
// answers hello with its own version; both sides then speak the lower
// of the two (today there is only one multiplexed version).
const ProtocolV2 = 2

// Query flags.
const (
	flagSelectivity byte = 1 << 0
	flagBudget      byte = 1 << 1
)

// Budget shapes on the wire.
const (
	shapeStep byte = iota
	shapeLinear
	shapeConvex
	shapeConcave
)

// MaxFrame bounds one frame's payload: far above any sane batch, low
// enough that a corrupt length prefix cannot balloon memory.
const MaxFrame = 16 << 20

// MaxBatch bounds the queries in one frame.
const MaxBatch = 4096

// Query is the wire form of one submission — the binary twin of the
// HTTP API's QueryRequest.
type Query struct {
	Tenant   string
	Template string
	// Selectivity with HasSelectivity false means "unset": the shard
	// draws one. HasSelectivity true submits the value verbatim, so an
	// explicit zero survives the trip.
	Selectivity    float64
	HasSelectivity bool
	// Budget nil applies the server's default budget policy.
	Budget *server.BudgetJSON
}

// Request materialises the engine request (budget function included).
func (q *Query) Request() (server.Request, error) {
	bf, err := q.Budget.Func()
	if err != nil {
		return server.Request{}, err
	}
	return server.Request{
		Tenant:         q.Tenant,
		Template:       q.Template,
		Selectivity:    q.Selectivity,
		HasSelectivity: q.HasSelectivity,
		Budget:         bf,
	}, nil
}

// Reply is the wire form of one positional result: the response, or the
// per-query error that prevented one.
type Reply struct {
	Resp server.Response
	Err  string
}

// --- primitive helpers ------------------------------------------------------
//
// Encoders append through thin aliases over the shared codec
// (internal/binenc); decoders read through its Reader, which owns the
// bounds checks for both this protocol and the state-snapshot format and
// whose first failure sticks — a decoder reads its fields straight down
// and checks once, with End.

var (
	appendString = binenc.AppendString
	appendF64    = binenc.AppendF64
	appendBool   = binenc.AppendBool
)

// --- shared frame shapes ---------------------------------------------------
//
// Every payload but hello and msgError opens "type byte, uvarint tag",
// and most bodies are one of three shapes — nothing more, two filter
// strings and a bound, or a JSON view. Each shape is written once here;
// the exported codecs below name the message type.

// appendTag opens a tagged payload.
func appendTag(b []byte, typ byte, tag uint64) []byte {
	return binary.AppendUvarint(append(b, typ), tag)
}

// readType reads a payload's type byte, which must be typ. (The head
// helpers take the caller's Reader by pointer: handing one back by value
// costs the batch=1 decode a measurable copy.)
func readType(r *binenc.Reader, typ byte) {
	if mt := r.Byte(); mt != typ {
		r.Fail("wire: expected %s, got message type %d", msgNames[typ], mt)
	}
}

// readTag reads a tagged payload's head: the type byte, then the tag.
func readTag(r *binenc.Reader, typ byte) uint64 {
	readType(r, typ)
	return r.Uvarint()
}

// decodeTagOnly parses a payload that is nothing but its tag
// (unsubscribes, owners and checkpoint requests).
func decodeTagOnly(payload []byte, typ byte) (uint64, error) {
	r := binenc.NewReader(payload)
	tag := readTag(&r, typ)
	return tag, r.End(msgNames[typ])
}

// appendViewRequest / decodeViewRequest: tag, two filter strings ("" matches
// everything) and a result bound (0 applies the server's default).
func appendViewRequest(b []byte, typ byte, tag uint64, f1, f2 string, n uint64) []byte {
	b = appendString(appendTag(b, typ, tag), f1)
	return binary.AppendUvarint(appendString(b, f2), n)
}

func decodeViewRequest(payload []byte, typ byte) (tag uint64, f1, f2 string, n uint64, err error) {
	r := binenc.NewReader(payload)
	tag = readTag(&r, typ)
	f1 = r.String()
	f2 = r.String()
	n = r.Uvarint()
	return tag, f1, f2, n, r.End(msgNames[typ])
}

// appendJSONPush / decodeJSONPush: tag, then the view as JSON to the end
// of the payload.
func appendJSONPush(b []byte, typ byte, tag uint64, view any) ([]byte, error) {
	data, err := json.Marshal(view)
	if err != nil {
		return nil, err
	}
	return append(appendTag(b, typ, tag), data...), nil
}

func decodeJSONPush(payload []byte, typ byte, view any) (uint64, error) {
	r := binenc.NewReader(payload)
	tag := readTag(&r, typ)
	if err := r.Err(); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(r.Rest(), view); err != nil {
		return 0, fmt.Errorf("wire: bad %s payload: %w", msgNames[typ], err)
	}
	return tag, nil
}

// --- hello + connection-fatal error ----------------------------------------

// AppendHello appends a hello payload carrying the sender's protocol
// version (it rides where every other payload carries its tag). A
// connection opens with exactly one hello in each direction; a server
// that reads anything else first answers msgError and closes.
func AppendHello(b []byte, version uint64) []byte {
	return appendTag(b, msgHello, version)
}

// DecodeHello parses a hello payload (msg byte included).
func DecodeHello(payload []byte) (uint64, error) {
	return decodeTagOnly(payload, msgHello)
}

// appendErrorPayload builds a msgError payload.
func appendErrorPayload(b []byte, msg string) []byte {
	return appendString(append(b, msgError), msg)
}

// DecodeError parses a msgError payload (msg byte included): the peer's
// reason for closing the connection.
func DecodeError(payload []byte) (string, error) {
	r := binenc.NewReader(payload)
	readType(&r, msgError)
	return r.String(), r.Err()
}

// --- query and reply batches -----------------------------------------------

func budgetShapeByte(shape string) (byte, error) {
	switch shape {
	case "", "step":
		return shapeStep, nil
	case "linear":
		return shapeLinear, nil
	case "convex":
		return shapeConvex, nil
	case "concave":
		return shapeConcave, nil
	default:
		return 0, fmt.Errorf("wire: unknown budget shape %q", shape)
	}
}

func budgetShapeString(b byte) (string, error) {
	switch b {
	case shapeStep:
		return "step", nil
	case shapeLinear:
		return "linear", nil
	case shapeConvex:
		return "convex", nil
	case shapeConcave:
		return "concave", nil
	default:
		return "", fmt.Errorf("wire: unknown budget shape byte %d", b)
	}
}

// AppendTaggedQueryBatch appends one tagged query-batch payload: the
// items behind a client-chosen tag that the matching reply (or
// tag-scoped error) will carry back.
func AppendTaggedQueryBatch(b []byte, tag uint64, qs []Query) ([]byte, error) {
	if len(qs) == 0 || len(qs) > MaxBatch {
		return nil, fmt.Errorf("wire: batch size %d outside [1, %d]", len(qs), MaxBatch)
	}
	return appendQueryItems(appendTag(b, msgTaggedQueryBatch, tag), qs)
}

// sizeTaggedQueryBatch bounds a tagged query-batch payload's encoded
// size, so an encoder can allocate its buffer once instead of growing it.
func sizeTaggedQueryBatch(qs []Query) int {
	n := 1 + 2*binary.MaxVarintLen64 // type, tag, count
	for i := range qs {
		n += 2*binary.MaxVarintLen32 + len(qs[i].Tenant) + len(qs[i].Template) + 1 + 8
		if qs[i].Budget != nil {
			n += 1 + 3*8
		}
	}
	return n
}

// appendQueryItems appends a batch body: uvarint count then the query
// items.
func appendQueryItems(b []byte, qs []Query) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for i := range qs {
		q := &qs[i]
		b = appendString(b, q.Tenant)
		b = appendString(b, q.Template)
		// A non-zero Selectivity is an explicit request even without the
		// flag, matching server.Request's contract ("non-zero
		// selectivities need not set it") — only the explicit-zero case
		// needs HasSelectivity to be distinguishable from unset.
		hasSel := q.HasSelectivity || q.Selectivity != 0
		var flags byte
		if hasSel {
			flags |= flagSelectivity
		}
		if q.Budget != nil {
			flags |= flagBudget
		}
		b = append(b, flags)
		if hasSel {
			b = appendF64(b, q.Selectivity)
		}
		if q.Budget != nil {
			shape, err := budgetShapeByte(q.Budget.Shape)
			if err != nil {
				return nil, err
			}
			b = append(b, shape)
			b = appendF64(b, q.Budget.PriceUSD)
			b = appendF64(b, q.Budget.TmaxSec)
			b = appendF64(b, q.Budget.K)
		}
	}
	return b, nil
}

// DecodeTaggedQueryBatch parses a tagged query-batch payload, appending
// into qs to reuse its capacity. When the tag itself parses, it is
// returned even on a body error, so the server can scope the error frame
// to the failing batch instead of killing the connection.
func DecodeTaggedQueryBatch(payload []byte, qs []Query) (uint64, []Query, error) {
	r := binenc.NewReader(payload)
	tag := readTag(&r, msgTaggedQueryBatch)
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	out, err := readQueryItems(&r, qs, nil)
	return tag, out, err
}

// readQueryItems parses a batch body into qs (reusing its capacity),
// resolving tenant/template names through a per-connection interner so a
// steady workload's names are allocated once per connection instead of
// once per query. in may be nil (plain allocation).
func readQueryItems(r *binenc.Reader, qs []Query, in *interner) ([]Query, error) {
	n := r.Uvarint()
	if n == 0 || n > MaxBatch {
		r.Fail("wire: batch size %d outside [1, %d]", n, MaxBatch)
	}
	qs = qs[:0]
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var q Query
		q.Tenant = in.intern(r.Bytes())
		q.Template = in.intern(r.Bytes())
		flags := r.Byte()
		if flags&flagSelectivity != 0 {
			q.HasSelectivity = true
			q.Selectivity = r.F64()
		}
		if flags&flagBudget != 0 {
			shape, err := budgetShapeString(r.Byte())
			if err != nil {
				r.Fail("%w", err)
			}
			q.Budget = &server.BudgetJSON{Shape: shape}
			q.Budget.PriceUSD = r.F64()
			q.Budget.TmaxSec = r.F64()
			q.Budget.K = r.F64()
		}
		qs = append(qs, q)
	}
	if err := r.End("query batch"); err != nil {
		return nil, err
	}
	return qs, nil
}

// AppendTaggedReplyBatch appends one tagged reply-batch payload: the
// request's tag, then one positional reply per query.
func AppendTaggedReplyBatch(b []byte, tag uint64, rs []Reply) []byte {
	return appendReplyItems(appendTag(b, msgTaggedReplyBatch, tag), rs)
}

// appendReplyItems appends a reply-batch body.
func appendReplyItems(b []byte, rs []Reply) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		if r.Err != "" {
			b = append(b, 1)
			b = appendString(b, r.Err)
			continue
		}
		b = append(b, 0)
		resp := &r.Resp
		b = binary.AppendVarint(b, resp.QueryID)
		b = binary.AppendUvarint(b, uint64(resp.Shard))
		b = appendString(b, resp.Template)
		b = appendF64(b, resp.Selectivity)
		b = appendF64(b, resp.ArrivalSec)
		b = appendBool(b, resp.Declined)
		b = appendString(b, resp.Location)
		b = appendF64(b, resp.ResponseTimeSec)
		b = appendF64(b, resp.ChargedUSD)
		b = appendF64(b, resp.ProfitUSD)
		b = binary.AppendUvarint(b, uint64(resp.Investments))
		b = binary.AppendUvarint(b, uint64(resp.Failures))
	}
	return b
}

// DecodeTaggedReplyBatch parses a tagged reply-batch payload into rs,
// reusing its capacity.
func DecodeTaggedReplyBatch(payload []byte, rs []Reply) (uint64, []Reply, error) {
	return readTaggedReplyBatch(payload, rs, nil)
}

// readTaggedReplyBatch is DecodeTaggedReplyBatch resolving template and
// location names through in, as readQueryItems does tenants and
// templates. in may be nil.
func readTaggedReplyBatch(payload []byte, rs []Reply, in *interner) (uint64, []Reply, error) {
	r := binenc.NewReader(payload)
	tag := readTag(&r, msgTaggedReplyBatch)
	n := r.Uvarint()
	if n > MaxBatch {
		r.Fail("wire: reply batch size %d exceeds %d", n, MaxBatch)
	}
	// Presized, but never past what the payload can hold — a reply is at
	// least two bytes — so a hostile count allocates within its own frame.
	rs = slices.Grow(rs[:0], int(min(n, uint64(r.Len()/2))))
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var rep Reply
		switch status := r.Byte(); status {
		case 1:
			rep.Err = r.String()
		case 0:
			resp := &rep.Resp
			resp.QueryID = r.Varint()
			resp.Shard = int(r.Uvarint())
			resp.Template = in.intern(r.Bytes())
			resp.Selectivity = r.F64()
			resp.ArrivalSec = r.F64()
			resp.Declined = r.Byte() != 0
			resp.Location = in.intern(r.Bytes())
			resp.ResponseTimeSec = r.F64()
			resp.ChargedUSD = r.F64()
			resp.ProfitUSD = r.F64()
			resp.Investments = int(r.Uvarint())
			resp.Failures = int(r.Uvarint())
		default:
			r.Fail("wire: bad reply status %d", status)
		}
		rs = append(rs, rep)
	}
	if err := r.End("reply batch"); err != nil {
		return 0, nil, err
	}
	return tag, rs, nil
}

// AppendTaggedError appends a tag-scoped error payload: the batch or
// subscription named by tag failed, and only it — the connection keeps
// serving every other tag.
func AppendTaggedError(b []byte, tag uint64, msg string) []byte {
	return appendString(appendTag(b, msgTaggedError, tag), msg)
}

// DecodeTaggedError parses a tag-scoped error payload (msg byte
// included).
func DecodeTaggedError(payload []byte) (uint64, string, error) {
	r := binenc.NewReader(payload)
	tag := readTag(&r, msgTaggedError)
	msg := r.String()
	return tag, msg, r.End(msgNames[msgTaggedError])
}

// --- streaming stats --------------------------------------------------------

// AppendStatsSubscribe appends a stats-subscription payload: the server
// pushes a msgStatsPush frame carrying tag immediately and then every
// intervalSec seconds, replacing /v1/stats polling with a server-driven
// stream on the query connection. intervalSec <= 0 (or non-finite)
// requests a single push — the one-shot fetch.
func AppendStatsSubscribe(b []byte, tag uint64, intervalSec float64) []byte {
	return appendF64(appendTag(b, msgStatsSubscribe, tag), intervalSec)
}

// DecodeStatsSubscribe parses a stats-subscription payload (msg byte
// included).
func DecodeStatsSubscribe(payload []byte) (tag uint64, intervalSec float64, err error) {
	r := binenc.NewReader(payload)
	tag = readTag(&r, msgStatsSubscribe)
	intervalSec = r.F64()
	return tag, intervalSec, r.End(msgNames[msgStatsSubscribe])
}

// --- trace + events frames --------------------------------------------------

// AppendTraceRequest appends a trace-request payload: the binary twin of
// GET /v1/trace. tenant and template filter ("" matches everything);
// n == 0 applies the server's default bound.
func AppendTraceRequest(b []byte, tag uint64, tenant, template string, n uint64) []byte {
	return appendViewRequest(b, msgTraceRequest, tag, tenant, template, n)
}

// DecodeTraceRequest parses a trace-request payload (msg byte included).
func DecodeTraceRequest(payload []byte) (tag uint64, tenant, template string, n uint64, err error) {
	return decodeViewRequest(payload, msgTraceRequest)
}

// AppendEventsRequest appends an events-request payload: the binary twin
// of GET /v1/events. typ and tenant filter ("" matches everything);
// n == 0 applies the server's default bound.
func AppendEventsRequest(b []byte, tag uint64, typ, tenant string, n uint64) []byte {
	return appendViewRequest(b, msgEventsRequest, tag, typ, tenant, n)
}

// DecodeEventsRequest parses an events-request payload (msg byte
// included).
func DecodeEventsRequest(payload []byte) (tag uint64, typ, tenant string, n uint64, err error) {
	return decodeViewRequest(payload, msgEventsRequest)
}

// --- framing --------------------------------------------------------------

// WriteFrame writes one length-prefixed frame in one Write.
func WriteFrame(w io.Writer, payload []byte) error {
	frame, err := appendFrame(nil, payload)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// appendFrame appends payload to dst behind its length prefix.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds %d", len(payload), MaxFrame)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// readHeader reads a frame's 4-byte length prefix — straight out of a
// bufio.Reader's buffer when r is one: a stack array handed to an
// io.Reader escapes, which would cost an allocation per frame.
func readHeader(r io.Reader) (uint32, error) {
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(4)
		if err != nil {
			if len(hdr) > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		n := binary.LittleEndian.Uint32(hdr)
		_, err = br.Discard(4)
		return n, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(hdr[:]), nil
}

// ReadFrame reads one frame's payload, reusing buf when it is large
// enough. io.EOF before the first header byte means a clean close.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	n, err := readHeader(r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame header")
		}
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return buf, nil
}
