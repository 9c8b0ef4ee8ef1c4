package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The hand-written codec of the two POST bodies. encoding/json stays the
// definition of both formats: the scanner below accepts only the one shape
// clients actually send and reports everything else as "not mine", upon
// which the encoding/json decoder runs over the same bytes — so what is
// accepted, what is rejected and every error string are encoding/json's —
// and the appenders write byte for byte what json.Marshal writes, or
// decline (FuzzQueryRequestDecode and TestResponseEncodeMatchesEncodingJSON
// hold both to that).

// flatQuery is a QueryRequest with its two optional members held by value
// instead of behind pointers: what the scanner fills (so a scan allocates
// only the strings) and what the handlers work on, whichever decoder ran.
type flatQuery struct {
	tenant, template string
	selectivity      float64
	budget           BudgetJSON
	hasSelectivity   bool
	hasBudget        bool
}

// flat copies qr's members out from behind their pointers.
func (qr *QueryRequest) flat() flatQuery {
	fq := flatQuery{tenant: qr.Tenant, template: qr.Template}
	if qr.Selectivity != nil {
		fq.selectivity, fq.hasSelectivity = *qr.Selectivity, true
	}
	if qr.Budget != nil {
		fq.budget, fq.hasBudget = *qr.Budget, true
	}
	return fq
}

// request converts the decoded body into the engine's Request.
func (fq *flatQuery) request() (Request, error) {
	req := Request{
		Tenant:         fq.tenant,
		Template:       fq.template,
		Selectivity:    fq.selectivity,
		HasSelectivity: fq.hasSelectivity,
	}
	if fq.hasBudget {
		var err error
		if req.Budget, err = fq.budget.Func(); err != nil {
			return Request{}, err
		}
	}
	return req, nil
}

// decodeQueryBody decodes a POST /v1/query body. The scanner takes the
// canonical shape; everything else — which includes every body that is
// going to be refused — goes to the decoder the endpoint has always had,
// over the same bytes.
func decodeQueryBody(b []byte) (flatQuery, error) {
	s := jsonScan{b: b}
	var fq flatQuery
	if s.query(&fq); s.end() {
		return fq, nil
	}
	var qr QueryRequest
	if err := strictDecode(b, &qr); err != nil {
		return flatQuery{}, err
	}
	return qr.flat(), nil
}

// decodeBatchBody decodes a POST /v1/batch body, an array of /v1/query
// bodies, the same way: one element the scanner does not take sends the
// whole body to encoding/json. So does a batch over maxHTTPBatch — the
// handler words that refusal, and needs the count.
func decodeBatchBody(b []byte) ([]flatQuery, error) {
	if fqs, ok := scanBatchBody(b); ok {
		return fqs, nil
	}
	var qrs []QueryRequest
	if err := strictDecode(b, &qrs); err != nil {
		return nil, err
	}
	fqs := make([]flatQuery, len(qrs))
	for i := range qrs {
		fqs[i] = qrs[i].flat()
	}
	return fqs, nil
}

// strictDecode is the slow path: encoding/json as both POST handlers have
// always configured it, reading the body's first value.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// scanBatchBody is the fast half of decodeBatchBody.
func scanBatchBody(b []byte) ([]flatQuery, bool) {
	s := jsonScan{b: b}
	if !s.eat('[') {
		return nil, false
	}
	var fqs []flatQuery
	if !s.eat(']') {
		for {
			if len(fqs) == maxHTTPBatch {
				return nil, false
			}
			fqs = append(fqs, flatQuery{})
			s.query(&fqs[len(fqs)-1])
			if s.eat(']') {
				break
			}
			if s.bad || !s.eat(',') {
				return nil, false
			}
		}
	}
	return fqs, s.end()
}

// jsonScan is a strict single-pass cursor over one request body. It is
// sticky like binenc.Reader: the first byte outside the canonical shape
// sets bad, and the caller checks once, at the end. Canonical means
// exact-case known keys, each at most once; strings without escapes,
// control or non-ASCII bytes; JSON-grammar numbers that fit a float64; no
// null. Anything else may still be valid JSON — that is for the slow path
// to say.
type jsonScan struct {
	b   []byte
	i   int
	bad bool
}

// end reports whether the scan succeeded and only whitespace is left.
func (s *jsonScan) end() bool {
	s.space()
	return !s.bad && s.i == len(s.b)
}

func (s *jsonScan) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// peek returns the next byte, 0 at the end of the body.
func (s *jsonScan) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// eat skips whitespace and consumes c if it is next.
func (s *jsonScan) eat(c byte) bool {
	s.space()
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// str consumes a string and returns its contents, which alias the body.
func (s *jsonScan) str() []byte {
	if !s.eat('"') {
		s.bad = true
		return nil
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// digits consumes a run of digits and reports whether there was one.
func (s *jsonScan) digits() bool {
	start := s.i
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.i++
	}
	return s.i > start
}

// num consumes a number of the JSON grammar — which is narrower than what
// strconv.ParseFloat takes: no "+1", "01", "1.", ".5", hex, "inf" or
// underscores — and converts it the way encoding/json does.
func (s *jsonScan) num() float64 {
	s.space()
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else if !s.digits() {
		s.bad = true
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			s.bad = true
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			s.bad = true
		}
	}
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil { // out of range: encoding/json refuses it too
		s.bad = true
	}
	return f
}

// open enters the object under the cursor and reports whether it has a
// first member.
func (s *jsonScan) open() bool {
	if !s.eat('{') {
		s.bad = true
	}
	return !s.bad && !s.eat('}')
}

// more, after a member's value, reports whether another member follows
// rather than the closing brace.
func (s *jsonScan) more() bool {
	if s.bad || s.eat('}') {
		return false
	}
	if !s.eat(',') {
		s.bad = true
	}
	return !s.bad
}

// key consumes a member's key and the colon after it.
func (s *jsonScan) key() []byte {
	key := s.str()
	if !s.eat(':') {
		s.bad = true
	}
	return key
}

// once marks a key as seen, failing the scan on its second appearance
// (encoding/json lets the last one win; the slow path reproduces that).
func (s *jsonScan) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

func (s *jsonScan) query(fq *flatQuery) {
	var seen uint8
	for ok := s.open(); ok; ok = s.more() {
		switch string(s.key()) {
		case "tenant":
			s.once(&seen, 1)
			fq.tenant = string(s.str())
		case "template":
			s.once(&seen, 2)
			fq.template = string(s.str())
		case "selectivity":
			s.once(&seen, 4)
			fq.selectivity, fq.hasSelectivity = s.num(), true
		case "budget":
			s.once(&seen, 8)
			s.budget(&fq.budget)
			fq.hasBudget = true
		default:
			s.bad = true
		}
	}
}

func (s *jsonScan) budget(b *BudgetJSON) {
	var seen uint8
	for ok := s.open(); ok; ok = s.more() {
		switch string(s.key()) {
		case "shape":
			s.once(&seen, 1)
			b.Shape = shapeName(s.str())
		case "price_usd":
			s.once(&seen, 2)
			b.PriceUSD = s.num()
		case "tmax_s":
			s.once(&seen, 4)
			b.TmaxSec = s.num()
		case "k":
			s.once(&seen, 8)
			b.K = s.num()
		default:
			s.bad = true
		}
	}
}

// shapeName converts a shape to a string without allocating for the four
// shapes that exist.
func shapeName(b []byte) string {
	switch string(b) {
	case "step":
		return "step"
	case "linear":
		return "linear"
	case "convex":
		return "convex"
	case "concave":
		return "concave"
	}
	return string(b)
}

// plainJSONString reports whether encoding/json writes s between quotes
// unchanged: no byte it escapes (quotes, backslashes, controls, the HTML
// trio) and nothing non-ASCII, which covers invalid UTF-8 and U+2028/9.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendJSONFloat writes a finite f as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with a
// one-digit exponent unpadded ("1e-07" becomes "1e-7").
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendResponse appends to dst what json.Marshal(r) returns — same keys,
// same order, same number and string forms — and reports false, with dst
// as it was, when only encoding/json can write r: a string that needs
// escaping or a float that is not finite (which encoding/json refuses).
func appendResponse(dst []byte, r *Response) ([]byte, bool) {
	if !plainJSONString(r.Template) || !plainJSONString(r.Location) {
		return dst, false
	}
	for _, f := range [...]float64{r.Selectivity, r.ArrivalSec, r.ResponseTimeSec, r.ChargedUSD, r.ProfitUSD} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, false
		}
	}
	dst = append(dst, `{"query_id":`...)
	dst = strconv.AppendInt(dst, r.QueryID, 10)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(r.Shard), 10)
	dst = append(dst, `,"template":"`...)
	dst = append(dst, r.Template...)
	dst = append(dst, `","selectivity":`...)
	dst = appendJSONFloat(dst, r.Selectivity)
	dst = append(dst, `,"arrival_s":`...)
	dst = appendJSONFloat(dst, r.ArrivalSec)
	dst = append(dst, `,"declined":`...)
	dst = strconv.AppendBool(dst, r.Declined)
	dst = append(dst, `,"location":"`...)
	dst = append(dst, r.Location...)
	dst = append(dst, `","response_time_s":`...)
	dst = appendJSONFloat(dst, r.ResponseTimeSec)
	dst = append(dst, `,"charged_usd":`...)
	dst = appendJSONFloat(dst, r.ChargedUSD)
	dst = append(dst, `,"profit_usd":`...)
	dst = appendJSONFloat(dst, r.ProfitUSD)
	dst = append(dst, `,"investments":`...)
	dst = strconv.AppendInt(dst, int64(r.Investments), 10)
	dst = append(dst, `,"failures":`...)
	dst = strconv.AppendInt(dst, int64(r.Failures), 10)
	return append(dst, '}'), true
}

// appendBatchReply appends what json.Marshal of the POST /v1/batch reply
// ([]BatchResponseItem built from items) returns, declining as
// appendResponse does — also for an error text that needs escaping.
func appendBatchReply(dst []byte, items []BatchItem) ([]byte, bool) {
	mark := len(dst)
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		if err := items[i].Err; err != nil {
			msg := err.Error()
			if msg == "" || !plainJSONString(msg) {
				return dst[:mark], false
			}
			dst = append(dst, `{"error":"`...)
			dst = append(dst, msg...)
			dst = append(dst, `"}`...)
			continue
		}
		dst = append(dst, `{"response":`...)
		var ok bool
		if dst, ok = appendResponse(dst, &items[i].Resp); !ok {
			return dst[:mark], false
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}
