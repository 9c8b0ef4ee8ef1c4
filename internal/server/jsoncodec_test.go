package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/catalog"
	"repro/internal/scheme"
)

// encodeWithEncodingJSON is the reply body as the handlers wrote it before
// the codec: json.Encoder.Encode into the ResponseWriter.
func encodeWithEncodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomFloat spans what a float64 field can hold: zeros of both signs,
// integers, 40 decades of magnitude either side of one — across both of
// encoding/json's format switches, 1e-6 and 1e21 — the switch points and
// their neighbours, denormals and the extremes.
func randomFloat(rng *rand.Rand) float64 {
	var f float64
	switch rng.Intn(8) {
	case 0:
		f = 0
	case 1:
		f = float64(rng.Intn(2000))
	case 2:
		edge := []float64{1e-6, 1e21, 1e-7, 1e20, 1e-5, 1e22, math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1, 1e-9, 1e-10, 1e100}[rng.Intn(12)]
		f = []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1))}[rng.Intn(3)]
	case 3:
		f = math.Float64frombits(rng.Uint64()) // any bit pattern, NaN and Inf included
	default:
		f = rng.Float64() * math.Pow(10, float64(rng.Intn(81)-40))
	}
	if rng.Intn(4) == 0 {
		f = -f
	}
	return f
}

func randomResponse(rng *rand.Rand) Response {
	name := func() string {
		if rng.Intn(12) == 0 { // what encoding/json escapes or replaces
			hostile := []string{"a<b", `q"uote`, `back\slash`, "tab\there", "é", "\u2028", "\xff", "a&b", "x>y", "\x7f\x00"}
			return hostile[rng.Intn(len(hostile))]
		}
		plain := []string{"Q6", "Q1", "", "backend", "cache", "plain name", "~!@#$%^*()_+-=[]{}|;:',./?`"}
		return plain[rng.Intn(len(plain))]
	}
	return Response{
		QueryID:         rng.Int63() - rng.Int63(),
		Shard:           rng.Intn(64) - 1,
		Template:        name(),
		Selectivity:     randomFloat(rng),
		ArrivalSec:      randomFloat(rng),
		Declined:        rng.Intn(2) == 0,
		Location:        name(),
		ResponseTimeSec: randomFloat(rng),
		ChargedUSD:      randomFloat(rng),
		ProfitUSD:       randomFloat(rng),
		Investments:     rng.Intn(5),
		Failures:        rng.Intn(3) - 1,
		TraceSeq:        rng.Int63n(3), // never on the wire
	}
}

// TestResponseEncodeMatchesEncodingJSON: for any Response, appendResponse
// writes exactly json.Encoder's bytes (less the newline the handler adds)
// or declines — and it declines only what it must: a string encoding/json
// would not copy verbatim, a float it refuses.
func TestResponseEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	encoded, declined := 0, 0
	prefix := []byte("kept:")
	n := 150_000
	if raceEnabled { // one goroutine, pure functions: the detector only slows it
		n /= 10
	}
	for i := 0; i < n; i++ {
		resp := randomResponse(rng)
		got, ok := appendResponse(prefix, &resp)
		if !ok {
			declined++
			if !bytes.Equal(got, prefix) {
				t.Fatalf("declined %+v but left %q behind", resp, got)
			}
			finite := true
			for _, f := range []float64{resp.Selectivity, resp.ArrivalSec, resp.ResponseTimeSec, resp.ChargedUSD, resp.ProfitUSD} {
				finite = finite && !math.IsNaN(f) && !math.IsInf(f, 0)
			}
			if finite && plainJSONString(resp.Template) && plainJSONString(resp.Location) {
				t.Fatalf("declined %+v, which needs no escaping and is finite", resp)
			}
			continue
		}
		encoded++
		want := append(append([]byte(nil), prefix...), encodeWithEncodingJSON(t, resp)...)
		if !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("response %+v:\n got %s\nwant %s", resp, got, want)
		}
	}
	if encoded < n*2/3 || declined < n/15 {
		t.Errorf("encoded %d, declined %d: the generator stopped covering both sides", encoded, declined)
	}
}

// TestPlainJSONStringMatchesEncodingJSON: a string is "plain" only if
// encoding/json writes it between quotes untouched.
func TestPlainJSONStringMatchesEncodingJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "a" + string([]byte{byte(c)}) + "z"
		if !plainJSONString(s) {
			continue
		}
		if got, want := string(encodeWithEncodingJSON(t, s)), `"`+s+`"`+"\n"; got != want {
			t.Errorf("byte %#x passes as plain but encoding/json writes %q", c, got)
		}
	}
}

// TestBatchReplyEncodeMatchesEncodingJSON holds appendBatchReply to the
// []BatchResponseItem encoding the same way.
func TestBatchReplyEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	errs := []error{nil, nil, nil, errors.New("shard 3 is not owned"), errors.New(`unknown template "Q999"`), errors.New("")}
	encoded := 0
	for i := 0; i < 5_000; i++ {
		items := make([]BatchItem, rng.Intn(5))
		for j := range items {
			items[j] = BatchItem{Resp: randomResponse(rng), Err: errs[rng.Intn(len(errs))]}
			if rng.Intn(3) > 0 { // keep most batches encodable
				items[j].Resp.Template, items[j].Resp.Location = "Q6", "cache"
				items[j].Resp.Selectivity, items[j].Resp.ArrivalSec, items[j].Resp.ResponseTimeSec = 0.25, 1e-7, 3
				items[j].Resp.ChargedUSD, items[j].Resp.ProfitUSD = 1e21, -0.5
			}
		}
		got, ok := appendBatchReply(nil, items)
		if !ok {
			if len(got) != 0 {
				t.Fatalf("declined but left %q behind", got)
			}
			continue
		}
		encoded++
		out := make([]BatchResponseItem, len(items))
		for j := range items {
			if items[j].Err != nil {
				out[j].Error = items[j].Err.Error()
			} else {
				out[j].Response = &items[j].Resp
			}
		}
		if want := encodeWithEncodingJSON(t, out); !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("batch %+v:\n got %s\nwant %s", items, got, want)
		}
	}
	if encoded < 500 {
		t.Errorf("only %d batches encoded", encoded)
	}
}

// queryBodySeeds is every POST body the HTTP tests send, plus the shapes
// the scanner must hand to encoding/json rather than judge itself.
var queryBodySeeds = []string{
	// http_test.go
	`{"tenant":"alice","template":"Q6","selectivity":0.0096,"budget":{"shape":"step","price_usd":0.002,"tmax_s":3600}}`,
	`{"template":"Q1"}`,
	`{`,
	`{"template":"Q1","frobnicate":1}`,
	`{}`,
	`{"template":"Q999"}`,
	`{"template":"Q1","budget":{"shape":"cubic","price_usd":1,"tmax_s":60}}`,
	`{"template":"Q1","budget":{"price_usd":-1,"tmax_s":60}}`,
	`{"template":"Q1","budget":{"price_usd":1,"tmax_s":0}}`,
	`{"template":"Q6","budget":{"shape":"convex","price_usd":0.01,"tmax_s":3600,"k":2}}`,
	`{"tenant":"t3","template":"Q6"}`,
	`{"template":"Q6","selectivity":0}`,
	`[{"tenant":"a","template":"Q6","selectivity":0.0096},
	  {"tenant":"b","template":"Q999"},
	  {"tenant":"a","template":"Q1"}]`,
	`[]`,
	`[{"template":"Q1","budget":{"price_usd":-1,"tmax_s":60}}]`,
	`[{"tenant":"a"}]`,
	`[{"tenant":"t0","template":"Q6"},{"tenant":"t1","template":"Q1"},{"tenant":"t0","template":"Q3"}]`,
	// duplicate keys: encoding/json lets the last win, and merges budgets
	`{"template":"Q1","template":"Q6"}`,
	`{"template":"Q1","budget":{"price_usd":1,"tmax_s":60},"budget":{"shape":"linear"}}`,
	`{"template":"Q1","budget":{"price_usd":1,"price_usd":2,"tmax_s":60}}`,
	// nulls
	`null`,
	`{"template":null}`,
	`{"template":"Q1","selectivity":null}`,
	`{"template":"Q1","budget":null}`,
	`{"template":"Q1","budget":{"k":null,"price_usd":1,"tmax_s":1}}`,
	`[null]`,
	// keys encoding/json matches without regard to case
	`{"Template":"Q1"}`,
	`{"TEMPLATE":"Q1","Tenant":"x"}`,
	`{"template":"Q1","budget":{"Price_USD":1,"tmax_s":1}}`,
	// numbers outside the JSON grammar or a float64, and at its edges
	`{"template":"Q1","selectivity":1.}`,
	`{"template":"Q1","selectivity":+1}`,
	`{"template":"Q1","selectivity":01}`,
	`{"template":"Q1","selectivity":.5}`,
	`{"template":"Q1","selectivity":-}`,
	`{"template":"Q1","selectivity":1e}`,
	`{"template":"Q1","selectivity":1e+}`,
	`{"template":"Q1","selectivity":0x10}`,
	`{"template":"Q1","selectivity":1_0}`,
	`{"template":"Q1","selectivity":Infinity}`,
	`{"template":"Q1","selectivity":NaN}`,
	`{"template":"Q1","selectivity":1e999}`,
	`{"template":"Q1","selectivity":-1e-999}`,
	`{"template":"Q1","selectivity":-0}`,
	`{"template":"Q1","selectivity":-0.0e-0}`,
	`{"template":"Q1","selectivity":1E5}`,
	`{"template":"Q1","selectivity":0.1234567890123456789012345678901234567890}`,
	`{"template":"Q1","selectivity":"0.5"}`,
	`{"template":"Q1","selectivity":true}`,
	`{"template":"Q1","selectivity":[0.5]}`,
	// strings the scanner does not read itself
	`{"template":"Q\u0031"}`,
	`{"template":"Q1\n"}`,
	`{"tenant":"a\"b","template":"Q1"}`,
	`{"tenant":"a\\b","template":"Q1"}`,
	`{"tenant":"é","template":"Q1"}`,
	"{\"tenant\":\"\xff\",\"template\":\"Q1\"}",
	"{\"tenant\":\"a\tb\",\"template\":\"Q1\"}",
	`{"tenant":"","template":""}`,
	`{"tem\u0070late":"Q1"}`,
	`{"":1}`,
	`{"template":"Q1","budget":{"shape":"","price_usd":1,"tmax_s":1}}`,
	`{"template":"Q1","budget":{"shape":"Linear","price_usd":1,"tmax_s":1}}`,
	// structure
	` { "template" : "Q1" , "tenant" : "t" } `,
	"\t\r\n{\"template\":\"Q1\"}\r\n",
	`{"template":"Q1",}`,
	`{,"template":"Q1"}`,
	`{"template" "Q1"}`,
	`{"template":"Q1" "tenant":"t"}`,
	`{"template":"Q1"}}`,
	`{"template":"Q1"} trailing`,
	`{"template":"Q1"}{"template":"Q6"}`,
	`{"template":"Q1"}` + "\x00",
	`{"template":"Q1","budget":{}}`,
	`{"template":"Q1","budget":[]}`,
	`{"template":"Q1","budget":{"price_usd":1,"tmax_s":1,"extra":{}}}`,
	`"Q1"`,
	`42`,
	``,
	`   `,
	`[{"template":"Q1"},]`,
	`[{"template":"Q1"}`,
	`[{"template":"Q1"}{"template":"Q1"}]`,
	`[{"template":"Q1"}] x`,
	`[[{"template":"Q1"}]]`,
	`[,]`,
	`[{"template":"Q1"},{"template":"Q6","selectivity":1e999}]`,
}

// FuzzQueryRequestDecode: the scanner never accepts what encoding/json
// (with DisallowUnknownFields, as the handlers configure it) would refuse
// or read differently. Bytes are tried as a /v1/query body and as a
// /v1/batch body.
func FuzzQueryRequestDecode(f *testing.F) {
	for _, seed := range queryBodySeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		scan := jsonScan{b: body}
		var fq flatQuery
		if scan.query(&fq); scan.end() {
			var want QueryRequest
			if err := strictDecode(body, &want); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json says %v", body, err)
			}
			if fq != want.flat() {
				t.Fatalf("body %q: scanner read %+v, encoding/json %+v", body, fq, want.flat())
			}
			if trailingValue(body) {
				t.Fatalf("scanner accepted %q, which has more than one value", body)
			}
		}
		if fqs, ok := scanBatchBody(body); ok {
			var want []QueryRequest
			if err := strictDecode(body, &want); err != nil {
				t.Fatalf("scanner accepted batch %q, encoding/json says %v", body, err)
			}
			if len(fqs) != len(want) {
				t.Fatalf("batch %q: scanner read %d items, encoding/json %d", body, len(fqs), len(want))
			}
			for i := range fqs {
				if fqs[i] != want[i].flat() {
					t.Fatalf("batch %q item %d: scanner read %+v, encoding/json %+v", body, i, fqs[i], want[i].flat())
				}
			}
			if trailingValue(body) {
				t.Fatalf("scanner accepted batch %q, which has more than one value", body)
			}
		}
		// Whichever half decodes, the handlers see encoding/json's verdict.
		got, gotErr := decodeQueryBody(body)
		var want QueryRequest
		if wantErr := strictDecode(body, &want); (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && gotErr.Error() != wantErr.Error() || gotErr == nil && got != want.flat() {
			t.Fatalf("body %q: decodeQueryBody = %+v, %v; encoding/json = %+v, %v", body, got, gotErr, want.flat(), wantErr)
		}
	})
}

// trailingValue reports whether anything but whitespace follows the first
// JSON value of body. The handlers' decoder never looks there; the scanner
// is stricter and must leave such bodies to it.
func trailingValue(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var first json.RawMessage
	if err := dec.Decode(&first); err != nil {
		return false
	}
	return len(bytes.TrimSpace(body[dec.InputOffset():])) > 0
}

// TestScannerTakesTheCanonicalBodies: the differential above is vacuous if
// the scanner accepts nothing. These are the bodies clients send (the
// benchmark's, workloadgen's, the README's); each must take the fast path.
func TestScannerTakesTheCanonicalBodies(t *testing.T) {
	sel := 0.0096
	marshalled, err := json.Marshal(QueryRequest{Tenant: "t17", Template: "Q6", Selectivity: &sel,
		Budget: &BudgetJSON{Shape: "convex", PriceUSD: 0.00212, TmaxSec: 1800, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		string(marshalled),
		`{"template":"Q1"}`,
		`{"tenant":"alice","template":"Q6","selectivity":0.0096,"budget":{"shape":"step","price_usd":0.002,"tmax_s":3600}}`,
		` { "template" : "Q1" , "selectivity" : 1e-3 } ` + "\n",
		`{}`,
	} {
		scan := jsonScan{b: []byte(body)}
		if scan.query(new(flatQuery)); !scan.end() {
			t.Errorf("scanner declined %s", body)
		}
		if _, ok := scanBatchBody([]byte("[" + body + "," + body + "]")); !ok {
			t.Errorf("scanner declined a batch of %s", body)
		}
	}
	if fqs, ok := scanBatchBody([]byte(` [ ] `)); !ok || len(fqs) != 0 {
		t.Errorf("empty batch: %d items, ok %v", len(fqs), ok)
	}
}

// replyRecorder is a reusable ResponseWriter: it keeps the last reply and
// allocates nothing once its buffer has grown.
type replyRecorder struct {
	header http.Header
	status int
	body   []byte
}

func (w *replyRecorder) Header() http.Header { return w.header }
func (w *replyRecorder) WriteHeader(status int) {
	w.status = status
}
func (w *replyRecorder) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// rewindBody is a request body that can be read again after Reset.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestHandleQueryAllocs gates the count, not the clock: one POST /v1/query
// with an explicit budget costs the handler — body read, decode, Submit,
// encode, reply — this many allocations and no more: the tenant and
// template strings the engine may keep, and the boxed budget.Func.
func TestHandleQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	const handlerAllocs = 3

	srv, err := New(Config{Shards: 1, Params: scheme.DefaultParams(catalog.TPCH(20)), Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	body := []byte(`{"tenant":"alice","template":"Q6","selectivity":0.0096,"budget":{"shape":"linear","price_usd":0.002,"tmax_s":3600}}`)
	rb := &rewindBody{}
	req, err := http.NewRequest(http.MethodPost, "/v1/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body, req.ContentLength = rb, int64(len(body))
	w := &replyRecorder{header: http.Header{}}
	post := func() {
		rb.Reset(body)
		w.status, w.body = 0, w.body[:0]
		srv.handleQuery(w, req)
	}
	post()
	var resp Response
	if err := json.Unmarshal(w.body, &resp); err != nil || w.status != http.StatusOK || resp.Template != "Q6" || resp.QueryID != 1 {
		t.Fatalf("status %d, body %q, err %v", w.status, w.body, err)
	}
	if want := encodeWithEncodingJSON(t, resp); !bytes.Equal(w.body, want) {
		t.Fatalf("reply %q is not encoding/json's %q", w.body, want)
	}
	if got := testing.AllocsPerRun(200, post); got != handlerAllocs {
		t.Errorf("handleQuery allocates %.1f times per request, want %d", got, handlerAllocs)
	}
	if w.status != http.StatusOK {
		t.Fatalf("status %d, body %q", w.status, w.body)
	}

	// The slow path still answers, and costs what it always did — more.
	body = []byte(`{"Tenant":"alice","template":"Q6"}`)
	req.ContentLength = int64(len(body))
	if got := testing.AllocsPerRun(50, post); got <= handlerAllocs {
		t.Errorf("the encoding/json path allocates %.1f times: is it still taken?", got)
	}
	if w.status != http.StatusOK {
		t.Fatalf("slow path: status %d, body %q", w.status, w.body)
	}
}

// TestBodyBufferPoolBounds: a buffer that grew for a large batch is not
// kept; an ordinary one is.
func TestBodyBufferPoolBounds(t *testing.T) {
	small, large := new(bytes.Buffer), new(bytes.Buffer)
	small.Grow(512)
	large.Grow(maxPooledBuf + 1)
	small.WriteString("x")
	putBodyBuf(small)
	if small.Len() != 0 {
		t.Error("a pooled buffer must go back empty")
	}
	large.WriteString("x")
	putBodyBuf(large)
	if large.Len() != 1 {
		t.Error("an oversized buffer was reset, so it was pooled")
	}
	if maxBodyBytes < maxHTTPBatch*128 {
		t.Errorf("maxBodyBytes %d cannot hold a full batch of ordinary items", maxBodyBytes)
	}
}
