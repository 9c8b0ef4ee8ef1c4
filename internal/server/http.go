package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/money"
	"repro/internal/obs"
)

// QueryRequest is the JSON body of POST /v1/query and one element of
// POST /v1/batch. Selectivity is a pointer so an explicit
// `"selectivity": 0` is distinguishable from an absent field: absent
// draws from the template's range, zero clamps to the template's
// minimum like any other out-of-range value.
type QueryRequest struct {
	Tenant      string      `json:"tenant,omitempty"`
	Template    string      `json:"template"`
	Selectivity *float64    `json:"selectivity,omitempty"`
	Budget      *BudgetJSON `json:"budget,omitempty"`
}

// BudgetJSON is the wire form of a user budget function B_Q(t): a shape
// name plus the headline price and support (Fig. 1).
type BudgetJSON struct {
	// Shape is "step", "linear", "convex" or "concave". Default "step".
	Shape string `json:"shape,omitempty"`
	// PriceUSD is the headline willingness to pay.
	PriceUSD float64 `json:"price_usd"`
	// TmaxSec is the largest tolerated response time, seconds.
	TmaxSec float64 `json:"tmax_s"`
	// K is the curvature of convex/concave shapes; <=1 means 2.
	K float64 `json:"k,omitempty"`
}

// Func materialises the budget function. A nil receiver returns nil (use
// the server's default policy).
func (b *BudgetJSON) Func() (budget.Func, error) {
	if b == nil {
		return nil, nil
	}
	if b.PriceUSD <= 0 {
		return nil, fmt.Errorf("budget: price_usd must be positive")
	}
	if b.TmaxSec <= 0 {
		return nil, fmt.Errorf("budget: tmax_s must be positive")
	}
	price := money.FromDollars(b.PriceUSD)
	tmax := time.Duration(b.TmaxSec * float64(time.Second))
	switch b.Shape {
	case "", "step":
		return budget.NewStep(price, tmax), nil
	case "linear":
		return budget.NewLinear(price, tmax), nil
	case "convex":
		return budget.NewConvex(price, tmax, b.K), nil
	case "concave":
		return budget.NewConcave(price, tmax, b.K), nil
	default:
		return nil, fmt.Errorf("budget: unknown shape %q", b.Shape)
	}
}

// Health is the JSON body of GET /healthz.
type Health struct {
	Status   string  `json:"status"`
	Scheme   string  `json:"scheme"`
	Shards   int     `json:"shards"`
	ClockSec float64 `json:"clock_s"`
	Queries  int64   `json:"queries"`
	Draining bool    `json:"draining"`
}

// errorJSON is the wire form of a request failure.
type errorJSON struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/query      — submit one query (QueryRequest -> Response)
//	POST /v1/batch      — submit many ([]QueryRequest -> []BatchResponseItem)
//	GET  /v1/stats      — live aggregate + per-shard metrics (Stats); ?pretty=1 indents
//	GET  /v1/structures — resident structures across shards; ?pretty=1 indents
//	GET  /v1/trace      — sampled per-query decision traces; ?tenant= ?template= ?n=
//	GET  /v1/events     — economy event journal; ?type= ?tenant= ?n=
//	GET  /metrics       — Prometheus text exposition
//	GET  /healthz       — liveness plus headline counters (Health)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/structures", s.handleStructures)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/events", s.handleEvents)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// writeJSON encodes v compactly — the hot /v1/query path pays no
// indentation — and reports encode failures instead of swallowing them:
// the status line is already on the wire by then, so the best we can do
// is log with the request's context and let the truncated body fail the
// client's decode.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	writeJSONIndent(w, r, status, v, false)
}

func writeJSONIndent(w http.ResponseWriter, r *http.Request, status int, v any, indent bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		slog.Error("server: encoding response failed",
			"type", fmt.Sprintf("%T", v),
			"method", r.Method,
			"path", r.URL.Path,
			"remote", r.RemoteAddr,
			"err", err)
	}
}

// wantPretty reports whether the client asked for indented output
// (?pretty=1) on the read endpoints.
func wantPretty(r *http.Request) bool {
	p := r.URL.Query().Get("pretty")
	return p == "1" || p == "true"
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, r, status, errorJSON{Error: err.Error()})
}

// maxBodyBytes bounds a POST body on /v1/query and /v1/batch — room for a
// full maxHTTPBatch of generously sized items. A declared Content-Length
// over it is refused before a byte is read; a body of undeclared length
// is cut off at it.
const maxBodyBytes = 1 << 20

// bodyBufs recycles the buffer a POST handler reads its body into and
// then builds its reply in. maxPooledBuf keeps an occasional large batch
// from parking its megabyte in the pool.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 16 << 10

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

// readBody reads the request body into buf, enforcing maxBodyBytes, and
// answers the request itself when it cannot: 413 for an oversized body,
// 400 for one that could not be read.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) bool {
	if r.ContentLength <= maxBodyBytes {
		body := r.Body
		if r.ContentLength < 0 {
			// net/http already stops a declared length at its end; only an
			// undeclared one needs the guard (and its allocation).
			body = http.MaxBytesReader(w, body, maxBodyBytes)
		}
		_, err := buf.ReadFrom(body)
		if err == nil {
			return true
		}
		if tooLarge := new(http.MaxBytesError); !errors.As(err, &tooLarge) {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return false
		}
	}
	writeError(w, r, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes))
	return false
}

// jsonContentType is the Content-Type value of every raw reply, shared:
// net/http reads header values and never writes to them, and a per-reply
// Header().Set would allocate this slice anew.
var jsonContentType = []string{"application/json"}

// writeRawJSON sends a 200 whose body is already encoded, in one Write.
func writeRawJSON(w http.ResponseWriter, r *http.Request, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		slog.Error("server: writing response failed",
			"method", r.Method,
			"path", r.URL.Path,
			"remote", r.RemoteAddr,
			"err", err)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	// Stage timing is paid only while tracing is live: one clock read
	// pair around the body decode, another around the reply encode.
	tr := s.Tracer()
	traceOn := tr != nil && tr.Enabled()
	var decStart time.Time
	if traceOn {
		decStart = time.Now()
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	if !readBody(w, r, buf) {
		return
	}
	fq, err := decodeQueryBody(buf.Bytes())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if fq.template == "" {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("template is required"))
		return
	}
	req, err := fq.request()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if traceOn {
		req.DecodeNanos = time.Since(decStart).Nanoseconds()
	}
	resp, err := s.Submit(r.Context(), req)
	switch {
	case errors.Is(err, ErrServerClosed):
		writeError(w, r, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrUnknownTemplate):
		writeError(w, r, http.StatusBadRequest, err)
	case errors.Is(err, ErrShardNotOwned):
		// A cluster backend answering direct traffic for a shard it
		// migrated away: the client is talking to the wrong backend.
		writeError(w, r, http.StatusMisdirectedRequest, err)
	case err != nil:
		writeError(w, r, http.StatusInternalServerError, err)
	default:
		var encStart time.Time
		if traceOn {
			encStart = time.Now()
		}
		// The request's bytes are spent; the reply is built where they were.
		buf.Reset()
		if body, ok := appendResponse(buf.AvailableBuffer(), &resp); ok {
			buf.Write(body)
			buf.WriteByte('\n') // json.Encoder ends every value with one
			writeRawJSON(w, r, buf.Bytes())
		} else {
			writeJSON(w, r, http.StatusOK, resp)
		}
		if traceOn && resp.TraceSeq != 0 {
			tr.SetEncode(resp.Shard, resp.TraceSeq, time.Since(encStart).Nanoseconds())
		}
	}
}

// BatchResponseItem is one positional element of the POST /v1/batch
// reply: exactly one of Response or Error is set.
type BatchResponseItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// maxHTTPBatch bounds one /v1/batch submission; larger batches gain
// nothing (they only delay the first reply) and unbounded ones are a
// memory hazard — which maxBodyBytes closes for the decode that has to
// happen before the items can be counted.
const maxHTTPBatch = 4096

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	tr := s.Tracer()
	traceOn := tr != nil && tr.Enabled()
	var decStart time.Time
	if traceOn {
		decStart = time.Now()
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	if !readBody(w, r, buf) {
		return
	}
	fqs, err := decodeBatchBody(buf.Bytes())
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(fqs) == 0 {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(fqs) > maxHTTPBatch {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds limit %d", len(fqs), maxHTTPBatch))
		return
	}
	reqs := make([]Request, len(fqs))
	for i := range fqs {
		// Malformed items are client errors for the whole request, same
		// as on /v1/query — they must not reach the shards and pollute
		// the Errors counter.
		if fqs[i].template == "" {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch[%d]: template is required", i))
			return
		}
		req, err := fqs[i].request()
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch[%d]: %w", i, err))
			return
		}
		reqs[i] = req
	}
	if traceOn {
		share := time.Since(decStart).Nanoseconds() / int64(len(reqs))
		for i := range reqs {
			reqs[i].DecodeNanos = share
		}
	}
	items, err := s.SubmitBatch(r.Context(), reqs)
	switch {
	case errors.Is(err, ErrServerClosed):
		writeError(w, r, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	var encStart time.Time
	if traceOn {
		encStart = time.Now()
	}
	buf.Reset()
	if body, ok := appendBatchReply(buf.AvailableBuffer(), items); ok {
		buf.Write(body)
		buf.WriteByte('\n')
		writeRawJSON(w, r, buf.Bytes())
	} else {
		out := make([]BatchResponseItem, len(items))
		for i := range items {
			if items[i].Err != nil {
				out[i].Error = items[i].Err.Error()
			} else {
				out[i].Response = &items[i].Resp
			}
		}
		writeJSON(w, r, http.StatusOK, out)
	}
	if traceOn {
		// Back-fill the encode stage into the sampled records; the whole
		// reply body shares one encode, amortized per item.
		share := time.Since(encStart).Nanoseconds() / int64(len(items))
		for i := range items {
			if items[i].Err == nil && items[i].Resp.TraceSeq != 0 {
				tr.SetEncode(items[i].Resp.Shard, items[i].Resp.TraceSeq, share)
			}
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	writeJSONIndent(w, r, http.StatusOK, s.Stats(), wantPretty(r))
}

func (s *Server) handleStructures(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	structures := s.Structures()
	if structures == nil {
		structures = []StructureInfo{}
	}
	writeJSONIndent(w, r, http.StatusOK, structures, wantPretty(r))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	var queries int64
	var clockSec float64
	for _, sh := range s.shards {
		q, now := sh.quickCounters()
		queries += q
		if sec := now.Seconds(); sec > clockSec {
			clockSec = sec
		}
	}
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()
	writeJSON(w, r, http.StatusOK, Health{
		Status:   "ok",
		Scheme:   s.cfg.Scheme,
		Shards:   len(s.shards),
		ClockSec: clockSec,
		Queries:  queries,
		Draining: draining,
	})
}

// Readiness is the JSON body of GET /readyz: State is "ok" when the
// server should receive traffic, else "draining" (shutdown begun),
// "migrating" (a shard transfer is in progress) or — from the daemon's
// boot stub, before the engine exists — "restoring".
type Readiness struct {
	State string `json:"state"`
	Ready bool   `json:"ready"`
}

// handleReadyz splits readiness from liveness: /healthz answers 200 as
// long as the process serves, while /readyz goes non-200 the moment the
// server should stop receiving new traffic. The router's health loop
// keys off it during cutover.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	state, ready := s.ReadyState()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, r, status, Readiness{State: state, Ready: ready})
}

// intParam parses a non-negative integer query parameter, returning def
// when absent and an error when malformed.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s: want a non-negative integer, got %q", name, raw)
	}
	return n, nil
}

// TraceView is the JSON body of GET /v1/trace.
type TraceView struct {
	// SampleEvery echoes the active sampling period: 0 means sampling is
	// off, 1 every query, N one in N. -1 means the tracer is disabled
	// entirely (Config.TraceRing < 0).
	SampleEvery int64        `json:"sample_every"`
	Records     []obs.Record `json:"records"`
}

// defaultTraceN bounds an unqualified GET /v1/trace; the full rings are
// available with an explicit ?n=.
const defaultTraceN = 256

// TraceViewSnapshot builds the trace view both fronts (HTTP and the
// binary protocol's trace frame) serve. n <= 0 applies the default
// bound.
func (s *Server) TraceViewSnapshot(tenant, template string, n int) TraceView {
	if n <= 0 {
		n = defaultTraceN
	}
	view := TraceView{SampleEvery: -1, Records: []obs.Record{}}
	if tr := s.Tracer(); tr != nil {
		view.SampleEvery = tr.SampleEvery()
		if recs := s.TraceSnapshot(tenant, template, n); recs != nil {
			view.Records = recs
		}
	}
	return view
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	n, err := intParam(r, "n", defaultTraceN)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	writeJSONIndent(w, r, http.StatusOK, s.TraceViewSnapshot(q.Get("tenant"), q.Get("template"), n), wantPretty(r))
}

// EventsView is the JSON body of GET /v1/events: the exact running
// totals (which survive ring rotation) plus the most recent events that
// match the filters.
type EventsView struct {
	Totals EventTotalsView `json:"totals"`
	Events []obs.Event     `json:"events"`
}

// EventTotalsView reports the conservation counters in dollars: the
// journals' invest and evict totals, the economies' settlement counts
// and the ledgers' recovered dollars.
type EventTotalsView struct {
	Invests      int64   `json:"invests"`
	Evicts       int64   `json:"evicts"`
	Recovers     int64   `json:"recovers"`
	InvestedUSD  float64 `json:"invested_usd"`
	EvictedUSD   float64 `json:"evicted_usd"`
	RecoveredUSD float64 `json:"recovered_usd"`
}

// defaultEventsN bounds an unqualified GET /v1/events.
const defaultEventsN = 256

func totalsView(tot obs.Totals) EventTotalsView {
	return EventTotalsView{
		Invests:      tot.Invests,
		Evicts:       tot.Evicts,
		Recovers:     tot.Recovers,
		InvestedUSD:  tot.Invested.Dollars(),
		EvictedUSD:   tot.Evicted.Dollars(),
		RecoveredUSD: tot.Recovered.Dollars(),
	}
}

// EventsViewSnapshot builds the events view both fronts serve. n <= 0
// applies the default bound.
func (s *Server) EventsViewSnapshot(typ, tenant string, n int) EventsView {
	if n <= 0 {
		n = defaultEventsN
	}
	view := EventsView{Totals: totalsView(s.economyTotals()), Events: []obs.Event{}}
	if evs := s.EventsSnapshot(typ, tenant, n); evs != nil {
		view.Events = evs
	}
	return view
}

// EventsViewSince builds an incremental events view — every buffered
// event with Seq > since plus the running totals — and returns the new
// cursor (the highest Seq delivered, or since when nothing is new). This
// is the streaming form the binary protocol's events subscription uses.
func (s *Server) EventsViewSince(since int64) (EventsView, int64) {
	view := EventsView{Totals: totalsView(s.economyTotals()), Events: []obs.Event{}}
	if evs := s.EventsSince(since); evs != nil {
		view.Events = evs
	}
	cursor := since
	for i := range view.Events {
		if view.Events[i].Seq > cursor {
			cursor = view.Events[i].Seq
		}
	}
	return view, cursor
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	n, err := intParam(r, "n", defaultEventsN)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	q := r.URL.Query()
	typ := q.Get("type")
	if err := CheckEventType(typ); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSONIndent(w, r, http.StatusOK, s.EventsViewSnapshot(typ, q.Get("tenant"), n), wantPretty(r))
}
