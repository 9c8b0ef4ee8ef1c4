package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

func newHTTPServer(t *testing.T, opts ...func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{Shards: 4, Scheme: "econ-cheap", Params: testParams(testCatalog()), Clock: server.NewVirtualClock()}
	for _, opt := range opts {
		opt(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postQuery(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	return postBody(t, url+"/v1/query", body)
}

func postBody(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// bodyLimit is the server's bound on a POST body (maxBodyBytes).
const bodyLimit = 1 << 20

// postOversized checks both halves of the body bound on one route: valid
// JSON padded with whitespace to one byte over the limit is refused with
// 413 whether its length is declared (refused before a byte is read) or
// not (cut off while reading), and padded to exactly the limit it is
// served. The handler is driven directly: a real client may see its
// connection reset while it is still writing a body nobody will read.
func postOversized(t *testing.T, srv *server.Server, path, body string) {
	t.Helper()
	post := func(pad int, declared bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body+strings.Repeat(" ", pad-len(body))))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}
	for _, declared := range []bool{true, false} {
		if rec := post(bodyLimit+1, declared); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: body over the limit (length declared: %v): status = %d, want 413 (body %s)", path, declared, rec.Code, rec.Body)
		}
		if rec := post(bodyLimit, declared); rec.Code != http.StatusOK {
			t.Errorf("%s: body at the limit (length declared: %v): status = %d, want 200 (body %s)", path, declared, rec.Code, rec.Body)
		}
	}
}

func TestHTTPQuery(t *testing.T) {
	_, ts := newHTTPServer(t)
	resp, body := postQuery(t, ts.URL,
		`{"tenant":"alice","template":"Q6","selectivity":0.0096,"budget":{"shape":"step","price_usd":0.002,"tmax_s":3600}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var qr server.Response
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.QueryID == 0 {
		t.Error("missing query id")
	}
	if qr.Template != "Q6" {
		t.Errorf("template = %q", qr.Template)
	}
	if qr.Location != "backend" && qr.Location != "cache" {
		t.Errorf("location = %q", qr.Location)
	}
}

func TestHTTPQueryDefaultsBudget(t *testing.T) {
	_, ts := newHTTPServer(t)
	resp, body := postQuery(t, ts.URL, `{"template":"Q1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	srv, ts := newHTTPServer(t)
	postOversized(t, srv, "/v1/query", `{"template":"Q1"}`)
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown field", `{"template":"Q1","frobnicate":1}`, http.StatusBadRequest},
		{"no template", `{}`, http.StatusBadRequest},
		{"unknown template", `{"template":"Q999"}`, http.StatusBadRequest},
		{"bad shape", `{"template":"Q1","budget":{"shape":"cubic","price_usd":1,"tmax_s":60}}`, http.StatusBadRequest},
		{"bad price", `{"template":"Q1","budget":{"price_usd":-1,"tmax_s":60}}`, http.StatusBadRequest},
		{"bad tmax", `{"template":"Q1","budget":{"price_usd":1,"tmax_s":0}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postQuery(t, ts.URL, c.body)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (body %s)", c.name, resp.StatusCode, c.status, body)
		}
	}
	// GET on the query endpoint is rejected.
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/query status = %d", resp.StatusCode)
	}
}

func TestHTTPBudgetShapes(t *testing.T) {
	_, ts := newHTTPServer(t)
	for _, shape := range []string{"step", "linear", "convex", "concave"} {
		resp, body := postQuery(t, ts.URL, fmt.Sprintf(
			`{"template":"Q6","budget":{"shape":"%s","price_usd":0.01,"tmax_s":3600}}`, shape))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("shape %s: status = %d, body %s", shape, resp.StatusCode, body)
		}
	}
}

func TestHTTPStatsAndHealthz(t *testing.T) {
	_, ts := newHTTPServer(t)
	const n = 25
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postQuery(t, ts.URL, fmt.Sprintf(`{"tenant":"t%d","template":"Q6"}`, i%5))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Queries != n {
		t.Errorf("stats queries = %d, want %d", st.Queries, n)
	}
	if len(st.PerShard) != 4 {
		t.Errorf("per-shard entries = %d, want 4", len(st.PerShard))
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Queries != n || h.Shards != 4 || h.Draining {
		t.Errorf("healthz = %+v", h)
	}

	resp, err = http.Get(ts.URL + "/v1/structures")
	if err != nil {
		t.Fatal(err)
	}
	var structs []server.StructureInfo
	if err := json.NewDecoder(resp.Body).Decode(&structs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Cold server: the list is present (possibly empty), never null.
}

// TestHTTPExplicitZeroSelectivity: `"selectivity": 0` in the JSON body
// is an explicit request, not an invitation to draw randomly — it clamps
// to the template's minimum like any other out-of-range value.
func TestHTTPExplicitZeroSelectivity(t *testing.T) {
	_, ts := newHTTPServer(t)
	var selMin float64
	for _, tpl := range workload.PaperTemplates() {
		if tpl.Name == "Q6" {
			selMin = tpl.SelMin
		}
	}
	for i := 0; i < 3; i++ {
		resp, body := postQuery(t, ts.URL, `{"template":"Q6","selectivity":0}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		var qr server.Response
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Selectivity != selMin {
			t.Fatalf("explicit zero selectivity = %g, want SelMin %g", qr.Selectivity, selMin)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	srv, ts := newHTTPServer(t)
	resp, body := postBody(t, ts.URL+"/v1/batch",
		`[{"tenant":"a","template":"Q6","selectivity":0.0096},
		  {"tenant":"b","template":"Q999"},
		  {"tenant":"a","template":"Q1"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var items []server.BatchResponseItem
	if err := json.Unmarshal(body, &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("items = %d, want 3", len(items))
	}
	if items[0].Response == nil || items[0].Response.Template != "Q6" {
		t.Errorf("item 0 = %+v", items[0])
	}
	if items[1].Error == "" || items[1].Response != nil {
		t.Errorf("item 1 = %+v, want per-item error", items[1])
	}
	if items[2].Response == nil || items[2].Response.Template != "Q1" {
		t.Errorf("item 2 = %+v", items[2])
	}
	st := srv.Stats()
	if st.Queries != 2 || st.Errors != 1 {
		t.Errorf("queries/errors = %d/%d, want 2/1", st.Queries, st.Errors)
	}

	postOversized(t, srv, "/v1/batch", `[{"template":"Q1"}]`)

	// Malformed batches are whole-request errors.
	for name, body := range map[string]string{
		"empty":                 `[]`,
		"not a list":            `{"template":"Q1"}`,
		"bad budget":            `[{"template":"Q1","budget":{"price_usd":-1,"tmax_s":60}}]`,
		"item missing template": `[{"tenant":"a"}]`,
	} {
		resp, _ := postBody(t, ts.URL+"/v1/batch", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestHTTPStatsPretty: the hot paths answer compact JSON; ?pretty=1
// keeps the human-readable form on the read endpoints.
func TestHTTPStatsPretty(t *testing.T) {
	_, ts := newHTTPServer(t)
	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if compact := get("/v1/stats"); strings.Contains(compact, "\n  ") {
		t.Error("/v1/stats default output is indented")
	}
	if pretty := get("/v1/stats?pretty=1"); !strings.Contains(pretty, "\n  ") {
		t.Error("/v1/stats?pretty=1 output is not indented")
	}
	if _, body := postQuery(t, ts.URL, `{"template":"Q1"}`); bytes.Contains(body, []byte("\n  ")) {
		t.Error("/v1/query response is indented")
	}
}

func TestHTTPAfterShutdown(t *testing.T) {
	srv, ts := newHTTPServer(t)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postQuery(t, ts.URL, `{"template":"Q1"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown status = %d, body %s", resp.StatusCode, body)
	}
	// Read-only endpoints keep working for post-drain inspection.
	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("stats after shutdown = %d", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.Health
	if err := json.NewDecoder(r.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !h.Draining {
		t.Error("healthz must report draining")
	}
}

// TestHTTPInlineCounter reads the fast path from outside: on an idle
// engine lone POST /v1/query requests and a POST /v1/batch are all decided
// inline, with a DecideDelay hook all of them go through the mailbox, and
// per shard /v1/stats and /metrics agree that inline + mailbox decisions
// make up `queries`.
func TestHTTPInlineCounter(t *testing.T) {
	const singles, batched = 9, 3
	for _, arm := range []struct {
		name            string
		opts            []func(*server.Config)
		inline, mailbox int64
	}{
		{"idle", nil, singles + batched, 0},
		{"forced-mailbox", []func(*server.Config){forceMailbox}, 0, singles + batched},
	} {
		t.Run(arm.name, func(t *testing.T) {
			_, ts := newHTTPServer(t, arm.opts...)
			testHTTPInlineCounter(t, ts.URL, singles, arm.inline, arm.mailbox)
		})
	}
}

// testHTTPInlineCounter posts singles lone queries and one 3-query batch
// to url and checks the counters both surfaces report.
func testHTTPInlineCounter(t *testing.T, url string, singles int, wantInline, wantMailbox int64) {
	t.Helper()
	for i := 0; i < singles; i++ {
		resp, body := postQuery(t, url, fmt.Sprintf(`{"tenant":"t%d","template":"Q6"}`, i%3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := postBody(t, url+"/v1/batch",
		`[{"tenant":"t0","template":"Q6"},{"tenant":"t1","template":"Q1"},{"tenant":"t0","template":"Q3"}]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}

	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if _, err := metrics.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var inline, mailbox int64
	for _, sh := range st.PerShard {
		inline += sh.Inline
		mailbox += sh.Queries - sh.Inline
		for name, want := range map[string]int64{
			"cloudcache_inline_decisions_total": sh.Inline,
			"cloudcache_queries_total":          sh.Queries,
		} {
			if line := fmt.Sprintf("%s{shard=\"%d\"} %d\n", name, sh.Shard, want); !strings.Contains(metrics.String(), line) {
				t.Errorf("/metrics lacks %q (the /v1/stats value)", strings.TrimSpace(line))
			}
		}
	}
	if inline != wantInline || mailbox != wantMailbox || st.Queries != wantInline+wantMailbox {
		t.Errorf("inline %d + mailbox %d of %d queries, want %d + %d", inline, mailbox, st.Queries, wantInline, wantMailbox)
	}

	// The response histogram /metrics exports is the one /v1/stats
	// reports: the same buckets, cumulated, over every executed query.
	var cum, got []int64
	var sum int64
	for i := range obs.ResponseBuckets {
		if i < len(st.ResponseBuckets) {
			sum += st.ResponseBuckets[i]
		}
		cum = append(cum, sum)
	}
	for _, line := range strings.Split(metrics.String(), "\n") {
		if strings.HasPrefix(line, "cloudcache_response_seconds_bucket{") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			got = append(got, v)
		}
	}
	if executed := st.Queries - st.Declined; executed == 0 || sum != executed || !reflect.DeepEqual(got, cum) {
		t.Errorf("/metrics response buckets %v, /v1/stats cumulates to %v over %d executed queries", got, cum, executed)
	}
	if line := fmt.Sprintf("cloudcache_response_seconds_count %d\n", sum); !strings.Contains(metrics.String(), line) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(line))
	}
}

// TestHTTPEventsRecoverTotals: settlement recovery is counted by the
// economies, not journaled. GET /v1/events refuses type=recover with a
// 400, serves the journaled types, and reports recover totals whose
// dollars are /v1/stats' ledger sums; /metrics reads the same totals
// under their old series, the journals' own totals carry none, and
// migrating every shard away leaves the totals following the fresh
// economies, as /v1/stats does.
func TestHTTPEventsRecoverTotals(t *testing.T) {
	clock := server.NewVirtualClock()
	srv, ts := newHTTPServer(t, func(c *server.Config) { c.Clock = clock })
	ctx := context.Background()
	templates := []string{"Q6", "Q1", "Q3"}
	for i := 0; srv.RecoverTotals().Recovers == 0; i++ {
		if i == 5000 {
			t.Fatal("no settlement recovered anything in 5000 queries")
		}
		req := server.Request{Tenant: fmt.Sprintf("t%d", i%3), Template: templates[i%len(templates)]}
		if _, err := srv.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}

	get := func(query string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	if code, body := get("/v1/events?type=recover"); code != http.StatusBadRequest || !strings.Contains(string(body), "recover") {
		t.Errorf("type=recover: %d %s, want 400 naming the type", code, body)
	}
	code, body := get("/v1/events?type=invest")
	if code != http.StatusOK {
		t.Fatalf("type=invest: %d %s", code, body)
	}
	var view server.EventsView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	for _, e := range view.Events {
		if e.Type != obs.EventInvest {
			t.Errorf("invest filter leaked %q", e.Type)
		}
	}
	if journaled := srv.EventTotals(); journaled.Recovers != 0 || journaled.Recovered != 0 {
		t.Errorf("journals hold recover totals %d / %v", journaled.Recovers, journaled.Recovered)
	}
	tot := srv.RecoverTotals()
	var recoveredUSD float64
	for _, sh := range srv.Stats().PerShard {
		recoveredUSD += sh.RecoveredUSD
	}
	if view.Totals.Recovers != tot.Recovers || tot.Recovers == 0 ||
		math.Abs(view.Totals.RecoveredUSD-recoveredUSD) > recoveredUSD*1e-9 {
		t.Errorf("events view recovers %d / $%v; counters say %d, ledgers $%v",
			view.Totals.Recovers, view.Totals.RecoveredUSD, tot.Recovers, recoveredUSD)
	}
	_, metrics := get("/metrics")
	if want := fmt.Sprintf("cloudcache_economy_events_total{type=%q} %d\n", "recover", tot.Recovers); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics lacks %q", want)
	}

	for i := range srv.Stats().PerShard {
		if _, err := srv.ExtractShard(i); err != nil {
			t.Fatal(err)
		}
	}
	recoveredUSD = 0
	for _, sh := range srv.Stats().PerShard {
		recoveredUSD += sh.RecoveredUSD
	}
	if after := srv.RecoverTotals(); after.Recovers != 0 || after.Recovered != 0 || recoveredUSD != 0 {
		t.Errorf("recover totals %d / %v after extracting every shard, /v1/stats $%v; want all zero",
			after.Recovers, after.Recovered, recoveredUSD)
	}
}
