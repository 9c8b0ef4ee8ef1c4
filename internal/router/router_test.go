package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/economy"
	"repro/internal/router"
	"repro/internal/scheme"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// quietLog keeps the router's operational chatter out of test output.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// killableListener tracks accepted connections so a test can sever a
// backend the way SIGKILL would: listener and every live connection
// closed at once, nothing drained.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) kill() {
	l.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

// newBackend boots one cloudcached-equivalent: an engine plus a wire
// listener. delays, when non-nil, gives each shard a decision-delay
// knob so concurrency tests get genuinely scrambled completion order.
func newBackend(t testing.TB, shards int, delays []atomic.Int64) (*server.Server, string, *killableListener) {
	return newBackendCfg(t, shards, delays, nil)
}

// newBackendCfg is newBackend with a params hook, for tests that need a
// backend whose configuration fingerprint differs from its peers'.
func newBackendCfg(t testing.TB, shards int, delays []atomic.Int64, mutate func(*scheme.Params)) (*server.Server, string, *killableListener) {
	t.Helper()
	srv := newEngine(t, shards, delays, mutate)
	addr, ln := serveBackend(t, wire.ServerEngine(srv))
	return srv, addr, ln
}

// newEngine builds a backend's engine, shut down when the test ends.
func newEngine(t testing.TB, shards int, delays []atomic.Int64, mutate func(*scheme.Params)) *server.Server {
	t.Helper()
	cat := catalog.TPCH(20)
	params := scheme.DefaultParams(cat)
	params.RegretFraction = 0.0001
	params.LoadFactor = 0.02
	if mutate != nil {
		mutate(&params)
	}
	cfg := server.Config{
		Shards: shards,
		Scheme: "econ-cheap",
		Params: params,
		Clock:  server.NewVirtualClock(),
	}
	if delays != nil {
		cfg.DecideDelay = func(shard int) {
			if d := delays[shard].Load(); d > 0 {
				// A real delay, so completions genuinely race one another.
				time.Sleep(time.Duration(d))
			}
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// serveBackend serves eng — a backend engine, or a decorator over one — on
// a loopback wire listener until the test ends.
func serveBackend(t testing.TB, eng wire.Engine) (string, *killableListener) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &killableListener{Listener: raw}
	go wire.ServeEngine(ln, eng)
	t.Cleanup(func() { ln.Close() })
	return raw.Addr().String(), ln
}

// newRouterFront builds a router over the addrs and serves it on its
// own wire listener, so tests drive the whole path a client sees:
// TCP -> router protocol loop -> router fan-out -> TCP -> backend.
func newRouterFront(t testing.TB, addrs []string, health time.Duration) (*router.Router, string) {
	t.Helper()
	cfgs := make([]router.BackendConfig, len(addrs))
	for i, a := range addrs {
		cfgs[i] = router.BackendConfig{Addr: a}
	}
	r, err := router.New(router.Config{Backends: cfgs, HealthInterval: health, Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wire.ServeEngine(ln, r)
	t.Cleanup(func() {
		ln.Close()
		r.Close()
	})
	return r, ln.Addr().String()
}

// shardTenants finds one tenant per shard using the exported routing
// hash, so each test worker owns one shard's arrival order outright.
func shardTenants(shards int) []string {
	tenants := make([]string, shards)
	found := 0
	for i := 0; found < shards; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		idx := server.ShardIndexFor(name, "", shards)
		if tenants[idx] == "" {
			tenants[idx] = name
			found++
		}
	}
	return tenants
}

// batchFor builds worker w's round-r batch: template rotation, explicit
// selectivities and budget curves so routed queries exercise the full
// query grammar, deterministically.
func batchFor(tenants []string, w, r int) []wire.Query {
	templates := []string{"Q1", "Q6", "Q3", "Q10", "Q14", "Q18"}
	qs := make([]wire.Query, 1+r%3)
	for i := range qs {
		q := wire.Query{
			Tenant:   tenants[w],
			Template: templates[(w+r+i)%len(templates)],
		}
		if (r+i)%3 != 2 {
			q.Selectivity = 0.001 + 0.0001*float64((r+i)%9)
			q.HasSelectivity = true
		}
		if (r+i)%4 != 3 {
			q.Budget = &server.BudgetJSON{Shape: "step", PriceUSD: 0.05, TmaxSec: 3600}
		}
		qs[i] = q
	}
	return qs
}

// spanningBatch builds the spanning worker's round-r batch: two items
// on every shard's tenant, interleaved, so the router must carve it.
func spanningBatch(tenants []string, r int) []wire.Query {
	qs := make([]wire.Query, 2*len(tenants))
	for i := range qs {
		w := i % len(tenants)
		qs[i] = batchFor(tenants, w, r+i)[0]
	}
	return qs
}

// normReplies renders replies to their wire bytes with QueryID zeroed —
// the one field minted from a per-process global counter.
func normReplies(rs []wire.Reply) []byte {
	c := make([]wire.Reply, len(rs))
	copy(c, rs)
	for i := range c {
		c[i].Resp.QueryID = 0
	}
	return wire.AppendTaggedReplyBatch(nil, 0, c)
}

// TestRouterBootstrap checks fresh-cluster conflict resolution: two
// backends boot owning every shard; after router bootstrap each shard
// is owned by exactly one of them, and the router's map points at it.
func TestRouterBootstrap(t *testing.T) {
	const shards = 4
	srvA, addrA, _ := newBackend(t, shards, nil)
	srvB, addrB, _ := newBackend(t, shards, nil)
	r, _ := newRouterFront(t, []string{addrA, addrB}, -1)

	owned := [][]bool{srvA.OwnedShards(), srvB.OwnedShards()}
	for k := 0; k < shards; k++ {
		a, b := owned[0][k], owned[1][k]
		if a == b {
			t.Fatalf("shard %d: want exactly one owner, got A=%v B=%v", k, a, b)
		}
		want := 0
		if b {
			want = 1
		}
		if got := r.Owner(k); got != want {
			t.Fatalf("shard %d: router maps to backend %d, backends say %d", k, got, want)
		}
	}
	if r.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", r.Shards(), shards)
	}
}

// TestRouterMigrationParity is the cluster-tier determinism contract:
// concurrent workers submit through a real TCP router while a hot shard
// live-migrates between backends mid-run. Every reply — including those
// parked on the migration hold and replayed after cutover — must be
// byte-identical to a sequential no-migration replay on a single fresh
// backend, and the router's merged stats must match the single
// process's aggregate. Run under -race.
//
// One worker per shard owns that shard's tenant; one more, the
// spanning worker, sends frames that span every shard, so the router
// carves each into one part per backend and the hot shard's part
// crosses the hold or comes back "not owned" and replays. Rounds are
// fenced — the shard workers' round rd, then the spanning worker's — so
// each shard still sees one arrival order the replay can repeat; within
// a round the shard workers race each other and the migration. Later
// the hot shard moves back behind the router's back (extracted and
// installed on the backends directly), so frames that touch it come
// back "not owned" until the router re-learns the owner.
//
// Churners meanwhile send spanning frames on a second connection for the
// whole run, so frames cross the hold and the replay path while the
// router recycles finished frames into new ones. Their queries name
// templates no backend knows — decided by nobody, so the economies stay
// the replay's — and each reply must name its own query's template.
func TestRouterMigrationParity(t *testing.T) {
	const shards = 4
	const rounds = 40
	const hot = 2
	const migrateAt = 15
	const moveBackAt = 28
	const span = shards // the spanning worker's index in got

	delays := make([]atomic.Int64, shards)
	rng := rand.New(rand.NewSource(7))
	for i := range delays {
		delays[i].Store(int64(time.Duration(rng.Intn(200)) * time.Microsecond))
	}
	_, addrA, _ := newBackend(t, shards, delays)
	_, addrB, _ := newBackend(t, shards, delays)
	r, front := newRouterFront(t, []string{addrA, addrB}, -1)
	tenants := shardTenants(shards)
	batch := func(w, rd int) []wire.Query {
		if w == span {
			return spanningBatch(tenants, rd)
		}
		return batchFor(tenants, w, rd)
	}

	cl, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}

	got := make([][][]wire.Reply, shards+1)
	errCh := make(chan error, (shards+1)*rounds+2)
	submit := func(w, rd int) {
		replies, err := cl.Submit(context.Background(), batch(w, rd))
		if err != nil {
			errCh <- fmt.Errorf("worker %d round %d: %w", w, rd, err)
			return
		}
		for i := range replies {
			if replies[i].Err != "" && !strings.Contains(replies[i].Err, "unknown template") {
				errCh <- fmt.Errorf("worker %d round %d item %d: %s", w, rd, i, replies[i].Err)
				return
			}
		}
		got[w][rd] = replies
	}
	churn, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}
	defer churn.Close()
	stopChurn := make(chan struct{})
	var churners sync.WaitGroup
	var churned atomic.Int64
	for c := range 2 {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				qs := make([]wire.Query, 2*shards+i%3)
				for k := range qs {
					qs[k] = wire.Query{Tenant: tenants[k%shards], Template: fmt.Sprintf("churn-%d-%d-%d", c, i, k)}
				}
				replies, err := churn.Submit(context.Background(), qs)
				if err != nil {
					errCh <- fmt.Errorf("churner %d frame %d: %w", c, i, err)
					return
				}
				for k := range qs {
					if !strings.Contains(replies[k].Err, fmt.Sprintf("%q", qs[k].Template)) {
						errCh <- fmt.Errorf("churner %d frame %d item %d: reply %+v does not answer %s", c, i, k, replies[k], qs[k].Template)
						return
					}
				}
				churned.Add(1)
			}
		}()
	}

	hotRound, hotBack := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	shardRounds := make([]sync.WaitGroup, rounds) // shard workers done with round rd
	spanRounds := make([]chan struct{}, rounds)   // spanning worker done with round rd
	for rd := range rounds {
		shardRounds[rd].Add(shards)
		spanRounds[rd] = make(chan struct{})
	}
	for w := 0; w <= shards; w++ {
		got[w] = make([][]wire.Reply, rounds)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rd := 0; rd < rounds; rd++ {
				if w == span {
					shardRounds[rd].Wait()
					submit(w, rd)
					close(spanRounds[rd])
					continue
				}
				submit(w, rd)
				if w == hot && rd == migrateAt {
					close(hotRound)
				}
				if w == hot && rd == moveBackAt {
					close(hotBack)
				}
				shardRounds[rd].Done()
				<-spanRounds[rd]
			}
		}(w)
	}

	// Migrate the hot shard the moment its worker crosses migrateAt, so
	// the move genuinely races in-flight traffic on every shard.
	<-hotRound
	from := r.Owner(hot)
	to := 1 - from
	blackout, err := r.Migrate(context.Background(), hot, to)
	if err != nil {
		t.Fatalf("migrate shard %d -> backend %d: %v", hot, to, err)
	}
	if blackout <= 0 {
		t.Fatalf("blackout = %v, want > 0", blackout)
	}
	t.Logf("migrated hot shard %d: backend %d -> %d, blackout %v", hot, from, to, blackout)
	if r.Owner(hot) != to {
		t.Fatalf("owner after migrate = %d, want %d", r.Owner(hot), to)
	}

	<-hotBack
	addrs := []string{addrA, addrB}
	src, err := wire.DialMux(addrs[to])
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := wire.DialMux(addrs[from])
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	packet, err := src.ExtractShard(context.Background(), hot)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.InstallShard(context.Background(), hot, packet); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(stopChurn)
	churners.Wait()
	t.Logf("churners sent %d spanning frames", churned.Load())
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if r.Owner(hot) != from {
		t.Fatalf("router maps hot shard %d to backend %d after it moved back to %d behind its back", hot, r.Owner(hot), from)
	}
	routedStats := r.Stats()

	// Sequential replay on one fresh backend that never migrates, in the
	// fenced order.
	ctlSrv, ctlAddr, _ := newBackend(t, shards, nil)
	ctl, err := wire.DialMux(ctlAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	for rd := 0; rd < rounds; rd++ {
		for w := 0; w <= shards; w++ {
			want, err := ctl.Submit(context.Background(), batch(w, rd))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(normReplies(got[w][rd]), normReplies(want)) {
				t.Fatalf("worker %d round %d: routed replies diverge from no-migration replay\n got: %+v\nwant: %+v",
					w, rd, got[w][rd], want)
			}
		}
	}

	// The merged cluster economy must equal the single-process one.
	ctlStats := ctlSrv.Stats()
	if routedStats.Queries != ctlStats.Queries ||
		routedStats.CacheAnswered != ctlStats.CacheAnswered ||
		routedStats.Investments != ctlStats.Investments ||
		routedStats.RevenueUSD != ctlStats.RevenueUSD ||
		routedStats.ProfitUSD != ctlStats.ProfitUSD ||
		routedStats.ResidentBytes != ctlStats.ResidentBytes ||
		routedStats.ResponseP50Sec != ctlStats.ResponseP50Sec ||
		routedStats.ResponseP95Sec != ctlStats.ResponseP95Sec ||
		routedStats.ResponseP99Sec != ctlStats.ResponseP99Sec {
		t.Fatalf("merged stats diverge from control:\nrouted:  q=%d hit=%d inv=%d rev=%v profit=%v bytes=%d p50/p95/p99=%v/%v/%v\ncontrol: q=%d hit=%d inv=%d rev=%v profit=%v bytes=%d p50/p95/p99=%v/%v/%v",
			routedStats.Queries, routedStats.CacheAnswered, routedStats.Investments, routedStats.RevenueUSD, routedStats.ProfitUSD, routedStats.ResidentBytes,
			routedStats.ResponseP50Sec, routedStats.ResponseP95Sec, routedStats.ResponseP99Sec,
			ctlStats.Queries, ctlStats.CacheAnswered, ctlStats.Investments, ctlStats.RevenueUSD, ctlStats.ProfitUSD, ctlStats.ResidentBytes,
			ctlStats.ResponseP50Sec, ctlStats.ResponseP95Sec, ctlStats.ResponseP99Sec)
	}
	if ctlStats.ResponseP50Sec == 0 || ctlStats.ResponseP50Sec == ctlStats.ResponseP99Sec {
		t.Fatalf("control p50 %v, p99 %v: the stream spreads no response times", ctlStats.ResponseP50Sec, ctlStats.ResponseP99Sec)
	}

	// Graceful drain under -race: client then router (cleanup closes the
	// listeners and backends).
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterCheckpointRefusedByTag: a checkpoint asked of the router (a
// per-backend operation it refuses) fails that call only — the front
// connection, which may be another tier's control plane, keeps serving.
func TestRouterCheckpointRefusedByTag(t *testing.T) {
	const shards = 2
	_, addrA, _ := newBackend(t, shards, nil)
	_, front := newRouterFront(t, []string{addrA}, -1)
	cl, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, _, err = cl.Checkpoint(context.Background())
	var terr *wire.TaggedError
	if !errors.As(err, &terr) || !strings.Contains(terr.Msg, "per-backend") {
		t.Fatalf("router checkpoint: err = %v, want a tag-scoped per-backend refusal", err)
	}
	replies, err := cl.Submit(context.Background(), batchFor(shardTenants(shards), 0, 0))
	if err != nil || replies[0].Err != "" {
		t.Fatalf("front connection unusable after the refusal: %+v, %v", replies, err)
	}
}

// TestRouterBackendDeath kills one backend mid-traffic (listener and
// every connection severed, nothing drained) and checks the failure is
// tag-scoped: items for the dead backend's shards answer per-item
// errors, items for the survivor keep deciding normally, and the
// router's own connection and /readyz stay up (degraded).
func TestRouterBackendDeath(t *testing.T) {
	const shards = 4
	_, addrA, lnA := newBackend(t, shards, nil)
	_, addrB, _ := newBackend(t, shards, nil)
	r, front := newRouterFront(t, []string{addrA, addrB}, 20*time.Millisecond)
	tenants := shardTenants(shards)

	cl, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Warm every shard through the router.
	for w := 0; w < shards; w++ {
		replies, err := cl.Submit(context.Background(), batchFor(tenants, w, 0))
		if err != nil {
			t.Fatalf("warmup worker %d: %v", w, err)
		}
		for i := range replies {
			if replies[i].Err != "" {
				t.Fatalf("warmup worker %d item %d: %s", w, i, replies[i].Err)
			}
		}
	}

	lnA.kill()

	deadline := time.Now().Add(5 * time.Second)
	sawDead := false
	for w := 0; w < shards; w++ {
		owner := r.Owner(w)
		var replies []wire.Reply
		for {
			var err error
			replies, err = cl.Submit(context.Background(), batchFor(tenants, w, 1))
			if err != nil {
				t.Fatalf("submit after kill (shard %d): connection-scoped error %v, want tag-scoped", w, err)
			}
			if owner != 0 || replies[0].Err != "" || time.Now().After(deadline) {
				break
			}
			// The severed connection may not have been observed yet;
			// the in-flight submit that noticed it already failed
			// tag-scoped, later ones race the pool's redial backoff. The
			// backoff runs on wall time, so the poll waits in wall time.
			time.Sleep(5 * time.Millisecond)
		}
		for i := range replies {
			if owner == 0 {
				if replies[i].Err == "" {
					t.Fatalf("shard %d (dead backend): item %d succeeded, want error", w, i)
				}
				sawDead = true
			} else if replies[i].Err != "" {
				t.Fatalf("shard %d (live backend): item %d errored: %s", w, i, replies[i].Err)
			}
		}
	}
	if !sawDead {
		t.Fatal("no shard mapped to the killed backend — test vacuous")
	}

	// The health loop must notice and degrade /readyz without killing
	// the router.
	h := r.HTTPHandler()
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		if rec.Code == 503 {
			var view struct {
				State    string `json:"state"`
				Backends []struct {
					Healthy bool `json:"healthy"`
				} `json:"backends"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
				t.Fatal(err)
			}
			if view.State != "degraded" || view.Backends[0].Healthy || !view.Backends[1].Healthy {
				t.Fatalf("readyz after kill: %s", rec.Body.String())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router /readyz never degraded after backend kill")
		}
		// The health loop ticks on wall time (every 20ms here): poll in it.
		time.Sleep(10 * time.Millisecond)
	}

	// A migration onto the dead backend fails before anything is
	// extracted: the shard stays with its live owner, and the hold it
	// raised is released, so the shard keeps deciding.
	live := -1
	for w := 0; w < shards; w++ {
		if r.Owner(w) == 1 {
			live = w
		}
	}
	if live < 0 {
		t.Fatal("no shard mapped to the live backend — test vacuous")
	}
	if _, err := r.Migrate(context.Background(), live, 0); err == nil || !strings.Contains(err.Error(), "destination backend 0") {
		t.Fatalf("migrate onto the dead backend: err %v, want the destination refused", err)
	}
	if got := r.Owner(live); got != 1 {
		t.Fatalf("owner after failed migrate = %d, want 1", got)
	}
	replies, err := cl.Submit(context.Background(), batchFor(tenants, live, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range replies {
		if replies[i].Err != "" {
			t.Fatalf("shard %d after failed migrate: item %d: %s", live, i, replies[i].Err)
		}
	}
}

// TestRouterHungDialStallsNoOtherBackend swaps a backend for a listener
// that accepts connections and never answers the hello. While the router
// redials it, a frame for the other backend on the same client
// connection must still complete; the hung backend's items fail
// tag-scoped once its half-open connections are cut.
func TestRouterHungDialStallsNoOtherBackend(t *testing.T) {
	const shards = 4
	_, addrA, lnA := newBackend(t, shards, nil)
	_, addrB, _ := newBackend(t, shards, nil)
	r, front := newRouterFront(t, []string{addrA, addrB}, -1)
	tenants := shardTenants(shards)
	cl, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	hung, live := -1, -1
	for k := 0; k < shards; k++ {
		if r.Owner(k) == 0 {
			hung = k
		} else {
			live = k
		}
	}
	if hung < 0 || live < 0 {
		t.Fatalf("owners %v: need a shard on each backend", []int{r.Owner(0), r.Owner(1), r.Owner(2), r.Owner(3)})
	}

	lnA.kill()
	raw, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	silent := &killableListener{Listener: raw}
	go func() {
		for {
			if _, err := silent.Accept(); err != nil {
				return
			}
		}
	}()
	accepted := func() bool {
		silent.mu.Lock()
		defer silent.mu.Unlock()
		return len(silent.conns) > 0
	}

	// Send frames to the hung backend until the router is caught in a
	// dial to it.
	var hungFrames sync.WaitGroup
	hungErrs := make(chan string, 1024)
	for deadline := time.Now().Add(5 * time.Second); !accepted(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the router never redialed the replaced backend")
		}
		hungFrames.Add(1)
		go func() {
			defer hungFrames.Done()
			rs, err := cl.Submit(context.Background(), batchFor(tenants, hung, 1))
			switch {
			case err != nil:
				hungErrs <- fmt.Sprintf("connection-scoped error %v, want tag-scoped", err)
			case rs[0].Err == "":
				hungErrs <- "an item of the hung backend succeeded"
			}
		}()
	}

	liveDone := make(chan error, 1)
	go func() {
		rs, err := cl.Submit(context.Background(), batchFor(tenants, live, 1))
		if err == nil && rs[0].Err != "" {
			err = errors.New(rs[0].Err)
		}
		liveDone <- err
	}()
	select {
	case err := <-liveDone:
		if err != nil {
			t.Fatalf("live backend's frame: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a frame for the live backend waited on the hung backend's dial")
	}

	silent.kill()
	hungFrames.Wait()
	close(hungErrs)
	for msg := range hungErrs {
		t.Fatal(msg)
	}
}

// TestRouterStalledClientSparesOthers: a client of the router that sends
// frames and never reads the replies stalls nobody else. Its frames
// complete on the backend connections' reader goroutines, which write
// each reply straight to its socket while it is alone there and leave
// what the kernel refuses to that connection's writer goroutine; were a
// reader to block on the stalled socket instead, another client's
// replies from the same backend would wait behind it. The router's
// socket to the stalled client has a send buffer at the kernel's floor
// and the client a 4 KiB receive buffer; 200 replies of 64 items
// outgrow both many times over.
func TestRouterStalledClientSparesOthers(t *testing.T) {
	const shards = 4
	_, addrA, _ := newBackend(t, shards, nil)
	_, addrB, _ := newBackend(t, shards, nil)
	r, err := router.New(router.Config{Backends: []router.BackendConfig{{Addr: addrA}, {Addr: addrB}}, HealthInterval: -1, Log: quietLog})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wire.ServeEngine(tinyBufListener{ln}, r)
	t.Cleanup(func() {
		ln.Close()
		r.Close()
	})
	tenants := shardTenants(shards)
	qs := make([]wire.Query, 64)
	for i := range qs {
		qs[i] = wire.Query{Tenant: tenants[i%shards], Template: "Q6"}
	}

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := stalled.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(stalled, wire.AppendHello(nil, wire.ProtocolV2)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(stalled, nil); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendTaggedQueryBatch(nil, 1, qs)
	if err != nil {
		t.Fatal(err)
	}
	// One frame a millisecond, so each is answered alone; sending stops
	// early if the router stops reading (its reader parked on its own
	// flush).
	for range 200 {
		stalled.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if wire.WriteFrame(stalled, frame) != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}

	cl, err := wire.DialMux(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := range 50 {
		rs, err := cl.Submit(ctx, qs[:2*shards])
		if err != nil {
			t.Fatalf("frame %d behind a stalled client: %v", i, err)
		}
		for _, rep := range rs {
			if rep.Err != "" {
				t.Fatalf("frame %d behind a stalled client: %s", i, rep.Err)
			}
		}
	}
}

// tinyBufListener shrinks each accepted connection's send buffer to the
// kernel's floor and hands the connection on unwrapped, raw socket and
// all.
type tinyBufListener struct{ net.Listener }

func (l tinyBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return c, err
}

// TestRouterHTTP drives the admin surface end to end: migrate a shard
// over POST /admin/migrate, read the move back from /metrics, and check
// /v1/stats serves the merged view.
func TestRouterHTTP(t *testing.T) {
	const shards = 4
	_, addrA, _ := newBackend(t, shards, nil)
	_, addrB, _ := newBackend(t, shards, nil)
	r, front := newRouterFront(t, []string{addrA, addrB}, -1)
	tenants := shardTenants(shards)

	cl, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for w := 0; w < shards; w++ {
		if _, err := cl.Submit(context.Background(), batchFor(tenants, w, 0)); err != nil {
			t.Fatal(err)
		}
	}

	h := r.HTTPHandler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != 200 {
		t.Fatalf("/readyz = %d: %s", rec.Code, rec.Body.String())
	}

	target := 1 - r.Owner(0)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", fmt.Sprintf("/admin/migrate?shard=0&to=%d", target), nil))
	if rec.Code != 200 {
		t.Fatalf("/admin/migrate = %d: %s", rec.Code, rec.Body.String())
	}
	var moved struct {
		Shard      int     `json:"shard"`
		To         int     `json:"to"`
		BlackoutMS float64 `json:"blackout_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &moved); err != nil {
		t.Fatal(err)
	}
	if moved.To != target || moved.BlackoutMS <= 0 {
		t.Fatalf("migrate reply: %+v", moved)
	}
	if r.Owner(0) != target {
		t.Fatalf("owner after HTTP migrate = %d, want %d", r.Owner(0), target)
	}

	// A second migrate to the same place is a no-op with zero blackout.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", fmt.Sprintf("/admin/migrate?shard=0&to=%d", target), nil))
	if rec.Code != 200 {
		t.Fatalf("idempotent migrate = %d: %s", rec.Code, rec.Body.String())
	}

	metrics := get("/metrics").Body.String()
	for _, want := range []string{
		"cloudrouter_queries_total",
		"cloudrouter_migrations_total 1",
		"cloudrouter_backend_reconnects_total{backend=\"0\"}",
		fmt.Sprintf("cloudrouter_shard_owner{shard=\"0\"} %d", target),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	var stats server.Stats
	if err := json.Unmarshal(get("/v1/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != shards || stats.Queries == 0 || len(stats.PerShard) != shards {
		t.Fatalf("/v1/stats: shards=%d queries=%d per_shard=%d", stats.Shards, stats.Queries, len(stats.PerShard))
	}
	if stats.Scheme != "econ-cheap" {
		t.Fatalf("/v1/stats scheme = %q", stats.Scheme)
	}
}

// TestRouterBootstrapEvidence pins the multi-owner tie-break: ownership
// is runtime-only, so a backend that restarts re-claims every slot —
// including shards it migrated away — and the router must keep the copy
// with live state, not the one an index rotation happens to land on.
func TestRouterBootstrapEvidence(t *testing.T) {
	const shards = 4
	// Shard 1 is the probe: round-robin over two full claimants would
	// hand odd shards to backend 1, so only state evidence keeps it on 0.
	const warmed = 1
	srvA, addrA, _ := newBackend(t, shards, nil)
	srvB, addrB, _ := newBackend(t, shards, nil)
	tenants := shardTenants(shards)

	direct, err := wire.DialMux(addrA)
	if err != nil {
		t.Fatal(err)
	}
	replies, err := direct.Submit(context.Background(), batchFor(tenants, warmed, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range replies {
		if replies[i].Err != "" {
			t.Fatalf("warm item %d: %s", i, replies[i].Err)
		}
	}
	direct.Close()

	r, _ := newRouterFront(t, []string{addrA, addrB}, -1)
	if got := r.Owner(warmed); got != 0 {
		t.Fatalf("warmed shard %d mapped to backend %d, want the backend holding its state (0)", warmed, got)
	}
	if !srvA.OwnedShards()[warmed] {
		t.Fatal("backend holding the warmed shard's state lost ownership")
	}
	if srvB.OwnedShards()[warmed] {
		t.Fatal("empty claimant of the warmed shard was not frozen")
	}
}

// TestRouterBootstrapDivergence: two claimants with non-empty state for
// the same shard is a conflict the router must refuse to auto-resolve —
// picking either side silently discards the other's economy.
func TestRouterBootstrapDivergence(t *testing.T) {
	const shards = 2
	_, addrA, _ := newBackend(t, shards, nil)
	_, addrB, _ := newBackend(t, shards, nil)
	tenants := shardTenants(shards)

	for _, addr := range []string{addrA, addrB} {
		cl, err := wire.DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Submit(context.Background(), batchFor(tenants, 0, 0)); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}

	_, err := router.New(router.Config{
		Backends:       []router.BackendConfig{{Addr: addrA}, {Addr: addrB}},
		HealthInterval: -1,
		Log:            quietLog,
	})
	if err == nil {
		t.Fatal("router bootstrapped over divergent shard state")
	}
	if !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("divergence error = %v, want an explicit refusal", err)
	}
}

// TestRouterMigrateRefusalRestoresSource drives the one install-failure
// path that legally reinstalls: a definitive tag-scoped refusal (here a
// provider-fingerprint mismatch at the destination). The shard must come
// back to the source with its state intact and keep serving.
func TestRouterMigrateRefusalRestoresSource(t *testing.T) {
	const shards = 2
	srvA, addrA, _ := newBackend(t, shards, nil)
	_, addrB, _ := newBackendCfg(t, shards, nil, func(p *scheme.Params) {
		p.Provider = economy.ProviderSelfish
	})
	tenants := shardTenants(shards)

	// Warm every shard on A so bootstrap keeps them all there.
	direct, err := wire.DialMux(addrA)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < shards; w++ {
		if _, err := direct.Submit(context.Background(), batchFor(tenants, w, 0)); err != nil {
			t.Fatal(err)
		}
	}
	direct.Close()

	r, front := newRouterFront(t, []string{addrA, addrB}, -1)
	cl, err := wire.DialMux(front)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := r.Migrate(context.Background(), 0, 1); err == nil {
		t.Fatal("migrate to a mismatched backend succeeded")
	} else if !strings.Contains(err.Error(), "restored") {
		t.Fatalf("refused migrate error = %v, want the restore to be reported", err)
	}
	if got := r.Owner(0); got != 0 {
		t.Fatalf("owner after refused migrate = %d, want 0", got)
	}
	if !srvA.ShardOwned(0) {
		t.Fatal("source did not take the shard back after the refusal")
	}

	// The restored shard keeps deciding through the router.
	replies, err := cl.Submit(context.Background(), batchFor(tenants, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range replies {
		if replies[i].Err != "" {
			t.Fatalf("post-restore item %d: %s", i, replies[i].Err)
		}
	}
}

// TestRouterCoalesceRespectsMaxBatch floods one backend with tiny and
// wire.MaxBatch-size client frames at once. The router neither merges
// nor splits them: each must cost exactly one backend frame, and every
// item succeed.
func TestRouterCoalesceRespectsMaxBatch(t *testing.T) {
	const shards = 1
	backend := &frameCounter{Engine: wire.ServerEngine(newEngine(t, shards, nil, nil))}
	addr, _ := serveBackend(t, backend)
	_, front := newRouterFront(t, []string{addr}, -1)
	tenants := shardTenants(shards)

	mkBatch := func(n int) []wire.Query {
		qs := make([]wire.Query, n)
		for i := range qs {
			qs[i] = wire.Query{
				Tenant: tenants[0], Template: "Q6",
				Selectivity: 0.001, HasSelectivity: true,
				Budget: &server.BudgetJSON{Shape: "step", PriceUSD: 0.05, TmaxSec: 3600},
			}
		}
		return qs
	}

	const bigWorkers, bigRounds = 2, 2
	const smallWorkers, smallRounds = 4, 40
	var wg sync.WaitGroup
	var clientFrames atomic.Int64
	errCh := make(chan error, bigWorkers+smallWorkers)
	run := func(w, rounds, size int) {
		defer wg.Done()
		cl, err := wire.DialMux(front)
		if err != nil {
			errCh <- err
			return
		}
		defer cl.Close()
		qs := mkBatch(size)
		for rd := 0; rd < rounds; rd++ {
			rs, err := cl.Submit(context.Background(), qs)
			if err != nil {
				errCh <- fmt.Errorf("worker %d (size %d) round %d: %w", w, size, rd, err)
				return
			}
			clientFrames.Add(1)
			for i := range rs {
				if rs[i].Err != "" {
					errCh <- fmt.Errorf("worker %d (size %d) round %d item %d: %s", w, size, rd, i, rs[i].Err)
					return
				}
			}
		}
	}
	for w := 0; w < bigWorkers; w++ {
		wg.Add(1)
		go run(w, bigRounds, wire.MaxBatch)
	}
	for w := 0; w < smallWorkers; w++ {
		wg.Add(1)
		go run(bigWorkers+w, smallRounds, 1)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got, sent := backend.frames.Load(), clientFrames.Load(); got != sent {
		t.Fatalf("%d client frames cost %d backend frames, want one each", sent, got)
	}
}

// TestRouterIdleEventsViewsAreEmptyArrays: an idle cluster's events
// views must marshal exactly like an idle backend's own — "events":[]
// — not "events":null, which is what re-slicing a nil slice used to
// produce.
func TestRouterIdleEventsViewsAreEmptyArrays(t *testing.T) {
	const shards = 2
	srvA, addrA, _ := newBackend(t, shards, nil)
	_, addrB, _ := newBackend(t, shards, nil)
	r, _ := newRouterFront(t, []string{addrA, addrB}, -1)

	marshal := func(v server.EventsView) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	want := marshal(srvA.EventsViewSnapshot("", "", 0))
	if !strings.Contains(want, `"events":[]`) {
		t.Fatalf("an idle backend answers %s; the reference itself lost the contract", want)
	}
	if got := marshal(r.EventsViewSnapshot("", "", 0)); got != want {
		t.Errorf("router EventsViewSnapshot = %s, backend's own = %s", got, want)
	}
}
