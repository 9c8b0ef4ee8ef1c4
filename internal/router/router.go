// Package router implements the stateless cluster front: one process
// that speaks the full wire protocol to clients, owns the shard →
// backend map, and forwards every batch to the cloudcached backends
// that actually run the economy. The router holds no durable state —
// ownership is rediscovered from the backends' own OwnedShards answers
// at boot, so a router restart (or a second router) converges on the
// same map the backends already agree on.
//
// A batch goes out as one SubmitAsync frame per owning backend and is
// answered on the reader goroutine of the last reply to land; only the
// migration-hold and "not owned" replays get goroutines of their own.
//
// The router is a wire.Engine: the same protocol loops that serve the
// in-process engine serve it, so clients cannot tell a router from a
// single backend except by throughput.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/wire"
)

// ErrClosed is returned by calls on a router after Close.
var ErrClosed = errors.New("router: closed")

// The router serves the same protocol loops as the in-process engine.
var _ wire.Engine = (*Router)(nil)

// BackendConfig names one cloudcached backend: its wire address
// (required) and its HTTP address (optional; enables /readyz health
// probing and richer state in the router's own /readyz).
type BackendConfig struct {
	Addr    string
	HTTPURL string
}

// Config configures a Router.
type Config struct {
	Backends []BackendConfig
	// HealthInterval is the period of the backend health loop
	// (default 500ms; negative disables the loop).
	HealthInterval time.Duration
	// BootstrapTimeout bounds how long New keeps retrying unreachable
	// backends before failing (default 10s).
	BootstrapTimeout time.Duration
	Log              *slog.Logger
}

// backend is one cloudcached instance behind the router.
type backend struct {
	id      int
	addr    string
	httpURL string
	pool    *wire.PersistentMux

	healthy atomic.Bool
	state   atomic.Value // string: last /readyz (or wire probe) verdict
}

// Router is the cluster front. It implements wire.Engine.
type Router struct {
	log      *slog.Logger
	backends []*backend
	shards   int

	// mu guards the ownership map and the per-shard migration holds.
	// owner[k] is the backend id serving shard k; holds[k] is non-nil
	// while a router-driven migration has shard k in its blackout
	// window — submitters park on the channel and replay the gap when
	// cutover closes it.
	mu    sync.Mutex
	owner []int
	holds []chan struct{}

	// frames recycles client frames once they are answered (newFrame).
	frames sync.Pool

	queries       atomic.Int64
	reroutes      atomic.Int64
	migrations    atomic.Int64
	lastBlackout  atomic.Int64 // nanoseconds, most recent migration
	totalBlackout atomic.Int64 // nanoseconds, summed

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New connects to every backend, learns the shard map from their
// OwnedShards answers, resolves conflicts (a fresh cluster boots with
// every backend owning every shard), and starts the health loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.BootstrapTimeout <= 0 {
		cfg.BootstrapTimeout = 10 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	r := &Router{
		log:  cfg.Log,
		stop: make(chan struct{}),
	}
	for i, bc := range cfg.Backends {
		b := &backend{
			id:      i,
			addr:    bc.Addr,
			httpURL: bc.HTTPURL,
			pool:    wire.NewPersistentMux(bc.Addr),
		}
		b.state.Store("unknown")
		r.backends = append(r.backends, b)
	}
	r.frames.New = r.newFrame
	if err := r.bootstrap(cfg.BootstrapTimeout); err != nil {
		for _, b := range r.backends {
			b.pool.Close()
		}
		return nil, err
	}
	if cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop(cfg.HealthInterval)
	}
	return r, nil
}

// bootstrap learns the cluster shape. Every backend must answer Owners
// within the deadline and report the same shard count. Ownership rules:
// a shard owned by exactly one backend stays there; a shard owned by
// several is resolved by evidence of live state — ownership is
// runtime-only, so a restarted backend re-claims every slot, including
// shards it migrated away, and picking its empty (or stale-snapshot)
// copy over the live one would silently lose the economy. A claimant
// whose shard has decided queries or holds residency wins over empty
// claimants; two claimants with non-empty state is a divergence the
// router refuses to auto-resolve; all-empty claimants (the fresh-cluster
// case, where every backend booted with a full map) are spread
// round-robin, and the losers frozen so exactly one economy ever decides
// a shard's keys. A shard owned by nobody is fatal — its state lives in
// some snapshot the operator must restore first.
func (r *Router) bootstrap(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	owners := make([][]bool, len(r.backends))
	loads := make([][]server.ShardStats, len(r.backends))
	for i, b := range r.backends {
		for {
			own, per, err := r.probeState(b)
			if err == nil {
				owners[i], loads[i] = own, per
				b.healthy.Store(true)
				b.state.Store("ok")
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("router: backend %d (%s) unreachable: %w", i, b.addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	r.shards = len(owners[0])
	for i, own := range owners {
		if len(own) != r.shards {
			return fmt.Errorf("router: backend %d reports %d shards, backend 0 reports %d — mixed cluster", i, len(own), r.shards)
		}
	}
	if r.shards == 0 {
		return errors.New("router: backends report zero shards")
	}
	r.owner = make([]int, r.shards)
	r.holds = make([]chan struct{}, r.shards)
	for k := 0; k < r.shards; k++ {
		var cands []int
		for i := range owners {
			if owners[i][k] {
				cands = append(cands, i)
			}
		}
		switch {
		case len(cands) == 0:
			return fmt.Errorf("router: shard %d owned by no backend — restore its snapshot before routing", k)
		case len(cands) == 1:
			r.owner[k] = cands[0]
		default:
			var live []int
			for _, i := range cands {
				if shardHasState(loads[i], k) {
					live = append(live, i)
				}
			}
			var keep int
			switch {
			case len(live) == 1:
				keep = live[0]
			case len(live) > 1:
				return fmt.Errorf("router: shard %d carries non-empty state on backends %v — refusing to pick a side; freeze or wipe the stale copy before routing", k, live)
			default:
				keep = cands[k%len(cands)] // all claimants empty: spread them
			}
			r.owner[k] = keep
			for _, i := range cands {
				if i == keep {
					continue
				}
				if err := freeze(r.backends[i], k); err != nil {
					return fmt.Errorf("router: freeze shard %d on backend %d (%s): %w", k, i, r.backends[i].addr, err)
				}
			}
			r.log.Info("router: resolved multi-owned shard", "shard", k, "kept", keep, "frozen", len(cands)-1)
		}
	}
	r.log.Info("router: bootstrap complete", "backends", len(r.backends), "shards", r.shards)
	return nil
}

// probeState fetches one backend's ownership map and per-shard stats in
// a single bootstrap probe; the stats are the evidence multi-owned
// shards are resolved with.
func (r *Router) probeState(b *backend) (own []bool, per []server.ShardStats, err error) {
	st, err := ask(b, func(cl *wire.MuxClient, ctx context.Context) (st server.Stats, err error) {
		if own, err = cl.Owners(ctx); err == nil {
			st, err = cl.Stats(ctx)
		}
		if err != nil {
			b.pool.MarkDead(cl)
		}
		return st, err
	})
	return own, st.PerShard, err
}

// shardHasState reports whether a backend's shard k carries a live (or
// restored) economy rather than a just-built empty slot. The economy
// clock is deliberately excluded: it advances with the server's wall
// clock whether or not the shard ever decided anything.
func shardHasState(per []server.ShardStats, k int) bool {
	if k >= len(per) {
		return false
	}
	s := per[k]
	return s.Queries > 0 || s.Errors > 0 || s.ResidentBytes > 0 ||
		s.PendingBuilds > 0 || s.Investments > 0 || s.RevenueUSD != 0
}

func (r *Router) probeOwners(b *backend) ([]bool, error) {
	return ask(b, func(cl *wire.MuxClient, ctx context.Context) ([]bool, error) {
		own, err := cl.Owners(ctx)
		if err != nil {
			b.pool.MarkDead(cl)
		}
		return own, err
	})
}

// Shards returns the cluster-wide shard count.
func (r *Router) Shards() int { return r.shards }

// Owner reports which backend currently serves a shard.
func (r *Router) Owner(shard int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.owner[shard]
}

// ownerSnapshot copies the ownership map for a consistent read.
func (r *Router) ownerSnapshot() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.owner...)
}

// Migrate moves a live shard from its current owner to backend `to`:
// raise the hold (new submitters for the shard park), extract the
// frozen shard from the source, install the packet on the destination,
// flip the map, drop the hold — parked submitters replay the gap
// against the new owner. The returned duration is the blackout window:
// freeze-to-cutover, the time the shard answered nobody.
//
// A failed install degrades by evidence, never by guess. A tag-scoped
// refusal (*wire.TaggedError) is definitive — the destination validated
// and rejected the packet without touching state — so the packet is
// reinstalled on the source and nothing happened. A transport failure is
// ambiguous: the destination may have applied the install and died
// before the ack arrived, and reinstalling on the source would leave two
// backends deciding the same shard (split-brain, breaking the
// exactly-once economy). So the destination's ownership is verified
// first: if it owns the shard the migration actually succeeded (lost
// ack); if it verifiably does not, the source is restored; if it cannot
// be reached, the shard is left frozen and the error tells the operator
// to resolve it — queries answer tag-scoped errors in the meantime.
func (r *Router) Migrate(ctx context.Context, shard, to int) (time.Duration, error) {
	if shard < 0 || shard >= r.shards {
		return 0, fmt.Errorf("router: shard %d out of range [0,%d)", shard, r.shards)
	}
	if to < 0 || to >= len(r.backends) {
		return 0, fmt.Errorf("router: backend %d out of range [0,%d)", to, len(r.backends))
	}
	r.mu.Lock()
	if r.holds[shard] != nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("router: shard %d is already migrating", shard)
	}
	from := r.owner[shard]
	if from == to {
		r.mu.Unlock()
		return 0, nil
	}
	hold := make(chan struct{})
	r.holds[shard] = hold
	r.mu.Unlock()

	// The cutover publishes the final owner — the source unless the
	// install landed — and releases everyone parked on the hold, once, on
	// every path out of here.
	newOwner := from
	defer func() {
		r.mu.Lock()
		r.owner[shard] = newOwner
		r.holds[shard] = nil
		r.mu.Unlock()
		close(hold)
	}()

	start := time.Now()
	srcCl, err := r.backends[from].pool.Get()
	if err != nil {
		return 0, fmt.Errorf("router: source backend %d: %w", from, err)
	}
	dstCl, err := r.backends[to].pool.Get()
	if err != nil {
		return 0, fmt.Errorf("router: destination backend %d: %w", to, err)
	}
	packet, err := srcCl.ExtractShard(ctx, shard)
	if err != nil {
		return 0, fmt.Errorf("router: extract shard %d from backend %d: %w", shard, from, err)
	}
	if err := dstCl.InstallShard(ctx, shard, packet); err != nil {
		landed := false
		var te *wire.TaggedError
		if !errors.As(err, &te) {
			// Transport failure: the ack may have been lost after the
			// destination adopted the shard. Ask it before deciding.
			own, perr := r.probeOwners(r.backends[to])
			if perr != nil {
				// Cannot tell whether the destination adopted the packet;
				// reinstalling on the source could double-decide the shard.
				// Leave it frozen — queries answer tag-scoped errors until
				// the operator resolves which side holds the state.
				return 0, fmt.Errorf("router: shard %d in limbo: install on backend %d failed (%v) and its ownership cannot be verified (%v); shard left frozen — resolve before reinstalling", shard, to, err, perr)
			}
			landed = shard < len(own) && own[shard]
		}
		if !landed {
			// The install verifiably never applied. Put the shard back
			// where it came from: the source slot is empty and frozen, so
			// reinstall is legal and restores the pre-migration world
			// exactly.
			if rerr := srcCl.InstallShard(ctx, shard, packet); rerr != nil {
				return 0, fmt.Errorf("router: shard %d stranded: install on backend %d failed (%v), restore to backend %d failed (%v)", shard, to, err, from, rerr)
			}
			return 0, fmt.Errorf("router: install shard %d on backend %d (restored to %d): %w", shard, to, from, err)
		}
		// Lost ack — the install landed. Finish the cutover.
		r.log.Warn("router: shard install ack lost; the destination owns the shard", "shard", shard, "to", to, "err", err)
	}
	newOwner = to
	d := time.Since(start)
	r.migrations.Add(1)
	r.lastBlackout.Store(int64(d))
	r.totalBlackout.Add(int64(d))
	r.log.Info("router: shard migrated", "shard", shard, "from", from, "to", to, "blackout", d)
	return d, nil
}

// Close stops the health loop and closes every backend pool.
func (r *Router) Close() error {
	var err error
	r.closeOnce.Do(func() {
		close(r.stop)
		r.wg.Wait()
		for _, b := range r.backends {
			if cerr := b.pool.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

func (r *Router) closedNow() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}
