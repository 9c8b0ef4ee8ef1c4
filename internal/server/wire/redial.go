package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// PersistentMux is a MuxClient that survives its connection: when the
// backend drops or restarts, the next Get redials with exponential
// backoff (the listener's transient-error schedule: 5 ms doubling to
// 1 s) instead of failing forever. Between attempts Get fails fast, so
// callers — a router forwarding a batch — never block behind a dead
// backend; they answer per-item errors and retry on a later request.
// Callers that must not wait even for one dial use Live.
//
// Reconnection is deliberately NOT transparent at the call level: a
// Submit that died mid-flight is never resent, because the backend may
// have decided the batch before the connection broke, and economy
// decisions must happen exactly once. The caller sees the error and
// owns the retry policy.
type PersistentMux struct {
	addr string

	live      atomic.Pointer[MuxClient] // written under mu, read by Live without it
	mu        sync.Mutex
	delay     time.Duration
	nextTry   time.Time
	connected bool // a dial has succeeded at least once
	closed    bool

	// reconnects counts successful re-dials after the first connect —
	// the router's /metrics surfaces it per backend.
	reconnects atomic.Int64
}

// redialBase and redialMax bound the backoff between dial attempts.
const (
	redialBase = 5 * time.Millisecond
	redialMax  = time.Second
)

// NewPersistentMux wraps a backend address. No connection is opened
// until the first Get.
func NewPersistentMux(addr string) *PersistentMux {
	return &PersistentMux{addr: addr}
}

// Addr returns the backend address this pool dials.
func (p *PersistentMux) Addr() string { return p.addr }

// Reconnects reports how many times the pool has successfully re-dialed
// after losing an established connection.
func (p *PersistentMux) Reconnects() int64 { return p.reconnects.Load() }

// Get returns a live client, dialing if necessary. During backoff after
// a failed dial it fails immediately — a dead backend costs its callers
// an error, not a stall.
func (p *PersistentMux) Get() (*MuxClient, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClientClosed
	}
	if cl := p.Live(); cl != nil {
		return cl, nil
	}
	now := time.Now()
	if now.Before(p.nextTry) {
		return nil, fmt.Errorf("wire: backend %s down, retrying in %s", p.addr, time.Until(p.nextTry).Round(time.Millisecond))
	}
	cl, err := DialMux(p.addr)
	if err != nil {
		if p.delay == 0 {
			p.delay = redialBase
		} else if p.delay *= 2; p.delay > redialMax {
			p.delay = redialMax
		}
		p.nextTry = now.Add(p.delay)
		return nil, fmt.Errorf("wire: dial %s: %w", p.addr, err)
	}
	if p.connected {
		// Anything after the first successful dial is a reconnect.
		p.reconnects.Add(1)
	}
	p.connected = true
	p.delay = 0
	p.nextTry = time.Time{}
	p.live.Store(cl)
	return cl, nil
}

// Live returns the pooled client if its connection is up, else nil. It
// never dials and never waits on a dial in progress, so a caller on a
// connection's reader goroutine can use it.
func (p *PersistentMux) Live() *MuxClient {
	cl := p.live.Load()
	if cl == nil {
		return nil
	}
	select {
	case <-cl.Done():
		return nil
	default:
		return cl
	}
}

// MarkDead drops a client the caller observed failing, so the next Get
// redials instead of handing the same dead connection out again. A
// no-op if the pool has already moved on.
func (p *PersistentMux) MarkDead(cl *MuxClient) {
	p.live.CompareAndSwap(cl, nil)
}

// Close closes the pooled connection and stops future dials.
func (p *PersistentMux) Close() error {
	p.mu.Lock()
	cl := p.live.Swap(nil)
	p.closed = true
	p.mu.Unlock()
	if cl != nil {
		return cl.Close()
	}
	return nil
}
