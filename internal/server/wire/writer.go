package wire

import (
	"net"
	"sync"
	"syscall"
)

// writer is one connection's outbound side at either end of the protocol
// (muxConn, MuxClient). A frame that is alone — a batch reply with no
// other batch in flight on its connection (client frames never claim
// it), nothing queued, no refused tail pending and the write lock free —
// goes to the kernel on the goroutine that made it, in one non-blocking
// write; what the kernel refuses stays in bw for the writer goroutine,
// and later frames queue behind it. A frame with company queues for the
// writer goroutine, which writes a whole burst with one syscall, so a
// pipelining client keeps its shared flushes and a closed-loop one skips
// a wake-up. send never blocks: a shard loop or a reader callback may
// touch the socket, never wait on it. A connection without a raw socket
// (net.Pipe, a wrapped conn) always queues.
type writer struct {
	conn net.Conn
	raw  syscall.RawConn // nil: no raw socket, every frame queues

	// wmu guards bw — encoded frames not yet on the wire — and dead, set
	// once a write failed and the connection was closed. The writer
	// goroutine holds it per burst, a direct send per frame, the server's
	// reader per reply it buffers or flushes itself.
	wmu  sync.Mutex
	bw   []byte
	dead bool

	// qmu guards the queue, busy and stopping; cond wakes the writer
	// goroutine. busy is set while the writer goroutine holds a burst and
	// while bw holds a refused tail it must send: no frame goes direct
	// then, so none overtakes what is ahead of it.
	qmu      sync.Mutex
	cond     sync.Cond
	queue    [][]byte
	busy     bool
	stopping bool

	// free recycles spent payload buffers back to the encoders.
	free payloads

	// rawWrite's result, and the method value RawConn.Write calls, bound
	// once so a direct send allocates no closure.
	rawN   int
	rawErr error
	rawFn  func(fd uintptr) bool
}

// init readies w for conn in place; w must not be copied afterwards.
func (w *writer) init(conn net.Conn) {
	w.conn = conn
	w.cond.L = &w.qmu
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			w.raw, w.rawFn = raw, w.rawWrite
		}
	}
}

// send hands one encoded payload to the connection; alone says its
// sender has nothing else in flight on it. Never blocks; safe from any
// goroutine.
func (w *writer) send(frame []byte, alone bool) {
	w.qmu.Lock()
	if !alone || w.raw == nil || len(w.queue) > 0 || w.busy || !w.wmu.TryLock() {
		w.queue = append(w.queue, frame)
		w.qmu.Unlock()
		w.cond.Signal()
		return
	}
	w.qmu.Unlock()
	w.writeLocked(false, frame)
	if w.tryFlushLocked() {
		w.qmu.Lock()
		w.busy = true
		w.qmu.Unlock()
		w.cond.Signal()
	}
	w.wmu.Unlock()
	w.free.put(frame)
}

// writeLocked appends frames to bw and, when asked, blocks until bw is on
// the wire. A write error marks the connection dead AND closes it: a
// dropped frame poisons the multiplexed stream (its tag would wait
// forever on the peer), so the reader must observe the close and tear
// the connection down rather than leave the peer hanging. Callers hold
// wmu (or are alone with the connection).
func (w *writer) writeLocked(flush bool, frames ...[]byte) error {
	if w.dead {
		return net.ErrClosed
	}
	var err error
	for _, p := range frames {
		if w.bw, err = appendFrame(w.bw, p); err != nil {
			break
		}
	}
	if err == nil && flush && len(w.bw) > 0 {
		_, err = w.conn.Write(w.bw)
		w.spent(len(w.bw))
	}
	if err != nil {
		w.die()
	}
	return err
}

// tryFlushLocked is the direct send's one non-blocking write of bw;
// reports whether the kernel left a tail in it. Caller holds wmu.
func (w *writer) tryFlushLocked() (refused bool) {
	if w.dead {
		return false
	}
	err := w.raw.Write(w.rawFn)
	if err == nil {
		err = w.rawErr
	}
	if err != nil {
		w.die()
		return false
	}
	w.spent(w.rawN)
	return len(w.bw) > 0
}

// rawWrite is RawConn.Write's callback: one write(2) of bw, and never a
// request to wait for writability — a full socket (or a signal) reads as
// nothing written, left to the writer goroutine.
func (w *writer) rawWrite(fd uintptr) bool {
	n, err := syscall.Write(int(fd), w.bw)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		err = nil
	}
	w.rawN, w.rawErr = max(n, 0), err
	return true
}

// spent drops bw's first n bytes, which are on the wire. maxFreeBufCap
// keeps one oversized burst from pinning its buffer.
func (w *writer) spent(n int) {
	w.bw = w.bw[:copy(w.bw, w.bw[n:])]
	if len(w.bw) == 0 && cap(w.bw) > maxFreeBufCap {
		w.bw = nil
	}
}

func (w *writer) die() {
	w.dead = true
	w.bw = nil
	w.conn.Close()
}

// loop is the writer goroutine. Each wakeup drains the whole queue into
// bw behind any refused tail and writes it at once — under pipelining
// pressure many frames share one syscall. Once the connection is dead it
// keeps draining (and discarding) so senders are never stuck, and it
// exits once stop was called and nothing is left.
func (w *writer) loop() {
	var batch [][]byte
	for {
		w.qmu.Lock()
		// The burst just written: its payload buffers return to free, its
		// backing array becomes the next queue (double-buffered), so a
		// steady pipelined load enqueues frames without allocating.
		w.free.put(batch...)
		clear(batch)
		w.busy = false
		for len(w.queue) == 0 && !w.busy && !w.stopping {
			w.cond.Wait()
		}
		if len(w.queue) == 0 && !w.busy {
			w.qmu.Unlock()
			return
		}
		batch, w.queue = w.queue, batch[:0]
		w.busy = true
		w.qmu.Unlock()

		w.wmu.Lock()
		w.writeLocked(true, batch...)
		w.wmu.Unlock()
	}
}

// stop lets the writer goroutine exit once it has written what is queued.
func (w *writer) stop() {
	w.qmu.Lock()
	w.stopping = true
	w.qmu.Unlock()
	w.cond.Signal()
}

// maxFreeBufs bounds a recycled-payload free list; maxFreeBufCap keeps
// one oversized frame (a fat stats push, a shard-state packet) from
// pinning megabytes in it.
const (
	maxFreeBufs   = 64
	maxFreeBufCap = 1 << 20
)

// payloads is a free list of written payload buffers for encoders to
// append into, so a steady load encodes frames without allocating. Both
// ends of a connection keep one, which their writers refill after each
// write.
type payloads struct {
	mu   sync.Mutex
	bufs [][]byte
}

// get returns a recycled buffer (length 0), or nil when the list is
// empty — append grows nil fine.
func (l *payloads) get() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return nil
	}
	b := l.bufs[n-1][:0]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	return b
}

// put returns written payload buffers to the list.
func (l *payloads) put(frames ...[]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range frames {
		if len(l.bufs) < maxFreeBufs && cap(p) <= maxFreeBufCap {
			l.bufs = append(l.bufs, p[:0])
		}
	}
}
