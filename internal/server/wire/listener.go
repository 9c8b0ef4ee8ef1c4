package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"

	"repro/internal/server"
)

// transientAcceptError reports whether an Accept failure is worth
// retrying with backoff rather than taking the front down. The
// deprecated net.Error.Temporary() used to make this call; the explicit
// list names what it actually meant here — resource exhaustion under
// connection load (fd limits, buffer pressure) and races where the peer
// reset before accept completed.
func transientAcceptError(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.ENOMEM)
}

// Serve accepts connections on l and speaks the binary protocol against
// srv until l is closed (the caller's shutdown signal) or srv drains.
func Serve(l net.Listener, srv *server.Server) error {
	return ServeEngine(l, ServerEngine(srv))
}

// ServeEngine accepts connections on l and speaks the binary protocol
// against eng until l is closed (the caller's shutdown signal). Each
// connection gets its own goroutine, so a slow or silent opener never
// holds up the accept loop. Transient accept failures (fd exhaustion
// under connection load, peer resets inside the accept queue) are
// retried with exponential backoff, like net/http's Serve, so a busy
// front does not take the whole daemon down.
func ServeEngine(l net.Listener, eng Engine) error {
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if transientAcceptError(err) {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		go serveConn(conn, eng)
	}
}

// maxHelloFrame bounds the one frame a peer can make the server read
// before it has shown it speaks the protocol: a hello is a type byte and
// one uvarint.
const maxHelloFrame = 1 + binary.MaxVarintLen64

// errNotHello answers any first frame that is not a hello — a client of
// the retired lockstep generation, a port scanner, garbage.
var errNotHello = fmt.Errorf("wire: a connection must open with a hello frame (protocol version %d); the untagged lockstep protocol (message types 1, 2, 4-7) is retired", ProtocolV2)

// serveConn admits one connection. The first frame is judged by its head
// alone — length prefix, then type byte — so whatever a legacy or
// hostile opener sent is refused without its body being read, let alone
// decoded: one msgError frame naming the hello requirement, then close.
func serveConn(conn net.Conn, eng Engine) {
	br := bufio.NewReaderSize(conn, 64<<10)
	head, err := br.Peek(4)
	if err != nil {
		conn.Close()
		return
	}
	if n := binary.LittleEndian.Uint32(head); n == 0 || n > maxHelloFrame {
		refuse(conn, errNotHello)
		return
	}
	// The frame has a body, so its type byte is on its way.
	if head, err = br.Peek(5); err != nil {
		conn.Close()
		return
	}
	if head[4] != msgHello {
		refuse(conn, errNotHello)
		return
	}
	hello, err := ReadFrame(br, nil)
	if err != nil {
		conn.Close()
		return
	}
	serveMux(conn, br, hello, eng)
}

// refuse ends a connection that never became a session: one msgError
// frame saying why, then close.
func refuse(conn net.Conn, err error) {
	_ = WriteFrame(conn, appendErrorPayload(nil, err.Error())) // closed either way
	conn.Close()
}
