package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// tcpPair returns both ends of a loopback TCP connection, the sender's
// send buffer shrunk to the kernel's floor and the receiver's receive
// buffer to 64 KiB, so well under a hundred kilobytes fill the path
// between them. (A few-kilobyte receive window would crawl through
// delayed acknowledgements.)
func tcpPair(t *testing.T) (send, recv *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-accepted
	if a == nil {
		t.Fatal("accept failed")
	}
	send, recv = c.(*net.TCPConn), a.(*net.TCPConn)
	t.Cleanup(func() { send.Close(); recv.Close() })
	if err := send.SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if err := recv.SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	return send, recv
}

// startWriter readies a writer on conn and runs its goroutine until the
// test ends.
func startWriter(t *testing.T, conn net.Conn) *writer {
	w := new(writer)
	w.init(conn)
	done := make(chan struct{})
	go func() { defer close(done); w.loop() }()
	t.Cleanup(func() { w.stop(); conn.Close(); <-done })
	return w
}

// TestWriterKeepsEachSendersOrder: goroutines interleave lone and
// accompanied sends on one connection, each numbering its own frames.
// Direct writes, refused tails (on two cores about 80 and 12 a run) and
// the writer goroutine's bursts may interleave the senders any way they
// like, but the peer must see every sender's frames in the order it sent
// them — and a connection without a raw socket, which queues
// everything, the same.
func TestWriterKeepsEachSendersOrder(t *testing.T) {
	const senders, frames = 8, 400
	pipeSend, pipeRecv := net.Pipe()
	t.Cleanup(func() { pipeSend.Close(); pipeRecv.Close() })
	tcpSend, tcpRecv := tcpPair(t)
	for _, arm := range []struct {
		name       string
		send, recv net.Conn
	}{{"tcp", tcpSend, tcpRecv}, {"pipe", pipeSend, pipeRecv}} {
		t.Run(arm.name, func(t *testing.T) {
			w := startWriter(t, arm.send)
			if (w.raw != nil) != (arm.name == "tcp") {
				t.Fatalf("raw socket found = %v on a %s connection", w.raw != nil, arm.name)
			}
			var wg sync.WaitGroup
			for s := range senders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for seq := range frames {
						// Some frames are a few hundred bytes, so the small
						// buffers refuse direct writes part way; the pauses
						// let the queue drain, so lone frames go direct.
						p := make([]byte, 8, 8+(seq%5)*100)
						binary.LittleEndian.PutUint32(p, uint32(s))
						binary.LittleEndian.PutUint32(p[4:], uint32(seq))
						w.send(p[:cap(p)], (s+seq)%3 != 0)
						if seq%4 == 0 {
							time.Sleep(20 * time.Microsecond)
						}
					}
				}()
			}
			br := bufio.NewReader(arm.recv)
			next := make([]uint32, senders)
			for range senders * frames {
				p, err := ReadFrame(br, nil)
				if err != nil {
					t.Fatal(err)
				}
				s, seq := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:])
				if seq != next[s] {
					t.Fatalf("sender %d: frame %d arrived where %d was due", s, seq, next[s])
				}
				next[s]++
				if next[s]%64 == 0 {
					time.Sleep(100 * time.Microsecond) // the socket fills meanwhile
				}
			}
			wg.Wait()
		})
	}
}

// TestWriterRefusedTail: a lone frame of several hundred kilobytes that
// the kernel only half takes returns at once, leaving the rest in bw for
// the writer goroutine; lone frames sent after it queue behind it rather
// than go direct; and once the peer reads, the big frame arrives intact
// and the others follow it in order. The writer goroutine starts only
// after the sends, so what they left behind can be inspected.
func TestWriterRefusedTail(t *testing.T) {
	send, recv := tcpPair(t)
	w := new(writer)
	w.init(send)

	big := bytes.Repeat([]byte("0123456789abcdef"), 400<<10/16)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		w.send(big, true)
		for i := range 10 {
			w.send([]byte{byte(i)}, true)
		}
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("send blocked on a peer that is not reading")
	}
	w.wmu.Lock()
	tail := len(w.bw)
	w.wmu.Unlock()
	if tail == 0 || tail >= len(big) || !w.busy || len(w.queue) != 10 {
		t.Fatalf("after the sends: %d of %d bytes left in bw, busy %v, %d frames queued; want a partial tail, busy, and all 10 queued behind it",
			tail, len(big)+4, w.busy, len(w.queue))
	}

	done := make(chan struct{})
	go func() { defer close(done); w.loop() }()
	defer func() { w.stop(); <-done }()
	br := bufio.NewReader(recv)
	p, err := ReadFrame(br, nil)
	if err != nil || !bytes.Equal(p, big) {
		t.Fatalf("big frame: %d bytes, err %v; want %d intact bytes", len(p), err, len(big))
	}
	for i := range 10 {
		p, err := ReadFrame(br, nil)
		if err != nil || len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("frame %d after the big one: %v, err %v", i, p, err)
		}
	}
}
