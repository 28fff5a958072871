package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tcpPair returns two TCPConns over a real loopback socket.
func tcpPair(t *testing.T, srvOpts, cliOpts []TCPOption) (srv, cli *TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc
	}()
	cnc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	snc := <-accepted
	srv = NewTCPConn(snc, srvOpts...)
	cli = NewTCPConn(cnc, cliOpts...)
	t.Cleanup(func() { srv.Close(); cli.Close() })
	return srv, cli
}

// TestTCPConnFragmentedDelivery drips two frames into the reader one
// byte per write: framing must reassemble across arbitrarily small
// reads.
func TestTCPConnFragmentedDelivery(t *testing.T) {
	raw, side := net.Pipe()
	conn := NewTCPConn(side, WithSyncWrites())
	defer conn.Close()
	recv := make(chan []byte, 2)
	conn.SetOnReceive(func(p []byte) { recv <- append([]byte(nil), p...) })

	var wire []byte
	for _, msg := range []string{"fragmented delivery", "still framed"} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
		wire = append(wire, hdr[:]...)
		wire = append(wire, msg...)
	}
	go func() {
		for _, b := range wire {
			if _, err := raw.Write([]byte{b}); err != nil {
				return
			}
		}
	}()
	for _, want := range []string{"fragmented delivery", "still framed"} {
		select {
		case got := <-recv:
			if string(got) != want {
				t.Fatalf("got %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("fragmented frame never delivered")
		}
	}
	if st := conn.Stats(); st.MsgsReceived != 2 || st.ReadErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTCPConnOversizedFrameRejected sends a length prefix above the
// 16 MiB bound: the reader must refuse to allocate, surface the error,
// and count it.
func TestTCPConnOversizedFrameRejected(t *testing.T) {
	raw, side := net.Pipe()
	conn := NewTCPConn(side, WithSyncWrites())
	defer conn.Close()
	errCh := make(chan error, 1)
	conn.OnError = func(err error) { errCh <- err }
	conn.SetOnReceive(func([]byte) { t.Error("oversized frame delivered") })

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxTCPMessage+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !strings.Contains(err.Error(), "oversized") {
			t.Fatalf("error = %v, want oversized", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnError never fired")
	}
	if st := conn.Stats(); st.ReadErrors != 1 {
		t.Fatalf("ReadErrors = %d, want 1", st.ReadErrors)
	}
}

// TestTCPConnMidFrameClose kills the peer between header and payload:
// the truncation must reach OnError with its io.ErrUnexpectedEOF
// context intact, not vanish as a clean close.
func TestTCPConnMidFrameClose(t *testing.T) {
	raw, side := net.Pipe()
	conn := NewTCPConn(side, WithSyncWrites())
	defer conn.Close()
	errCh := make(chan error, 1)
	conn.OnError = func(err error) { errCh <- err }
	conn.SetOnReceive(func([]byte) { t.Error("truncated frame delivered") })

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 10)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("error = %v, want io.ErrUnexpectedEOF", err)
		}
		if !strings.Contains(err.Error(), "mid-frame") {
			t.Fatalf("error = %v, want mid-frame context", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnError never fired")
	}
	if st := conn.Stats(); st.ReadErrors != 1 {
		t.Fatalf("ReadErrors = %d, want 1", st.ReadErrors)
	}
}

// TestTCPConnCleanEOF closes the peer between frames: a normal close,
// no error, no ReadErrors.
func TestTCPConnCleanEOF(t *testing.T) {
	raw, side := net.Pipe()
	conn := NewTCPConn(side, WithSyncWrites())
	defer conn.Close()
	conn.OnError = func(err error) { t.Errorf("unexpected OnError: %v", err) }
	recv := make(chan []byte, 1)
	conn.SetOnReceive(func(p []byte) { recv <- append([]byte(nil), p...) })

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 2)
	raw.Write(hdr[:])
	raw.Write([]byte("ok"))
	raw.Close()
	select {
	case got := <-recv:
		if string(got) != "ok" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered")
	}
	// Give the reader a moment to observe EOF before checking.
	time.Sleep(50 * time.Millisecond)
	if st := conn.Stats(); st.ReadErrors != 0 {
		t.Fatalf("ReadErrors = %d, want 0", st.ReadErrors)
	}
}

// TestTCPConnClosesWhenPeerLeaves: once the peer closes, the conn
// releases its goroutines and socket by itself, with no Send needed to
// discover the loss, and later Sends fail.
func TestTCPConnClosesWhenPeerLeaves(t *testing.T) {
	base := runtime.NumGoroutine()
	raw, side := net.Pipe()
	conn := NewTCPConn(side)
	conn.SetOnReceive(func([]byte) {})
	raw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the peer closed, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	if err := conn.Send([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after the peer closed: %v, want ErrClosed", err)
	}
}

// TestTCPConnConcurrentSend hammers one batched conn from many
// goroutines (run under -race): every frame must arrive intact, never
// interleaved.
func TestTCPConnConcurrentSend(t *testing.T) {
	srv, cli := tcpPair(t, nil, nil)
	const senders, perSender = 8, 100
	var mu sync.Mutex
	seen := make(map[[2]byte]int)
	all := make(chan struct{})
	srv.SetOnReceive(func(p []byte) {
		if len(p) != 32 {
			t.Errorf("frame length %d, want 32", len(p))
			return
		}
		for _, b := range p[2:] {
			if b != p[0]^p[1] {
				t.Errorf("frame body corrupted: % x", p)
				return
			}
		}
		mu.Lock()
		seen[[2]byte{p[0], p[1]}]++
		n := len(seen)
		mu.Unlock()
		if n == senders*perSender {
			close(all)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				p := make([]byte, 32)
				p[0], p[1] = byte(s), byte(i)
				for j := 2; j < len(p); j++ {
					p[j] = p[0] ^ p[1]
				}
				if err := cli.Send(p); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("received %d/%d frames", len(seen), senders*perSender)
	}
}

// TestTCPConnCloseFlushesQueued proves Close drains frames the sender
// already queued instead of racing the writer and dropping them.
func TestTCPConnCloseFlushesQueued(t *testing.T) {
	srv, cli := tcpPair(t, nil, nil)
	const n = 100
	var mu sync.Mutex
	got := 0
	all := make(chan struct{})
	srv.SetOnReceive(func(p []byte) {
		mu.Lock()
		got++
		if got == n {
			close(all)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := cli.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("flushed %d/%d frames before close", got, n)
	}
	if err := cli.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

// TestTCPConnNonBlockingBackpressure fills the queue against a peer
// that never reads: Send must shed with ErrBackpressure instead of
// blocking.
func TestTCPConnNonBlockingBackpressure(t *testing.T) {
	raw, side := net.Pipe()
	conn := NewTCPConn(side, WithSendQueue(1), WithNonBlockingSend())
	payload := make([]byte, 128)
	var got error
	// Depth-1 queue plus a writer wedged on the unread pipe: at most
	// two sends can be accepted before the third must shed.
	for i := 0; i < 10; i++ {
		if err := conn.Send(payload); err != nil {
			got = err
			break
		}
	}
	if got != ErrBackpressure {
		t.Fatalf("err = %v, want ErrBackpressure", got)
	}
	raw.Close() // unwedge the writer so Close returns promptly
	conn.Close()
}

// TestTCPConnWriteBatching wedges the writer, queues frames behind it,
// then releases the pipe: the queued frames must go out coalesced
// (fewer vectored writes than messages).
func TestTCPConnWriteBatching(t *testing.T) {
	raw, side := net.Pipe()
	conn := NewTCPConn(side)
	defer conn.Close()
	const n = 10
	for i := 0; i < n; i++ {
		if err := conn.Send([]byte{byte(i), 0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain and deframe the raw side, checking wire-level framing.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			var hdr [4]byte
			if _, err := io.ReadFull(raw, hdr[:]); err != nil {
				done <- err
				return
			}
			if ln := binary.BigEndian.Uint32(hdr[:]); ln != 2 {
				done <- errors.New("bad frame length")
				return
			}
			var body [2]byte
			if _, err := io.ReadFull(raw, body[:]); err != nil {
				done <- err
				return
			}
			if body[0] != byte(i) || body[1] != 0xEE {
				done <- errors.New("bad frame body")
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frames never drained")
	}
	// The writer increments WriteBatches after the flush lands, which
	// can trail the raw-side drain: poll briefly.
	var st Stats
	for deadline := time.Now().Add(5 * time.Second); ; {
		st = conn.Stats()
		if st.WriteBatches > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.MsgsSent != n {
		t.Fatalf("MsgsSent = %d, want %d", st.MsgsSent, n)
	}
	if st.WriteBatches == 0 || st.WriteBatches >= n {
		t.Fatalf("WriteBatches = %d, want coalescing (0 < batches < %d)", st.WriteBatches, n)
	}
}

// TestTCPConnSyncWrites covers the no-writer-goroutine mode.
func TestTCPConnSyncWrites(t *testing.T) {
	srv, cli := tcpPair(t, nil, []TCPOption{WithSyncWrites()})
	srv.SetOnReceive(func(p []byte) { srv.Send(p) })
	recv := make(chan []byte, 1)
	cli.SetOnReceive(func(p []byte) { recv <- append([]byte(nil), p...) })
	if err := cli.Send([]byte("sync path")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		if string(got) != "sync path" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("echo timed out")
	}
	cli.Close()
	if err := cli.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

// TestTCPConnSendTooLarge rejects messages above the frame bound
// before buffering anything.
func TestTCPConnSendTooLarge(t *testing.T) {
	_, cli := tcpPair(t, nil, nil)
	if err := cli.Send(make([]byte, maxTCPMessage+1)); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestUnbatchedTCPConnRoundTrip keeps the netbench baseline honest:
// it must still speak the same wire protocol as the batched conn.
func TestUnbatchedTCPConnRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		srv := NewTCPConn(nc) // batched side talks to unbatched side
		srv.SetOnReceive(func(p []byte) { srv.Send(p) })
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewUnbatchedTCPConn(nc)
	recv := make(chan []byte, 1)
	cli.SetOnReceive(func(p []byte) { recv <- p })
	if err := cli.Send([]byte("legacy framing")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		if string(got) != "legacy framing" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("echo timed out")
	}
	if st := cli.Stats(); st.MsgsSent != 1 || st.MsgsReceived != 1 {
		t.Fatalf("stats %+v", st)
	}
	cli.Close()
	if err := cli.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}
