package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConn adapts a net.Conn into a message-oriented Conn using
// 4-byte big-endian length prefixes, the classic socket framing of
// the paper's Java/socket wrapper (Figure 4).
//
// The send side is pipelined: Send copies the payload into a pooled
// frame buffer and enqueues it on a bounded lock-free MPSC ring
// (sendRing); a dedicated writer goroutine drains the ring and hands
// k frames at a time to the kernel through net.Buffers (one writev
// for the whole batch), so under load k small frames cost one syscall
// instead of 2k. Enqueue is one CAS + one store — concurrent senders
// on different cores never take a lock on the hot path. When the ring
// is full Send blocks by default — backpressure instead of unbounded
// buffering; WithNonBlockingSend turns the wait into ErrBackpressure
// for callers that would rather shed load. WithSyncWrites removes the
// writer goroutine entirely and writes each frame inline as a single
// combined write (still one syscall per frame, never two).
//
// Note the ring is MPSC, not a FIFO across producers: frames from a
// single goroutine stay in order (each Send completes its publish
// before returning), which is the ordering the Conn contract
// promises; frames racing from different goroutines have no defined
// order, exactly as before.
//
// The receive side reads through a bufio.Reader (one syscall ingests
// many frames) into per-class buffers recycled across frames, so the
// steady-state receive path performs zero allocations for frames up
// to 64 KiB. The payload passed to the receive callback is only
// valid until the callback returns (see Conn.SetOnReceive).
type TCPConn struct {
	mu     sync.Mutex // guards onRecv, started, OnError
	nc     net.Conn
	onRecv func([]byte)
	closed atomic.Bool
	// started guards the reader goroutine launch.
	started bool
	// OnError, if set, observes reader- and writer-side failures
	// other than a clean close. Set it before traffic flows.
	OnError func(error)

	cfg tcpConfig

	// Counters are atomics so Send/receive never serialize on a
	// stats lock.
	msgsSent     atomic.Uint64
	msgsReceived atomic.Uint64
	bytesSent    atomic.Uint64
	bytesRecv    atomic.Uint64
	readErrors   atomic.Uint64
	writeBatches atomic.Uint64

	// Batched-writer state (nil/unused under WithSyncWrites).
	ring       *sendRing
	quit       chan struct{}
	quitOnce   sync.Once
	writerDone chan struct{}
	// Writer-goroutine scratch, reused across batches.
	fscratch []*wframe
	wbufs    net.Buffers
}

// maxTCPMessage bounds a single framed message (16 MiB), protecting
// against corrupt length prefixes.
const maxTCPMessage = 16 << 20

// Writer batch bounds: one writev covers at most this many frames or
// bytes. Both are generous — the point is a sane upper bound on the
// iovec array and on latency added by coalescing, not tuning.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 256 << 10
)

// closeFlushBudget bounds how long Close waits for the writer
// goroutine to flush queued frames to a peer that has stopped
// reading.
const closeFlushBudget = 2 * time.Second

// tcpConfig carries the TCPOption knobs.
type tcpConfig struct {
	queueDepth  int
	nonBlocking bool
	syncWrites  bool
}

// TCPOption configures a TCPConn at construction.
type TCPOption func(*tcpConfig)

// WithSendQueue sets the outbound queue depth in frames (default
// 256; rounded up by the ring to the next power of two, minimum 2).
// A deeper queue absorbs bigger bursts before backpressure; a shallow
// one keeps senders close behind the writer.
func WithSendQueue(depth int) TCPOption {
	return func(c *tcpConfig) {
		if depth > 0 {
			c.queueDepth = depth
		}
	}
}

// WithNonBlockingSend makes Send return ErrBackpressure when the
// outbound queue is full instead of blocking until the writer drains
// it.
func WithNonBlockingSend() TCPOption {
	return func(c *tcpConfig) { c.nonBlocking = true }
}

// WithSyncWrites disables the writer goroutine: each Send writes its
// frame inline, as a single combined header+payload write under the
// connection lock. No batching, but also no queue — useful for
// strictly request-at-a-time callers like one-shot CLIs.
func WithSyncWrites() TCPOption {
	return func(c *tcpConfig) { c.syncWrites = true }
}

// NewTCPConn wraps an established net.Conn. Call SetOnReceive before
// traffic is expected; the reader goroutine starts on the first
// SetOnReceive. Unless WithSyncWrites is given, the writer goroutine
// starts immediately.
func NewTCPConn(nc net.Conn, opts ...TCPOption) *TCPConn {
	cfg := tcpConfig{queueDepth: 256}
	for _, o := range opts {
		o(&cfg)
	}
	t := &TCPConn{nc: nc, cfg: cfg}
	if !cfg.syncWrites {
		t.ring = newSendRing(cfg.queueDepth)
		t.quit = make(chan struct{})
		t.writerDone = make(chan struct{})
		go t.writeLoop()
	}
	return t
}

// Dial connects to a TCP space server.
func Dial(addr string, opts ...TCPOption) (*TCPConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewTCPConn(nc, opts...), nil
}

//
// Send path.
//

// wframe is one queued outbound frame: header and payload contiguous
// in a pooled buffer, so a batch of frames becomes one writev over
// the frames' buffers.
type wframe struct {
	data  []byte // cap ≥ n; [0:4) header, [4:n) payload
	n     int
	class int8 // pool class, -1 = unpooled (oversized)
}

// sendClasses are the pooled frame-buffer sizes. Frames larger than
// the top class are allocated fresh and not recycled.
var sendClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}

var sendPools [len(sendClasses)]sync.Pool

// newFrame builds a framed copy of payload in a pooled buffer. The
// copy keeps Send's contract — the caller may reuse payload as soon
// as Send returns — while the writer goroutine owns the frame until
// it hits the kernel.
func newFrame(payload []byte) *wframe {
	need := 4 + len(payload)
	class := int8(-1)
	var f *wframe
	for i, c := range sendClasses {
		if need <= c {
			class = int8(i)
			if v := sendPools[i].Get(); v != nil {
				f = v.(*wframe)
			} else {
				f = &wframe{data: make([]byte, c)}
			}
			break
		}
	}
	if f == nil {
		f = &wframe{data: make([]byte, need)}
	}
	f.n = need
	f.class = class
	binary.BigEndian.PutUint32(f.data[:4], uint32(len(payload)))
	copy(f.data[4:need], payload)
	return f
}

func (f *wframe) release() {
	if f.class >= 0 {
		sendPools[f.class].Put(f)
	}
}

// Send implements Conn. The payload is copied before Send returns;
// delivery happens asynchronously through the writer goroutine
// (synchronously under WithSyncWrites).
func (t *TCPConn) Send(payload []byte) error {
	if len(payload) > maxTCPMessage {
		return ErrTooLarge
	}
	if t.closed.Load() {
		return ErrClosed
	}
	f := newFrame(payload)
	if t.cfg.syncWrites {
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			f.release()
			return ErrClosed
		}
		// One combined write: a failure between header and payload can
		// no longer desynchronize the peer's framing.
		_, err := t.nc.Write(f.data[:f.n])
		t.mu.Unlock()
		f.release()
		if err == nil {
			t.msgsSent.Add(1)
			t.bytesSent.Add(uint64(len(payload)))
		}
		return err
	}

	if t.cfg.nonBlocking {
		if !t.ring.tryPush(f) {
			f.release()
			return ErrBackpressure
		}
		t.ring.wake()
	} else if err := t.ring.push(f, &t.closed); err != nil {
		f.release()
		return err
	}
	t.msgsSent.Add(1)
	t.bytesSent.Add(uint64(len(payload)))
	return nil
}

// writeLoop drains the outbound ring, coalescing queued frames into
// vectored writes. Between frames it parks on the ring's wake token
// (publish-then-re-check, so a wakeup cannot be lost). On quit it
// flushes whatever is already queued, then closes the socket.
func (t *TCPConn) writeLoop() {
	defer close(t.writerDone)
	for {
		f, ok := t.ring.pop()
		if !ok {
			t.ring.sleeping.Store(true)
			if f, ok = t.ring.pop(); !ok {
				select {
				case <-t.ring.wakeCh:
					t.ring.sleeping.Store(false)
					continue
				case <-t.quit:
					t.ring.sleeping.Store(false)
					// Graceful close: flush queued frames, then tear down.
					for {
						f, ok := t.ring.pop()
						if !ok {
							_ = t.nc.Close()
							return
						}
						if !t.writeBatch(f) {
							t.discardQueued()
							return
						}
					}
				}
			}
			t.ring.sleeping.Store(false)
		}
		if !t.writeBatch(f) {
			t.discardQueued()
			return
		}
	}
}

// writeBatch coalesces first with any frames already queued (up to
// the batch bounds) into one vectored write. It reports false once
// the connection has failed.
func (t *TCPConn) writeBatch(first *wframe) bool {
	frames := append(t.fscratch[:0], first)
	total := first.n
	for len(frames) < maxBatchFrames && total < maxBatchBytes {
		f, ok := t.ring.pop()
		if !ok {
			break
		}
		frames = append(frames, f)
		total += f.n
	}
	bufs := t.wbufs[:0]
	for _, f := range frames {
		bufs = append(bufs, f.data[:f.n])
	}
	t.wbufs = bufs
	_, err := bufs.WriteTo(t.nc)
	for _, f := range frames {
		f.release()
	}
	t.fscratch = frames[:0]
	if err != nil {
		wasClosed := t.closed.Swap(true)
		t.ring.wakeAll()
		t.mu.Lock()
		cb := t.OnError
		t.mu.Unlock()
		t.quitOnce.Do(func() { close(t.quit) })
		_ = t.nc.Close()
		if !wasClosed && cb != nil {
			cb(fmt.Errorf("transport: write: %w", err))
		}
		return false
	}
	t.writeBatches.Add(1)
	return true
}

// discardQueued releases queued frames after a write failure so
// blocked senders drain without touching the dead socket.
func (t *TCPConn) discardQueued() {
	for {
		f, ok := t.ring.pop()
		if !ok {
			return
		}
		f.release()
	}
}

//
// Receive path.
//

// recvClasses are the recycled receive-buffer sizes. The reader
// goroutine owns one buffer per class and reuses it across frames —
// the receive callback must not retain the payload (copy on retain).
var recvClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10}

// readBufSize is the bufio.Reader window: one read syscall ingests up
// to this many framed bytes.
const readBufSize = 64 << 10

// SetOnReceive implements Conn and starts the reader goroutine on
// first use. The payload slice handed to fn is recycled once fn
// returns; retain requires a copy.
func (t *TCPConn) SetOnReceive(fn func([]byte)) {
	t.mu.Lock()
	t.onRecv = fn
	start := !t.started && fn != nil
	t.started = t.started || start
	t.mu.Unlock()
	if start {
		go t.readLoop()
	}
}

func (t *TCPConn) readLoop() {
	// A reader that stops — peer gone, stream corrupt, or conn closed —
	// ends the connection: nothing else would stop the writer goroutine
	// or close the socket of a peer that has left.
	defer t.Close()
	br := bufio.NewReaderSize(t.nc, readBufSize)
	var slabs [len(recvClasses)][]byte
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.fail(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxTCPMessage {
			t.fail(fmt.Errorf("transport: oversized message (%d bytes)", n))
			return
		}
		buf := grabRecvBuf(&slabs, int(n))
		if _, err := io.ReadFull(br, buf); err != nil {
			t.fail(err)
			return
		}
		if t.closed.Load() {
			return
		}
		t.mu.Lock()
		fn := t.onRecv
		t.mu.Unlock()
		t.msgsReceived.Add(1)
		t.bytesRecv.Add(uint64(len(buf)))
		if fn != nil {
			fn(buf)
		}
	}
}

// grabRecvBuf returns an n-byte view of the recycled buffer for n's
// size class, allocating the class buffer on first use. Oversized
// frames (above the top class) get a fresh allocation.
func grabRecvBuf(slabs *[len(recvClasses)][]byte, n int) []byte {
	for i, c := range recvClasses {
		if n <= c {
			if slabs[i] == nil {
				slabs[i] = make([]byte, c)
			}
			return slabs[i][:n]
		}
	}
	return make([]byte, n)
}

// fail handles a reader-side error. A clean EOF between frames is a
// normal close; anything else — including a peer vanishing mid-frame,
// which io.ReadFull surfaces as io.ErrUnexpectedEOF — counts in
// Stats.ReadErrors and reaches OnError with its context intact.
func (t *TCPConn) fail(err error) {
	closed := t.closed.Load()
	if !closed && err != io.EOF {
		t.readErrors.Add(1)
	}
	t.mu.Lock()
	cb := t.OnError
	t.mu.Unlock()
	if !closed && cb != nil && err != io.EOF {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("transport: peer closed mid-frame: %w", err)
		}
		cb(err)
	}
}

// Close implements Conn. Frames accepted by Send before Close are
// flushed (bounded by a write deadline) before the socket closes;
// Sends racing Close may be dropped.
func (t *TCPConn) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	if t.cfg.syncWrites {
		return t.nc.Close()
	}
	t.ring.wakeAll()
	// Bound the flush: a peer that stopped reading must not wedge
	// Close behind a full socket buffer.
	_ = t.nc.SetWriteDeadline(time.Now().Add(closeFlushBudget))
	t.quitOnce.Do(func() { close(t.quit) })
	<-t.writerDone
	return nil
}

// Stats returns a snapshot of the endpoint's counters.
func (t *TCPConn) Stats() Stats {
	return Stats{
		MsgsSent:     t.msgsSent.Load(),
		MsgsReceived: t.msgsReceived.Load(),
		BytesSent:    t.bytesSent.Load(),
		BytesRecv:    t.bytesRecv.Load(),
		ReadErrors:   t.readErrors.Load(),
		WriteBatches: t.writeBatches.Load(),
	}
}
