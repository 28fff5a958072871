package main

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpspace/internal/transport"
	"tpspace/internal/xmlcodec"
)

// traceRing is the number of request ids a traced connection can
// match at once. Windows are 32 requests per connection; a take that
// parks while more than traceRing later requests complete loses its
// round-trip sample, which is wanted: a parked take measures waiting,
// not service.
const traceRing = 1 << 14

// tracedConn is the benchmark's own transport.Conn around the
// client's TCPConn. While on, it times each Send and stamps each
// received frame, and matches the two by request id to give the
// server round trip as the client transport sees it.
type tracedConn struct {
	inner transport.Conn
	base  time.Time // shared with the load generator's clock
	on    atomic.Bool

	lastSend atomic.Int64 // duration of the latest Send
	lastRecv atomic.Int64 // when the latest reply was stamped

	sentID [traceRing]atomic.Uint64
	sentAt [traceRing]atomic.Int64

	mu   sync.Mutex
	send *hist // Send durations; guarded by mu

	// Receive goroutine only.
	rtt     *hist
	scratch xmlcodec.BinResponse
	in      *xmlcodec.Interner
}

func newTracedConn(base time.Time) *tracedConn {
	return &tracedConn{base: base, send: newHist(), rtt: newHist(), in: xmlcodec.NewInterner()}
}

func (t *tracedConn) now() int64 { return int64(time.Since(t.base)) }

// Send implements transport.Conn.
func (t *tracedConn) Send(p []byte) error {
	if !t.on.Load() {
		return t.inner.Send(p)
	}
	id, ok := requestID(p)
	t0 := t.now()
	if ok {
		i := id % traceRing
		t.sentID[i].Store(id)
		t.sentAt[i].Store(t0)
	}
	err := t.inner.Send(p)
	d := t.now() - t0
	t.lastSend.Store(d)
	t.mu.Lock()
	t.send.add(d)
	t.mu.Unlock()
	return err
}

// SetOnReceive implements transport.Conn.
func (t *tracedConn) SetOnReceive(fn func([]byte)) {
	t.inner.SetOnReceive(func(p []byte) {
		if t.on.Load() {
			at := t.now()
			if id, ok := responseID(p, &t.scratch, t.in); ok {
				i := id % traceRing
				if t.sentID[i].Load() == id {
					if s := t.sentAt[i].Swap(0); s > 0 {
						t.rtt.add(at - s)
					}
				}
			}
			t.lastRecv.Store(t.now())
		}
		fn(p)
	})
}

// Close implements transport.Conn.
func (t *tracedConn) Close() error { return t.inner.Close() }

// requestID reads a request frame's id with the codec's public peek
// function, or from the XML id attribute.
func requestID(p []byte) (uint64, bool) {
	if id, _, ok := xmlcodec.PeekRequest(p); ok {
		return id, true
	}
	return xmlID(p)
}

// responseID reads a reply's id with the codec's public decode
// function into r, or from the XML id attribute.
func responseID(p []byte, r *xmlcodec.BinResponse, in *xmlcodec.Interner) (uint64, bool) {
	if xmlcodec.IsBinaryResponse(p) {
		if err := xmlcodec.DecodeResponseBinaryInto(r, p, in); err != nil {
			return 0, false
		}
		return r.ID, true
	}
	return xmlID(p)
}

var idAttr = []byte(` id="`)

// xmlID reads the id attribute of an XML request or response element.
func xmlID(p []byte) (uint64, bool) {
	if len(p) > 64 {
		p = p[:64]
	}
	i := bytes.Index(p, idAttr)
	if i < 0 {
		return 0, false
	}
	p = p[i+len(idAttr):]
	j := bytes.IndexByte(p, '"')
	if j < 0 {
		return 0, false
	}
	id, err := strconv.ParseUint(string(p[:j]), 10, 64)
	return id, err == nil
}

// gatewayProbe is the benchmark's Conn on the server side of a
// loopback pair: it stamps each request frame as it is delivered to
// the gateway and times the gateway's reply Send against it, which is
// the gateway's service time for that request.
type gatewayProbe struct {
	inner transport.Conn
	base  time.Time

	gotID [traceRing]atomic.Uint64
	gotAt [traceRing]atomic.Int64

	mu      sync.Mutex
	service *hist
	sizes   map[uint64]int // reply size by request id

	onReply func() // called once per request, at its first reply
}

func newGatewayProbe(inner transport.Conn) *gatewayProbe {
	return &gatewayProbe{inner: inner, base: time.Now(), service: newHist(), sizes: map[uint64]int{}}
}

func (g *gatewayProbe) now() int64 { return int64(time.Since(g.base)) }

func (g *gatewayProbe) Send(p []byte) error {
	at := g.now()
	var r xmlcodec.BinResponse
	if id, ok := responseID(p, &r, nil); ok {
		i := id % traceRing
		if g.gotID[i].Load() == id {
			if s := g.gotAt[i].Swap(0); s > 0 {
				g.mu.Lock()
				g.service.add(at - s)
				g.sizes[id] = len(p)
				g.mu.Unlock()
				if g.onReply != nil {
					g.onReply()
				}
			}
		}
	}
	return g.inner.Send(p)
}

func (g *gatewayProbe) SetOnReceive(fn func([]byte)) {
	g.inner.SetOnReceive(func(p []byte) {
		if id, ok := requestID(p); ok {
			i := id % traceRing
			g.gotID[i].Store(id)
			g.gotAt[i].Store(g.now())
		}
		fn(p)
	})
}

func (g *gatewayProbe) Close() error { return g.inner.Close() }
