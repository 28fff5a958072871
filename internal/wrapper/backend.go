package wrapper

// The gateway's direct binary backend: when the gateway and the space
// share a process (NewServerStack), a binary frame is served straight
// off the wire — decoded from the transport's receive slab into a
// pooled scratch request, executed on the space, and answered by
// appending into a pooled size-class buffer — with no XML-shaped
// intermediate, no string-typed op dispatch, and no RMI remarshal
// hop. The observable protocol (wire shapes, at-most-once dedup,
// error mapping, notify pushes) matches RegisterSpace exactly; XML
// frames and stacks without a space handle keep the RMI path.
//
// Buffer ownership on this path is linear (DESIGN §11): a response
// buffer comes from transport.GetBuf, is handed to Conn.Send (which
// finishes with it before returning), and then EITHER transfers to
// the dedup cache (requests with an id — the cache answers duplicates
// and releases the buffer to the pool on eviction) OR returns to the
// pool immediately (id-0 error replies, notify events).

import (
	"errors"
	"sync"
	"sync/atomic"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// binState is the per-frame decode scratch: the request struct whose
// tuple storage is reused across frames, and the intern table that
// makes recurring type/field names allocation-free. States live in a
// pool because frames can be served concurrently (the reader
// goroutines of several connections, or concurrent loopback senders).
type binState struct {
	req xmlcodec.BinRequest
	in  *xmlcodec.Interner
	// got is the probe-first match scratch: space.ProbeTake /
	// ProbeRead clone the hit into it (reusing its field storage), and
	// the response is serialized out of it before the state is pooled.
	got tuple.Tuple
}

var binStatePool = sync.Pool{
	New: func() any { return &binState{in: xmlcodec.NewInterner()} },
}

// binDedup is the direct path's at-most-once table — the semantics of
// dedup (resilience.go) with pooled-buffer ownership and no per-op
// closure: completed responses are cached verbatim (the cache owns
// the pooled frame, releasing it on eviction), duplicates of in-flight
// requests park a delivery hook on the original.
//
// The completed-response cache is a direct-mapped array indexed by
// id&(cap-1) rather than a map+FIFO queue: a completion is one slot
// store (evicting the previous occupant to the buffer pool), a
// duplicate check one slot compare — no map hashing, no eviction
// queue, no per-completion append. Request ids are per-connection
// sequential, so a slot holds an id for exactly cap completions before
// collision evicts it — the same retention the FIFO queue of capacity
// cap provided.
type binDedup struct {
	mu       sync.Mutex
	mask     uint64
	slots    []bdSlot
	inflight map[uint64]*bdWait
	free     *bdWait // bdWait freelist, so the steady state allocates nothing
}

// bdSlot caches one completed response frame; resp==nil marks an
// empty slot (id 0 never enters the table — id-0 requests skip dedup).
type bdSlot struct {
	id   uint64
	resp []byte
}

// bdWait tracks one in-flight id; parked duplicate deliverers are
// appended by the (rare) resend race.
type bdWait struct {
	waiters []func([]byte)
	next    *bdWait
}

func newBinDedup(cap int) *binDedup {
	n := 1
	for n < cap {
		n <<= 1
	}
	return &binDedup{
		mask:     uint64(n - 1),
		slots:    make([]bdSlot, n),
		inflight: make(map[uint64]*bdWait),
	}
}

// begin verdicts.
const (
	bdNew      = iota // fresh id: caller executes, then calls complete
	bdDup             // duplicate: resp (an owned copy) answers it, or it parked
	bdDupEmpty        // duplicate parked on the in-flight original; nothing to send now
)

// begin registers an attempt at id. For a completed duplicate it
// returns an owned copy of the cached response; for an in-flight
// duplicate it parks deliver (called with an owned copy when the
// original completes; nil deliver just drops the duplicate — the
// original's response answers it).
func (d *binDedup) begin(id uint64, deliver func([]byte)) (verdict int, resp []byte) {
	d.mu.Lock()
	if s := &d.slots[id&d.mask]; s.id == id && s.resp != nil {
		cp := transport.GetBuf(len(s.resp))
		cp = append(cp, s.resp...)
		d.mu.Unlock()
		return bdDup, cp
	}
	if w, ok := d.inflight[id]; ok {
		if deliver != nil {
			w.waiters = append(w.waiters, deliver)
		}
		d.mu.Unlock()
		return bdDupEmpty, nil
	}
	w := d.free
	if w != nil {
		d.free = w.next
		w.next = nil
	} else {
		w = &bdWait{}
	}
	d.inflight[id] = w
	d.mu.Unlock()
	return bdNew, nil
}

// complete finishes id with its response frame, taking ownership of
// resp (a transport.GetBuf buffer): the cache keeps it in id's slot
// until a colliding completion evicts it back to the pool. Parked
// duplicates receive owned copies.
func (d *binDedup) complete(id uint64, resp []byte) {
	d.mu.Lock()
	w := d.inflight[id]
	delete(d.inflight, id)
	var dups [][]byte
	if w != nil {
		for range w.waiters {
			cp := transport.GetBuf(len(resp))
			dups = append(dups, append(cp, resp...))
		}
	}
	s := &d.slots[id&d.mask]
	if s.resp != nil {
		transport.PutBuf(s.resp)
	}
	s.id, s.resp = id, resp
	var waiters []func([]byte)
	if w != nil {
		waiters = w.waiters
		w.waiters = nil
		w.next = d.free
		d.free = w
	}
	d.mu.Unlock()
	for i, fn := range waiters {
		fn(dups[i])
	}
}

// abort drops an in-flight registration without caching (malformed
// requests discovered after begin); parked duplicates are dropped too
// — a retransmit will re-run the same error path.
func (d *binDedup) abort(id uint64) {
	d.mu.Lock()
	if w, ok := d.inflight[id]; ok {
		delete(d.inflight, id)
		w.waiters = nil
		w.next = d.free
		d.free = w
	}
	d.mu.Unlock()
}

// deliverBin hands a finished response frame to its destination — the
// client connection, or a batch slot (which takes ownership) — and
// releases it. Used for replies that are NOT entering the dedup cache
// (duplicates' copies, id-0 errors).
func (g *Gateway) deliverBin(frame []byte, done func([]byte)) {
	if done != nil {
		done(frame) // slot owns it now
		return
	}
	if err := g.client.Send(frame); err != nil && g.OnError != nil {
		g.OnError(err)
	}
	transport.PutBuf(frame)
}

// finishBin completes a fresh execution: the response goes out (or
// into its batch slot), then its buffer transfers to the dedup cache
// (id != 0) or back to the pool.
func (g *Gateway) finishBin(id uint64, frame []byte, done func([]byte)) {
	if done != nil {
		cp := transport.GetBuf(len(frame))
		done(append(cp, frame...))
	} else if err := g.client.Send(frame); err != nil && g.OnError != nil {
		g.OnError(err)
	}
	if id != 0 {
		g.bd.complete(id, frame)
	} else {
		transport.PutBuf(frame)
	}
}

// binTimeout mirrors xmlcodec.Request.Timeout for the decoded form.
func binTimeout(ms int64) sim.Duration {
	if ms < 0 {
		return sim.Forever
	}
	return sim.Duration(ms) * sim.Millisecond
}

// serveBinary executes one single-op binary frame against the space
// directly. done, when non-nil, receives the response frame (owned)
// instead of it being sent — the batch path. The frame's bytes are
// only read during this call.
func (g *Gateway) serveBinary(b []byte, done func([]byte)) {
	st := binStatePool.Get().(*binState)
	if err := xmlcodec.DecodeRequestBinaryInto(&st.req, b, st.in); err != nil {
		binStatePool.Put(st)
		if g.OnError != nil {
			g.OnError(err)
		}
		// Malformed binary frame: answer in the binary codec with the
		// header's id when it parsed (entry corruption) or id 0 when not
		// even the header survived, and keep the session alive.
		id, _, _ := xmlcodec.PeekRequest(b)
		out := transport.GetBuf(256)
		out = xmlcodec.AppendResponseBinary(out, id, false, false, 0,
			"wrapper: malformed request: "+err.Error(), nil)
		g.deliverBin(out, done)
		return
	}
	req := &st.req
	id := req.ID

	if id != 0 {
		var deliver func([]byte)
		if done != nil {
			deliver = done // a duplicate inside a batch must still fill its slot
		}
		switch verdict, resp := g.bd.begin(id, deliver); verdict {
		case bdDup:
			g.deliverBin(resp, done)
			binStatePool.Put(st)
			return
		case bdDupEmpty:
			binStatePool.Put(st)
			return
		}
	}

	switch req.Op {
	case xmlcodec.OpPing:
		out := transport.GetBuf(64)
		out = xmlcodec.AppendResponseBinary(out, id, true, false, 0, "", nil)
		g.finishBin(id, out, done)

	case xmlcodec.OpCount:
		n := int64(g.sp.Count(req.Entry))
		out := transport.GetBuf(64)
		out = xmlcodec.AppendResponseBinary(out, id, true, false, n, "", nil)
		g.finishBin(id, out, done)

	case xmlcodec.OpWrite:
		// Put, not Write: the lease handle would be discarded, and Put
		// clones into a freelisted entry — the steady-state write path
		// allocates nothing space-side.
		var out []byte
		if err := g.sp.Put(req.Entry, sim.Duration(req.LeaseMs)*sim.Millisecond); err != nil {
			out = transport.GetBuf(256)
			out = xmlcodec.AppendResponseBinary(out, id, false, false, 0, err.Error(), nil)
		} else {
			out = transport.GetBuf(64)
			out = xmlcodec.AppendResponseBinary(out, id, true, false, 0, "", nil)
		}
		g.finishBin(id, out, done)

	case xmlcodec.OpReadIfExists, xmlcodec.OpTakeIfExists:
		var got tuple.Tuple
		var ok bool
		if req.Op == xmlcodec.OpReadIfExists {
			got, ok = g.sp.ReadIfExists(req.Entry)
		} else {
			got, ok = g.sp.TakeIfExists(req.Entry)
		}
		g.finishBin(id, appendMatchResp(id, got, ok), done)

	case xmlcodec.OpRead, xmlcodec.OpTake:
		timeout := binTimeout(req.TimeoutMs)
		if timeout == 0 {
			// Immediate probe: identical stats and wire shape to the
			// blocking path with a zero timeout, without the callback.
			var got tuple.Tuple
			var ok bool
			if req.Op == xmlcodec.OpRead {
				got, ok = g.sp.ReadIfExists(req.Entry)
			} else {
				got, ok = g.sp.TakeIfExists(req.Entry)
			}
			g.finishBin(id, appendMatchResp(id, got, ok), done)
			break
		}
		// Probe first: a hit — the overwhelming steady-state case for a
		// closed loop — completes with no callback closure, no blockingOp
		// setup and no tuple clone beyond CloneInto into pooled scratch.
		// Stats are identical to blockingOp's immediate-hit path (a
		// probe miss counts nothing; the blocking form parks).
		take := req.Op == xmlcodec.OpTake
		if take && g.sp.ProbeTake(&st.got, req.Entry) {
			g.finishBin(id, appendMatchResp(id, st.got, true), done)
			break
		}
		if !take && g.sp.ProbeRead(&st.got, req.Entry) {
			g.finishBin(id, appendMatchResp(id, st.got, true), done)
			break
		}
		op := g.sp.ReadErr
		if take {
			op = g.sp.TakeErr
		}
		// The callback may fire after this frame and scratch are long
		// recycled: it captures only g, id and done. The space clones
		// the template if it parks, so req.Entry stays scratch-owned.
		op(req.Entry, timeout, func(got tuple.Tuple, err error) {
			switch {
			case err == nil:
				g.finishBin(id, appendMatchResp(id, got, true), done)
			case errors.Is(err, space.ErrTimeout):
				g.finishBin(id, appendMatchResp(id, tuple.Tuple{}, false), done)
			default:
				out := transport.GetBuf(256)
				out = xmlcodec.AppendResponseBinary(out, id, false, false, 0, err.Error(), nil)
				g.finishBin(id, out, done)
			}
		})

	case xmlcodec.OpNotify:
		subID := id
		g.sp.Notify(req.Entry, func(t tuple.Tuple) {
			ev := transport.GetBuf(256)
			ev = xmlcodec.AppendResponseBinary(ev, subID, true, true, 0, "", &t)
			if err := g.client.Send(ev); err != nil && g.OnError != nil {
				g.OnError(err)
			}
			transport.PutBuf(ev)
		})
		out := transport.GetBuf(64)
		out = xmlcodec.AppendResponseBinary(out, id, true, false, 0, "", nil)
		g.finishBin(id, out, done)

	case xmlcodec.OpNotifySession:
		// Durable subscription: the hub assigns a session id (returned
		// in Count) and delivers matching writes as sequence-stamped
		// event batches that survive reconnects.
		sess := g.hub.Open(g.sp, req.Entry, g.client)
		out := transport.GetBuf(64)
		out = xmlcodec.AppendResponseBinary(out, id, true, false, int64(sess), "", nil)
		g.finishBin(id, out, done)

	case xmlcodec.OpNotifyResume:
		// Session id rides the lease-ms header slot, the client's last
		// applied sequence the timeout-ms slot.
		sess := uint64(req.LeaseMs)
		ok := g.hub.Resume(sess, g.client, uint64(req.TimeoutMs))
		msg := ""
		if !ok {
			msg = "wrapper: unknown notify session"
		}
		out := transport.GetBuf(64)
		out = xmlcodec.AppendResponseBinary(out, id, ok, false, int64(sess), msg, nil)
		g.finishBin(id, out, done)

	case xmlcodec.OpNotifyEnd:
		sess := uint64(req.LeaseMs)
		ok := g.hub.End(sess)
		msg := ""
		if !ok {
			msg = "wrapper: unknown notify session"
		}
		out := transport.GetBuf(64)
		out = xmlcodec.AppendResponseBinary(out, id, ok, false, 0, msg, nil)
		g.finishBin(id, out, done)

	default:
		// Unreachable while the decoder validates opcodes; kept so an id
		// registered with the dedup table is always completed.
		out := transport.GetBuf(128)
		out = xmlcodec.AppendResponseBinary(out, id, false, false, 0,
			"wrapper: unknown operation "+req.Op, nil)
		g.finishBin(id, out, done)
	}
	binStatePool.Put(st)
}

// appendMatchResp builds the hit/miss response of the match
// operations in a pooled buffer: ok with the tuple, or the historical
// empty-error miss shape.
func appendMatchResp(id uint64, got tuple.Tuple, ok bool) []byte {
	if !ok {
		out := transport.GetBuf(64)
		return xmlcodec.AppendResponseBinary(out, id, false, false, 0, "", nil)
	}
	// Sized to the entry: a reply grown past its buffer by append would
	// reach the dedup cache, and then the pool, in a class no request
	// draws from.
	out := transport.GetBuf(64 + xmlcodec.TupleBinarySize(&got))
	return xmlcodec.AppendResponseBinary(out, id, true, false, 0, "", &got)
}

// batchCollector assembles one batch response frame from its members'
// responses, in member order, and sends it once every member has
// completed (members may finish out of order and on different
// goroutines — parked takes in particular).
type batchCollector struct {
	g         *Gateway
	slots     [][]byte // owned member response frames
	remaining atomic.Int32
}

// batchColPool recycles collectors (and their slot arrays) across
// batches: a collector returns to the pool after its flush, which is
// strictly after the last member completion touched it.
var batchColPool = sync.Pool{New: func() any { return &batchCollector{} }}

func getBatchCollector(g *Gateway, n int) *batchCollector {
	c := batchColPool.Get().(*batchCollector)
	c.g = g
	if cap(c.slots) >= n {
		c.slots = c.slots[:n]
	} else {
		c.slots = make([][]byte, n)
	}
	c.remaining.Store(int32(n))
	return c
}

// slot returns the fill callback for member i.
func (c *batchCollector) slot(i int) func([]byte) {
	return func(resp []byte) {
		c.slots[i] = resp
		if c.remaining.Add(-1) == 0 {
			c.flush()
		}
	}
}

func (c *batchCollector) flush() {
	total := 8
	for _, s := range c.slots {
		total += 4 + len(s)
	}
	out := transport.GetBuf(total)
	out = xmlcodec.AppendBatchHeader(out, true, len(c.slots))
	for i, s := range c.slots {
		out = xmlcodec.AppendBatchMember(out, s)
		transport.PutBuf(s)
		c.slots[i] = nil
	}
	if err := c.g.client.Send(out); err != nil && c.g.OnError != nil {
		c.g.OnError(err)
	}
	transport.PutBuf(out)
	c.g = nil
	batchColPool.Put(c)
}

// handleBatch serves a multi-op batch request frame: each member is a
// complete single-op binary frame, executed independently (direct
// backend or RMI forward), with the responses reassembled into one
// batch response frame in member order.
func (g *Gateway) handleBatch(b []byte) {
	it, err := xmlcodec.NewBatchIter(b)
	if err != nil {
		if g.OnError != nil {
			g.OnError(err)
		}
		out := transport.GetBuf(256)
		out = xmlcodec.AppendResponseBinary(out, 0, false, false, 0,
			"wrapper: malformed batch: "+err.Error(), nil)
		g.deliverBin(out, nil)
		return
	}
	n := it.Len()
	col := getBatchCollector(g, n)
	for i := 0; i < n; i++ {
		member, err := it.Next()
		if err != nil {
			// The remainder of the frame is unwalkable: error out this
			// and every following slot, keeping the batch shape intact.
			if g.OnError != nil {
				g.OnError(err)
			}
			for j := i; j < n; j++ {
				out := transport.GetBuf(256)
				out = xmlcodec.AppendResponseBinary(out, 0, false, false, 0,
					"wrapper: malformed batch member: "+err.Error(), nil)
				col.slot(j)(out)
			}
			return
		}
		g.handleOne(member, col.slot(i))
	}
}
