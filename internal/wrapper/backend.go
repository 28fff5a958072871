package wrapper

// The request executor: every request frame a server stack accepts —
// binary or XML — is decoded into one pooled scratch request,
// executed on the space by one op switch under one at-most-once table,
// and answered by appending into a pooled size-class buffer in the
// codec the request arrived in. NewServerStack runs it on the
// connection's reader goroutine with no RMI hop; RegisterSpace runs
// the same executor behind the RMI skeleton of NewSimServerStack. A
// binary frame is served straight off the wire: decoded from the
// transport's receive slab with no XML-shaped intermediate and no
// string-typed op dispatch.
//
// Buffer ownership on this path is linear (DESIGN §11): a response
// buffer comes from transport.GetBuf, is handed to Conn.Send (which
// finishes with it before returning), and then EITHER transfers to
// the dedup cache (requests with an id — the cache answers duplicates
// and releases the buffer to the pool on eviction) OR returns to the
// pool immediately (id-0 error replies, notify events).

import (
	"errors"
	"fmt"
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

// binDedup is the executor's at-most-once table, one per client
// connection (request ids are per connection): completed responses
// are cached verbatim (the cache owns the pooled frame, releasing it
// on eviction), and duplicates of in-flight requests park on the
// original and receive a copy of its response.
//
// The completed-response cache is a direct-mapped array indexed by
// id&(cap-1) rather than a map+FIFO queue: a completion is one slot
// store (evicting the previous occupant to the buffer pool), a
// duplicate check one slot compare — no map hashing, no eviction
// queue, no per-completion append. Request ids are per-connection
// sequential, so a slot holds an id for exactly cap completions before
// collision evicts it — the same retention a FIFO queue of capacity
// cap provides.
//
// The array starts small and doubles, up to cap, whenever a completed
// id outgrows it: a connection that issues few requests (a simulated
// client, a one-shot CLI) holds a few slots, not cap of them, and
// sequential ids still never collide before the table reaches cap.
type binDedup struct {
	mu       sync.Mutex
	mask     uint64 // len(slots)-1
	maxMask  uint64 // cap-1: the mask the table stops growing at
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

// bdWait tracks one in-flight id; the done functions of parked
// duplicates are appended by the (rare) resend race.
type bdWait struct {
	waiters []func([]byte)
	next    *bdWait
}

// bdInitSlots is the table's starting size.
const bdInitSlots = 16

func newBinDedup(cap int) *binDedup {
	n := 1
	for n < cap {
		n <<= 1
	}
	first := min(n, bdInitSlots)
	return &binDedup{
		mask:     uint64(first - 1),
		maxMask:  uint64(n - 1),
		slots:    make([]bdSlot, first),
		inflight: make(map[uint64]*bdWait),
	}
}

// grow doubles the table until id fits or it reaches cap. Each cached
// response keeps its slot's low bits, so none collides on the way.
func (d *binDedup) grow(id uint64) {
	n := uint64(len(d.slots))
	for n <= id && n-1 < d.maxMask {
		n <<= 1
	}
	slots := make([]bdSlot, n)
	for _, s := range d.slots {
		if s.resp != nil {
			slots[s.id&(n-1)] = s
		}
	}
	d.slots, d.mask = slots, n-1
}

// begin verdicts.
const (
	bdNew    = iota // fresh id: caller executes, then calls complete
	bdDup           // duplicate of a completed request: resp (an owned copy) answers it
	bdParked        // duplicate of an in-flight request: parked until complete
)

// begin registers an attempt at id. For a completed duplicate it
// returns an owned copy of the cached response; an in-flight
// duplicate parks done (nil meaning the client connection, as for
// Gateway.deliver) until the original completes.
func (d *binDedup) begin(id uint64, done func([]byte)) (verdict int, resp []byte) {
	d.mu.Lock()
	if s := &d.slots[id&d.mask]; s.id == id && s.resp != nil {
		cp := transport.GetBuf(len(s.resp))
		cp = append(cp, s.resp...)
		d.mu.Unlock()
		return bdDup, cp
	}
	if w, ok := d.inflight[id]; ok {
		w.waiters = append(w.waiters, done)
		d.mu.Unlock()
		return bdParked, nil
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
// until a colliding completion evicts it back to the pool. It returns
// the duplicates parked on id, each with an owned copy of resp.
func (d *binDedup) complete(id uint64, resp []byte) (waiters []func([]byte), dups [][]byte) {
	d.mu.Lock()
	w := d.inflight[id]
	delete(d.inflight, id)
	if id > d.mask && d.mask < d.maxMask {
		d.grow(id)
	}
	s := &d.slots[id&d.mask]
	if s.resp != nil {
		transport.PutBuf(s.resp)
	}
	s.id, s.resp = id, resp
	if w != nil {
		for range w.waiters {
			cp := transport.GetBuf(len(resp))
			dups = append(dups, append(cp, resp...))
		}
		waiters = w.waiters
		w.waiters = nil
		w.next = d.free
		d.free = w
	}
	d.mu.Unlock()
	return waiters, dups
}

// deliver hands a finished response frame to its destination — done
// (a batch slot or the RMI adapter's respond, which takes ownership)
// or, with done nil, the client connection — and releases it. Used
// for replies that are NOT entering the dedup cache (duplicates'
// copies, errors answered before execution).
func (g *Gateway) deliver(frame []byte, done func([]byte)) {
	if done != nil {
		done(frame) // done owns it now
		return
	}
	if err := g.client.Send(frame); err != nil && g.OnError != nil {
		g.OnError(err)
	}
	transport.PutBuf(frame)
}

// finish completes a fresh execution: the response goes out (or to
// done), then its buffer transfers to the dedup cache (id != 0) and
// the duplicates parked on the id receive copies, or it returns to the
// pool (id 0).
func (g *Gateway) finish(id uint64, frame []byte, done func([]byte)) {
	if done != nil {
		cp := transport.GetBuf(len(frame))
		done(append(cp, frame...))
	} else if err := g.client.Send(frame); err != nil && g.OnError != nil {
		g.OnError(err)
	}
	if id == 0 {
		transport.PutBuf(frame)
		return
	}
	waiters, dups := g.bd.complete(id, frame)
	for i, w := range waiters {
		g.deliver(dups[i], w)
	}
}

// binTimeout mirrors xmlcodec.Request.Timeout for the decoded form.
func binTimeout(ms int64) sim.Duration {
	if ms < 0 {
		return sim.Forever
	}
	return sim.Duration(ms) * sim.Millisecond
}

// appendResp builds a response frame in a pooled buffer, in the
// codec its request arrived in: the binary append, or the XML
// marshal when xml is set. entry may be nil.
func appendResp(xml bool, id uint64, ok, event bool, count int64, errMsg string, entry *tuple.Tuple) []byte {
	if xml {
		r := xmlcodec.NewResponse(id, ok, entry, errMsg)
		r.Event, r.Count = event, count
		// A Response holds only strings, integers and booleans, which
		// the XML encoder always writes (invalid characters become
		// U+FFFD), into a buffer that cannot fail.
		b, _ := xmlcodec.MarshalResponse(r)
		return append(transport.GetBuf(len(b)), b...)
	}
	// Sized to the reply: one grown past its buffer by append would
	// reach the dedup cache, and then the pool, in a class no request
	// draws from.
	n := 64 + len(errMsg)
	if entry != nil {
		n += xmlcodec.TupleBinarySize(entry)
	}
	return xmlcodec.AppendResponseBinary(transport.GetBuf(n), id, ok, event, count, errMsg, entry)
}

// matchResp is the reply of the match operations: ok with the tuple,
// or the historical empty-error miss shape.
func matchResp(xml bool, id uint64, got *tuple.Tuple, ok bool) []byte {
	if !ok {
		got = nil
	}
	return appendResp(xml, id, ok, false, 0, "", got)
}

// malformed answers a frame that does not decode: in the binary codec
// when the frame carries a binary magic, in XML otherwise, with id the
// request id when the header parsed (0 when it did not). The session
// keeps serving.
func (g *Gateway) malformed(b []byte, id uint64, err error, done func([]byte)) {
	if g.OnError != nil {
		g.OnError(err)
	}
	g.deliver(appendResp(!xmlcodec.IsBinaryFrame(b), id, false, false, 0,
		"wrapper: malformed request: "+err.Error(), nil), done)
}

// unknownOp answers a request for an operation the executor does not
// serve in that codec.
func (g *Gateway) unknownOp(xml bool, id uint64, op string, done func([]byte)) {
	g.deliver(appendResp(xml, id, false, false, 0,
		fmt.Sprintf("wrapper: unknown operation %q", op), nil), done)
}

// parseXMLRequest parses a frame that is not a well-formed binary
// request header. A frame with a binary magic is an error either way:
// a broken binary request fails the binary decoder, and the other
// magics are not valid UTF-8, so not XML.
func parseXMLRequest(b []byte) (xmlcodec.Request, error) {
	req, err := xmlcodec.UnmarshalRequest(b)
	if err == nil && xmlcodec.IsBinaryFrame(b) {
		err = errors.New("unexpected binary frame")
	}
	return req, err
}

// sessionOp reports whether op belongs to the durable notify
// sessions, which only binary clients of a stack with a notify hub
// can use.
func sessionOp(op string) bool {
	return op == xmlcodec.OpNotifySession || op == xmlcodec.OpNotifyResume || op == xmlcodec.OpNotifyEnd
}

// decode fills st.req from one single-op frame of either codec and
// reports whether it is ready to execute; otherwise the frame has
// been answered.
func (g *Gateway) decode(st *binState, b []byte, xml bool, done func([]byte)) bool {
	if !xml {
		if err := xmlcodec.DecodeRequestBinaryInto(&st.req, b, st.in); err != nil {
			// The header's id when it parsed (entry corruption), 0 when
			// not even the header survived.
			id, _, _ := xmlcodec.PeekRequest(b)
			g.malformed(b, id, err, done)
			return false
		}
		if sessionOp(st.req.Op) && g.hub == nil {
			g.unknownOp(false, st.req.ID, st.req.Op, done)
			return false
		}
		return true
	}
	r, err := parseXMLRequest(b)
	if err != nil {
		g.malformed(b, 0, err, done)
		return false
	}
	code, ok := xmlcodec.OpCodeOf(r.Op)
	if !ok || sessionOp(r.Op) {
		g.unknownOp(true, r.ID, r.Op, done)
		return false
	}
	req := &st.req
	req.ID, req.Code, req.Op, req.LeaseMs, req.TimeoutMs = r.ID, code, xmlcodec.OpNameOf(code), r.LeaseMs, r.TimeoutMs
	req.HasEntry = r.Op != xmlcodec.OpPing
	if req.HasEntry {
		// An entry that does not decode is answered under the request's
		// id with the decoder's message, as the XML protocol always has.
		if req.Entry, err = r.Tuple(); err != nil {
			g.deliver(appendResp(true, r.ID, false, false, 0, err.Error(), nil), done)
			return false
		}
	}
	return true
}

// serve executes one single-op request frame of either codec on the
// space. done, when non-nil, receives the owned response frame
// instead of it being sent — a batch slot, or the RMI adapter's
// respond. The frame's bytes are only read during this call.
//
// serve holds no lock of its own around space calls: each operation
// routes through the space's template classifier, so on a sharded
// space concrete-template traffic from concurrent connections locks
// only its home shard, and only wildcard templates take the
// documented cross-shard path.
func (g *Gateway) serve(b []byte, done func([]byte)) {
	st := binStatePool.Get().(*binState)
	defer binStatePool.Put(st)
	xml := !xmlcodec.IsBinaryRequest(b)
	if !g.decode(st, b, xml, done) {
		return
	}
	req := &st.req
	id := req.ID

	if id != 0 {
		switch verdict, resp := g.bd.begin(id, done); verdict {
		case bdDup:
			g.deliver(resp, done)
			return
		case bdParked:
			return
		}
	}

	switch req.Op {
	case xmlcodec.OpPing:
		g.finish(id, appendResp(xml, id, true, false, 0, "", nil), done)

	case xmlcodec.OpCount:
		n := int64(g.sp.Count(req.Entry))
		g.finish(id, appendResp(xml, id, true, false, n, "", nil), done)

	case xmlcodec.OpWrite:
		// Put, not Write: the lease handle would be discarded, and Put
		// clones into a freelisted entry — the steady-state write path
		// allocates nothing space-side.
		if err := g.sp.Put(req.Entry, sim.Duration(req.LeaseMs)*sim.Millisecond); err != nil {
			g.finish(id, appendResp(xml, id, false, false, 0, err.Error(), nil), done)
		} else {
			g.finish(id, appendResp(xml, id, true, false, 0, "", nil), done)
		}

	case xmlcodec.OpReadIfExists, xmlcodec.OpTakeIfExists:
		var got tuple.Tuple
		var ok bool
		if req.Op == xmlcodec.OpReadIfExists {
			got, ok = g.sp.ReadIfExists(req.Entry)
		} else {
			got, ok = g.sp.TakeIfExists(req.Entry)
		}
		g.finish(id, matchResp(xml, id, &got, ok), done)

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
			g.finish(id, matchResp(xml, id, &got, ok), done)
			break
		}
		// Probe first: a hit — the overwhelming steady-state case for a
		// closed loop — completes with no callback closure, no blockingOp
		// setup and no tuple clone beyond CloneInto into pooled scratch.
		// Stats are identical to blockingOp's immediate-hit path (a
		// probe miss counts nothing; the blocking form parks).
		take := req.Op == xmlcodec.OpTake
		if take && g.sp.ProbeTake(&st.got, req.Entry) {
			g.finish(id, matchResp(xml, id, &st.got, true), done)
			break
		}
		if !take && g.sp.ProbeRead(&st.got, req.Entry) {
			g.finish(id, matchResp(xml, id, &st.got, true), done)
			break
		}
		op := g.sp.ReadErr
		if take {
			op = g.sp.TakeErr
		}
		// The callback may fire after this frame and scratch are long
		// recycled: it captures only g, xml, id and done. The space
		// clones the template if it parks, so req.Entry stays
		// scratch-owned.
		op(req.Entry, timeout, func(got tuple.Tuple, err error) {
			switch {
			case err == nil:
				g.finish(id, matchResp(xml, id, &got, true), done)
			case errors.Is(err, space.ErrTimeout):
				g.finish(id, matchResp(xml, id, nil, false), done)
			default:
				g.finish(id, appendResp(xml, id, false, false, 0, err.Error(), nil), done)
			}
		})

	case xmlcodec.OpNotify:
		subID := id
		g.sp.Notify(req.Entry, func(t tuple.Tuple) {
			ev := appendResp(xml, subID, true, true, 0, "", &t)
			if err := g.client.Send(ev); err != nil && g.OnError != nil {
				g.OnError(err)
			}
			transport.PutBuf(ev)
		})
		g.finish(id, appendResp(xml, id, true, false, 0, "", nil), done)

	case xmlcodec.OpNotifySession:
		// Durable subscription: the hub assigns a session id (returned
		// in Count) and delivers matching writes as sequence-stamped
		// event batches that survive reconnects.
		sess := g.hub.Open(g.sp, req.Entry, g.client)
		g.finish(id, appendResp(xml, id, true, false, int64(sess), "", nil), done)

	case xmlcodec.OpNotifyResume:
		// Session id rides the lease-ms header slot, the client's last
		// applied sequence the timeout-ms slot.
		sess := uint64(req.LeaseMs)
		ok := g.hub.Resume(sess, g.client, uint64(req.TimeoutMs))
		msg := ""
		if !ok {
			msg = "wrapper: unknown notify session"
		}
		g.finish(id, appendResp(xml, id, ok, false, int64(sess), msg, nil), done)

	case xmlcodec.OpNotifyEnd:
		ok := g.hub.End(uint64(req.LeaseMs))
		msg := ""
		if !ok {
			msg = "wrapper: unknown notify session"
		}
		g.finish(id, appendResp(xml, id, ok, false, 0, msg, nil), done)

	default:
		// Unreachable while decode validates ops; kept so an id
		// registered with the dedup table is always completed.
		g.finish(id, appendResp(xml, id, false, false, 0,
			fmt.Sprintf("wrapper: unknown operation %q", req.Op), nil), done)
	}
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
// complete single-op binary frame, executed independently (by the
// executor or the RMI forward), with the responses reassembled into
// one batch response frame in member order.
func (g *Gateway) handleBatch(b []byte) {
	it, err := xmlcodec.NewBatchIter(b)
	if err != nil {
		if g.OnError != nil {
			g.OnError(err)
		}
		g.deliver(appendResp(false, 0, false, false, 0,
			"wrapper: malformed batch: "+err.Error(), nil), nil)
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
				col.slot(j)(appendResp(false, 0, false, false, 0,
					"wrapper: malformed batch member: "+err.Error(), nil))
			}
			return
		}
		g.handleOne(member, col.slot(i))
	}
}
