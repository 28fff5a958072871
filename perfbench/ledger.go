package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
	"tpspace/internal/xmlcodec"
)

// tape is a workload's op sequence in one serial order, as the ledger
// replays it against each layer in this process. It is generated from
// the same seed and generators as the live run.
type tape struct {
	binary  bool
	shards  int
	preload func(*space.Space) error // writes the entries present before the first op
	journal string                   // journal spaceserver replays at start, if any
	lease   sim.Duration             // lease for the leased-write replay
	window  int                      // requests in flight per connection
	ops     []tapeOp
}

// space returns a fresh space shaped like the workload's server,
// holding its preloaded entries.
func (tp *tape) space() *space.Space {
	sp := space.New(space.NewRealRuntime(), space.WithShards(tp.shards))
	if tp.preload != nil {
		_ = tp.preload(sp)
	}
	return sp
}

type tapeOp struct {
	op      string
	t       tuple.Tuple
	lease   sim.Duration
	timeout sim.Duration
}

// ledger runs the server-side layer replays of a traced run and
// closes the books: every per-layer metric that is not taken on the
// live connections is measured here.
func ledger(e *env, res *result, tp *tape) {
	// Each replay builds its own space holding the resident set; the
	// collections between them keep only one alive at a time.
	results, spaceNs := replaySpace(tp, res)
	runtime.GC()
	replayLeased(tp, res)
	runtime.GC()
	jpath := replayJournal(e, tp, res)
	if tp.journal != "" {
		jpath = tp.journal
	}
	runtime.GC()
	t0 := time.Now()
	if _, err := space.New(space.NewRealRuntime(), space.WithShards(tp.shards)).ReplayFile(jpath); err != nil {
		res.problems = append(res.problems, "ledger: journal replay: "+err.Error())
	}
	res.add("journal.replay_s", time.Since(t0).Seconds())
	runtime.GC()

	reqs, resps := replayCodec(tp, results, res)
	replySizes := replayGateway(tp, reqs, spaceNs, res)
	runtime.GC()
	if err := replayEcho(tp, reqs, resps, replySizes, res); err != nil {
		res.problems = append(res.problems, "ledger: echo: "+err.Error())
	}
	if med := res.series["server.rtt_us"]; len(med) > 0 {
		res.add("ledger.server_unexplained_us",
			median(med)-median(res.series["transport.echo_rtt_us"])-median(res.series["wrapper.gateway_service_us"]))
	}
}

func since(t0 time.Time) int64 { return int64(time.Since(t0)) }

// replaySpace applies the tape to a bare space and times each call by
// op kind. A tape without reads gets a read of each take's template
// just before the take, so read cost is measured on every workload.
// It returns what each take and read matched, for the codec replay,
// and the median call over the whole tape.
func replaySpace(tp *tape, res *result) ([]tuple.Tuple, float64) {
	sp := tp.space()
	hasReads := false
	for _, op := range tp.ops {
		if op.op == xmlcodec.OpRead || op.op == xmlcodec.OpReadIfExists {
			hasReads = true
		}
	}
	hw, ht, hr := newHist(), newHist(), newHist()
	var takes, parked int
	var notified atomic.Int64
	results := make([]tuple.Tuple, len(tp.ops))
	for i, op := range tp.ops {
		switch op.op {
		case xmlcodec.OpWrite:
			t0 := time.Now()
			_ = sp.Put(op.t, space.NoLease)
			hw.add(since(t0))
		case xmlcodec.OpTake, xmlcodec.OpTakeIfExists:
			if !hasReads {
				t0 := time.Now()
				sp.ReadIfExists(op.t)
				hr.add(since(t0))
			}
			takes++
			fired := false
			t0 := time.Now()
			if op.op == xmlcodec.OpTakeIfExists {
				results[i], _ = sp.TakeIfExists(op.t)
				fired = true
			} else {
				sp.Take(op.t, sim.Forever, func(got tuple.Tuple, _ bool) { fired = true; results[i] = got })
			}
			ht.add(since(t0))
			if !fired {
				parked++
			}
		case xmlcodec.OpRead, xmlcodec.OpReadIfExists:
			t0 := time.Now()
			results[i], _ = sp.ReadIfExists(op.t)
			hr.add(since(t0))
		case xmlcodec.OpNotify:
			sp.Notify(op.t, func(tuple.Tuple) { notified.Add(1) })
		}
	}
	res.add("space.write_ns", hw.quantile(0.5))
	res.add("space.take_ns", ht.quantile(0.5))
	res.add("space.read_ns", hr.quantile(0.5))
	if takes > 0 {
		res.add("space.take_parked_share", float64(parked)/float64(takes))
	}
	res.add("space.notify_delivered", float64(notified.Load()))
	all := newHist()
	all.merge(hw)
	all.merge(ht)
	all.merge(hr)
	return results, all.quantile(0.5)
}

// apply runs one tape op untimed; writes carry no lease.
func apply(sp *space.Space, op tapeOp) {
	switch op.op {
	case xmlcodec.OpWrite:
		_ = sp.Put(op.t, space.NoLease)
	case xmlcodec.OpTake:
		sp.Take(op.t, sim.Forever, func(tuple.Tuple, bool) {})
	case xmlcodec.OpTakeIfExists:
		sp.TakeIfExists(op.t)
	case xmlcodec.OpRead, xmlcodec.OpReadIfExists:
		sp.ReadIfExists(op.t)
	case xmlcodec.OpNotify:
		sp.Notify(op.t, func(tuple.Tuple) {})
	}
}

// replayLeased times the tape's writes when every one carries a lease,
// so they are armed on the lease engine, then measures the engine's
// expiry rate.
func replayLeased(tp *tape, res *result) {
	sp := tp.space()
	h := newHist()
	for _, op := range tp.ops {
		if op.op != xmlcodec.OpWrite {
			apply(sp, op)
			continue
		}
		t0 := time.Now()
		_ = sp.Put(op.t, tp.lease)
		h.add(since(t0))
	}
	res.add("space.write_leased_ns", h.quantile(0.5))
	replayExpiry(tp, res)
}

// replayExpiry writes each of the tape's writes, leased and never
// taken, to a space on a simulation clock, with deadlines a microsecond
// apart as arrivals would spread them, then runs the clock past the
// last one. The lease sweeps run inside that call, so its wall time is
// what the lease engine spends expiring the entries.
func replayExpiry(tp *tape, res *result) {
	k := sim.NewKernel(1)
	sp := space.New(space.SimRuntime{K: k}, space.WithShards(tp.shards))
	var n uint64
	for i, op := range tp.ops {
		if op.op == xmlcodec.OpWrite {
			_ = sp.Put(op.t, tp.lease+sim.Duration(i)*sim.Microsecond)
			n++
		}
	}
	if n == 0 {
		return
	}
	t0 := time.Now()
	k.Run()
	wall := time.Since(t0)
	if got := sp.Stats().Expired; got != n || sp.Size() != 0 {
		res.problems = append(res.problems, fmt.Sprintf("ledger: %d of %d leased entries expired, %d left", got, n, sp.Size()))
		return
	}
	res.add("space.expired_per_sec", float64(n)/wall.Seconds())
}

// journalFlushEvery is how many ops the journaled replay runs between
// flushes; spaceserver flushes once a second, which at the serving
// rates measured here is of this order.
const journalFlushEvery = 8192

// replayJournal runs the tape on a space journalling to a file and
// returns the file. Journal append cost is the journaled write's
// median less the bare write's.
func replayJournal(e *env, tp *tape, res *result) string {
	path := filepath.Join(e.work, "ledger.journal")
	sp := tp.space()
	f, err := os.Create(path)
	if err != nil {
		res.problems = append(res.problems, "ledger: "+err.Error())
		return path
	}
	j := space.NewJournal(f)
	sp.SetJournal(j)
	hw, hf := newHist(), newHist()
	for i, op := range tp.ops {
		if op.op == xmlcodec.OpWrite {
			t0 := time.Now()
			_ = sp.Put(op.t, space.NoLease)
			hw.add(since(t0))
		} else {
			apply(sp, op)
		}
		if (i+1)%journalFlushEvery == 0 {
			t0 := time.Now()
			if err := j.Flush(); err != nil {
				res.problems = append(res.problems, "ledger: journal flush: "+err.Error())
			}
			hf.add(since(t0))
		}
	}
	if err := j.Close(); err != nil {
		res.problems = append(res.problems, "ledger: journal close: "+err.Error())
	}
	if st, err := os.Stat(path); err == nil && len(tp.ops) > 0 {
		res.add("journal.bytes_per_op", float64(st.Size())/float64(len(tp.ops)))
	}
	res.add("journal.append_ns", hw.quantile(0.5)-median(res.series["space.write_ns"]))
	res.add("journal.flush_ms", hf.quantile(0.5)/1e6)
	return path
}

// codecOps caps the codec replay; XML costs microseconds per frame.
const codecOps = 10000

// replayCodec times the workload codec's request and response encode
// and decode over the tape, and returns the request frames (with ids
// 1..n) and the response frames.
func replayCodec(tp *tape, results []tuple.Tuple, res *result) (reqs, resps [][]byte) {
	ops := tp.ops
	if len(ops) > codecOps {
		ops = ops[:codecOps]
	}
	entry := func(i int) *tuple.Tuple {
		switch ops[i].op {
		case xmlcodec.OpTake, xmlcodec.OpTakeIfExists, xmlcodec.OpRead, xmlcodec.OpReadIfExists:
			if results[i].Type != "" {
				return &results[i]
			}
		}
		return nil
	}
	encReq := func(i int, buf []byte) []byte {
		op := ops[i]
		if tp.binary {
			code, _ := xmlcodec.OpCodeOf(op.op)
			return xmlcodec.AppendRequestBinary(buf[:0], uint64(i+1), code,
				int64(op.lease/sim.Millisecond), xmlcodec.TimeoutMsOf(op.timeout), &op.t)
		}
		r := xmlcodec.NewRequest(uint64(i+1), op.op, &op.t)
		r.LeaseMs = int64(op.lease / sim.Millisecond)
		r.TimeoutMs = xmlcodec.TimeoutMsOf(op.timeout)
		b, _ := xmlcodec.MarshalRequest(r)
		return b
	}
	encResp := func(i int, buf []byte) []byte {
		if tp.binary {
			return xmlcodec.AppendResponseBinary(buf[:0], uint64(i+1), true, false, 0, "", entry(i))
		}
		b, _ := xmlcodec.MarshalResponse(xmlcodec.NewResponse(uint64(i+1), true, entry(i), ""))
		return b
	}
	buf := make([]byte, 0, 16<<10)
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(ops)) }

	t0 := time.Now()
	for i := range ops {
		buf = encReq(i, buf)
	}
	res.add("xmlcodec.req_encode_ns", perOp(time.Since(t0)))
	t0 = time.Now()
	for i := range ops {
		buf = encResp(i, buf)
	}
	res.add("xmlcodec.resp_encode_ns", perOp(time.Since(t0)))

	for i := range ops {
		reqs = append(reqs, append([]byte(nil), encReq(i, buf)...))
		resps = append(resps, append([]byte(nil), encResp(i, buf)...))
	}
	var br xmlcodec.BinRequest
	var bp xmlcodec.BinResponse
	in := xmlcodec.NewInterner()
	t0 = time.Now()
	for _, f := range reqs {
		if tp.binary {
			_ = xmlcodec.DecodeRequestBinaryInto(&br, f, in)
		} else {
			_, _ = xmlcodec.UnmarshalRequest(f)
		}
	}
	res.add("xmlcodec.req_decode_ns", perOp(time.Since(t0)))
	t0 = time.Now()
	for _, f := range resps {
		if tp.binary {
			_ = xmlcodec.DecodeResponseBinaryInto(&bp, f, in)
		} else {
			_, _ = xmlcodec.UnmarshalResponse(f)
		}
	}
	res.add("xmlcodec.resp_decode_ns", perOp(time.Since(t0)))
	return reqs, resps
}

// replayGateway serves the request frames through wrapper.NewServerStack
// over an in-process loopback, behind the benchmark's probe Conn, with
// the dispatch spaceserver deploys (its -workers default, NumCPU) and
// the workload's window of requests in flight. It returns each reply's
// size by request index.
func replayGateway(tp *tape, reqs [][]byte, spaceNs float64, res *result) []int {
	sp := tp.space()
	a, b := transport.NewLoopback()
	probe := newGatewayProbe(a)
	// Each reply frees a window slot; notify events do not. A take that
	// parks holds its slot until a later write wakes it, so a sender
	// that finds no free slot for gatewayStall sends anyway rather than
	// wait on a take the unsent rest of the tape would satisfy.
	slots := make(chan struct{}, len(reqs)+tp.window)
	probe.onReply = func() { slots <- struct{}{} }
	stack := wrapper.NewServerStack(probe, sp, wrapper.WithWorkers(runtime.NumCPU()))
	b.SetOnReceive(func([]byte) {})
	for i := 0; i < tp.window && i < len(reqs); i++ {
		slots <- struct{}{}
	}
	for _, f := range reqs {
		select {
		case <-slots:
		case <-time.After(gatewayStall):
		}
		_ = b.Send(f)
	}
	// Close drains the dispatch queues: every request handed to the
	// gateway has been handled, and answered unless it parked for good,
	// when it returns.
	_ = stack.Gateway.Close()
	probe.mu.Lock()
	service := probe.service
	sizes := make([]int, len(reqs))
	for i := range reqs {
		sizes[i] = probe.sizes[uint64(i+1)]
	}
	probe.mu.Unlock()
	svc := service.quantile(0.5) / 1e3
	res.add("wrapper.gateway_service_us", svc)
	children := median(res.series["xmlcodec.req_decode_ns"]) + spaceNs +
		median(res.series["xmlcodec.resp_encode_ns"])
	res.add("wrapper.gateway_self_us", svc-children/1e3)
	return sizes
}

// gatewayStall is how long the gateway replay waits for a free window
// slot before sending anyway.
const gatewayStall = 20 * time.Millisecond

// echoOps caps the transport echo replay.
const echoOps = 20000

// replayEcho runs a TCPConn-to-TCPConn echo over loopback with the
// workload's window: each request frame goes out at its size and the
// echo answers at the size of that request's reply.
func replayEcho(tp *tape, reqs, resps [][]byte, replySizes []int, res *result) error {
	n := len(reqs)
	if n > echoOps {
		n = echoOps
	}
	if n == 0 {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan *transport.TCPConn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		srv := transport.NewTCPConn(nc)
		reply := make([]byte, 64<<10)
		srv.SetOnReceive(func(p []byte) {
			idx := binary.BigEndian.Uint64(p[:8])
			size := len(resps[idx])
			if s := replySizes[idx]; s > 0 {
				size = s
			}
			if size < 8 {
				size = 8
			}
			out := reply[:size]
			binary.BigEndian.PutUint64(out, idx)
			_ = srv.Send(out)
		})
		accepted <- srv
	}()
	cli, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer cli.Close()
	base := time.Now()
	sentAt := make([]atomic.Int64, n)
	h := newHist()
	var next atomic.Int64
	done := make(chan struct{})
	var got atomic.Int64
	frame := make([]byte, 64<<10)
	send := func(idx int) {
		size := len(reqs[idx])
		if size < 8 {
			size = 8
		}
		f := frame[:size]
		binary.BigEndian.PutUint64(f, uint64(idx))
		sentAt[idx].Store(int64(time.Since(base)))
		_ = cli.Send(f)
	}
	window := tp.window
	if window > n {
		window = n
	}
	next.Store(int64(window))
	cli.SetOnReceive(func(p []byte) {
		idx := binary.BigEndian.Uint64(p[:8])
		h.add(int64(time.Since(base)) - sentAt[idx].Load())
		if got.Add(1) == int64(n) {
			close(done)
			return
		}
		if i := next.Add(1) - 1; i < int64(n) {
			send(int(i))
		}
	})
	// The initial window goes out from this goroutine before any reply
	// can trigger a send from the receive goroutine; frame is shared,
	// but TCPConn.Send copies it before returning.
	for i := 0; i < window; i++ {
		send(i)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("echo stalled after %d of %d frames", got.Load(), n)
	}
	if srv, ok := <-accepted; ok && srv != nil {
		defer srv.Close()
	}
	res.add("transport.echo_rtt_us", h.quantile(0.5)/1e3)
	return nil
}

// clientLayers closes the books of the live traced rounds: the client
// and transport layers as the traced Conn saw them, the generator's
// own cost and lateness, and the tracing overhead.
func (e *env) clientLayers(res *result, lg *loadGen, traceOn func(int) bool) {
	send, rtt, issue, complete := newHist(), newHist(), newHist(), newHist()
	for _, c := range lg.conns {
		c.tr.mu.Lock()
		send.merge(c.tr.send)
		c.tr.mu.Unlock()
		rtt.merge(c.tr.rtt)
		issue.merge(c.issue)
		complete.merge(c.complete)
	}
	res.add("transport.send_ns", send.quantile(0.5))
	res.add("server.rtt_us", rtt.quantile(0.5)/1e3)
	res.add("wrapper.client_issue_ns", issue.quantile(0.5))
	res.add("wrapper.client_complete_ns", complete.quantile(0.5))

	var sent, batches, bytes, ops uint64
	var onRate, offRate []float64
	traced := newHist()
	for r := range lg.roundDur {
		var n int64
		for _, c := range lg.conns {
			n += c.ops[r]
		}
		if !traceOn(r) {
			offRate = append(offRate, float64(n)/lg.roundDur[r])
			continue
		}
		onRate = append(onRate, float64(n)/lg.roundDur[r])
		sent += lg.tcpSent[r]
		batches += lg.tcpBatch[r]
		bytes += lg.tcpBytes[r]
		ops += uint64(n)
		for _, c := range lg.conns {
			traced.merge(c.lat[r])
		}
	}
	if batches > 0 {
		res.add("transport.frames_per_write", float64(sent)/float64(batches))
	}
	if ops > 0 {
		res.add("transport.bytes_per_op", float64(bytes)/float64(ops))
	}
	if len(onRate) > 0 && len(offRate) > 0 {
		res.add("trace.overhead", 1-median(onRate)/median(offRate))
	}
	res.add("ledger.unexplained_us", traced.quantile(0.5)/1e3-
		(issue.quantile(0.5)+complete.quantile(0.5))/1e3-rtt.quantile(0.5)/1e3)
}
