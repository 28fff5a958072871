package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tpspace/internal/transport"
	"tpspace/internal/wrapper"
)

// maxConns is the connection count of every serving workload, capped
// by the CPU count: the load generator must not outnumber the cores
// it shares with the server.
func maxConns() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// checkLoadGen refuses a load generator with more connections or
// issuing goroutines than CPUs: past that point the generator, not the
// server, sets the measured rate.
func checkLoadGen(conns, issuers int) error {
	n := runtime.NumCPU()
	if conns < 1 || conns > n || issuers > n {
		return fmt.Errorf("load generator wants %d connections and %d issuing goroutines; this host has %d CPUs", conns, issuers, n)
	}
	return nil
}

// loadGen drives a spaceserver over a few connections and keeps the
// per-round books. Requests are issued from completion callbacks (the
// connection's receive goroutine) or, for open loops, from one pacing
// goroutine per connection; nothing else issues.
type loadGen struct {
	srv    *server
	conns  []*lgConn
	rounds int
	// phase is -1 during warm-up, r while round r is measured, and
	// rounds once measurement has ended.
	phase  atomic.Int32
	stop   atomic.Bool
	broken atomic.Bool
	base   time.Time

	attempted atomic.Int64
	failed    atomic.Int64
	wg        sync.WaitGroup

	mu       sync.Mutex
	problems []string

	// Per-round books, written by the driving goroutine only.
	roundDur []float64
	srvCPU   []time.Duration
	ownCPU   []time.Duration
	tcpSent  []uint64 // frames the clients sent
	tcpBatch []uint64 // writev batches that carried them
	tcpBytes []uint64 // bytes both ways on the client connections
}

// lgConn is one load-generator connection.
type lgConn struct {
	lg     *loadGen
	idx    int
	client *wrapper.Client
	tcp    *transport.TCPConn
	tr     *tracedConn // nil unless the run is traced

	// Written only by this connection's receive goroutine (lat, ops,
	// complete) or its issuing goroutine (late, issue).
	lat      []*hist
	ops      []int64
	late     []*hist
	issue    *hist
	complete *hist
}

func newLoadGen(srv *server, rounds int) *loadGen {
	lg := &loadGen{srv: srv, rounds: rounds, base: time.Now()}
	lg.phase.Store(-1)
	return lg
}

func (lg *loadGen) now() int64 { return int64(time.Since(lg.base)) }

// connect opens n connections to the server.
func (lg *loadGen) connect(n int, binary, traced bool) error {
	for i := 0; i < n; i++ {
		c := &lgConn{lg: lg, idx: i, issue: newHist(), complete: newHist(), ops: make([]int64, lg.rounds)}
		for r := 0; r < lg.rounds; r++ {
			c.lat = append(c.lat, newHist())
			c.late = append(c.late, newHist())
		}
		if traced {
			c.tr = newTracedConn(lg.base)
		}
		cl, tc, err := dial(lg.srv.addr, binary, c.tr)
		if err != nil {
			return err
		}
		c.client, c.tcp = cl, tc
		tc.OnError = func(err error) {
			lg.problem("connection %d: %v", c.idx, err)
			lg.broken.Store(true)
			lg.stop.Store(true)
		}
		lg.conns = append(lg.conns, c)
	}
	return nil
}

// problem records a wrong or failed outcome; the first few are kept
// for the report.
func (lg *loadGen) problem(format string, args ...any) {
	lg.mu.Lock()
	if len(lg.problems) < 10 {
		lg.problems = append(lg.problems, fmt.Sprintf(format, args...))
	}
	lg.mu.Unlock()
}

// fail counts one failed, missing or wrong reply.
func (lg *loadGen) fail(format string, args ...any) {
	lg.failed.Add(1)
	lg.problem(format, args...)
}

// recording reports the round being measured, or -1.
func (lg *loadGen) recording() int {
	ph := int(lg.phase.Load())
	if ph < 0 || ph >= lg.rounds {
		return -1
	}
	return ph
}

// call runs one client call. In a traced round it times the call and
// books it, less the transport Send inside it, as client issue time.
func (c *lgConn) call(fn func()) {
	if c.tr == nil || !c.tr.on.Load() || c.lg.recording() < 0 {
		fn()
		return
	}
	t0 := c.lg.now()
	fn()
	c.issue.add(c.lg.now() - t0 - c.tr.lastSend.Load())
}

// completed books a successful completion at the callback's entry.
// issued is the op's issue or due time; it must be called on the
// connection's receive goroutine.
func (c *lgConn) completed(issued int64) {
	now := c.lg.now()
	if r := c.lg.recording(); r >= 0 {
		c.lat[r].add(now - issued)
		c.ops[r]++
		if c.tr != nil && c.tr.on.Load() {
			if at := c.tr.lastRecv.Load(); at > 0 {
				c.complete.add(now - at)
			}
		}
	}
}

// slot is one closed-loop request stream: it keeps exactly one
// request in flight and issues the next from the completion callback.
type slot struct {
	c        *lgConn
	t0       int64
	lastDone int64
}

// begin marks the issue of the slot's next request and books the time
// the generator took since the previous completion.
func (s *slot) begin() {
	lg := s.c.lg
	s.c.lg.attempted.Add(1)
	s.t0 = lg.now()
	if r := lg.recording(); r >= 0 && s.lastDone > 0 {
		s.c.late[r].add(s.t0 - s.lastDone)
	}
}

// end books the completion of the slot's request and reports whether
// the slot should issue another. A failed request ends the slot.
func (s *slot) end(ok bool) bool {
	lg := s.c.lg
	if ok {
		s.c.completed(s.t0)
	}
	s.lastDone = lg.now()
	if !ok || lg.stop.Load() {
		lg.wg.Done()
		return false
	}
	return true
}

// snap holds the counters that bracket a round.
type snap struct {
	t                    int64
	srv, own             time.Duration
	sent, batches, bytes uint64
}

func (lg *loadGen) snapshot() snap {
	s := snap{t: lg.now(), own: selfCPU()}
	s.srv, _ = procCPU(lg.srv.pid())
	for _, c := range lg.conns {
		st := c.tcp.Stats()
		s.sent += st.MsgsSent
		s.batches += st.WriteBatches
		s.bytes += st.BytesSent + st.BytesRecv
	}
	return s
}

// sleep waits d, returning early if the run broke.
func (lg *loadGen) sleep(d time.Duration) {
	end := time.Now().Add(d)
	for {
		left := time.Until(end)
		if left <= 0 || lg.broken.Load() || lg.srv.exited() {
			return
		}
		if left > 50*time.Millisecond {
			left = 50 * time.Millisecond
		}
		time.Sleep(left)
	}
}

// drive runs the warm-up and the measured rounds. traceOn says which
// rounds are traced.
func (lg *loadGen) drive(warmup, round time.Duration, traceOn func(r int) bool) {
	lg.sleep(warmup)
	prev := lg.snapshot()
	for r := 0; r < lg.rounds; r++ {
		on := traceOn != nil && traceOn(r)
		for _, c := range lg.conns {
			if c.tr != nil {
				c.tr.on.Store(on)
			}
		}
		lg.phase.Store(int32(r))
		lg.sleep(round)
		cur := lg.snapshot()
		lg.roundDur = append(lg.roundDur, float64(cur.t-prev.t)/1e9)
		lg.srvCPU = append(lg.srvCPU, cur.srv-prev.srv)
		lg.ownCPU = append(lg.ownCPU, cur.own-prev.own)
		lg.tcpSent = append(lg.tcpSent, cur.sent-prev.sent)
		lg.tcpBatch = append(lg.tcpBatch, cur.batches-prev.batches)
		lg.tcpBytes = append(lg.tcpBytes, cur.bytes-prev.bytes)
		prev = cur
	}
	lg.phase.Store(int32(lg.rounds))
	for _, c := range lg.conns {
		if c.tr != nil {
			c.tr.on.Store(false)
		}
	}
	if lg.srv.exited() {
		lg.problem("spaceserver exited during the run: %s", lg.srv.stderrTail())
		lg.broken.Store(true)
	}
}

// quiesce stops issuing and waits for the requests in flight. It
// reports false, with a problem recorded, if they did not complete.
func (lg *loadGen) quiesce(timeout time.Duration) bool {
	lg.stop.Store(true)
	if lg.broken.Load() && timeout > time.Second {
		timeout = time.Second
	}
	if lg.idle(timeout) {
		return true
	}
	lg.problem("requests still in flight %v after the run ended", timeout)
	return false
}

// idle waits up to timeout for the requests in flight to complete.
func (lg *loadGen) idle(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() { lg.wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// close tears the connections down; requests still in flight fail
// through their callbacks, which count them.
func (lg *loadGen) close() {
	lg.stop.Store(true)
	for _, c := range lg.conns {
		c.client.Close()
	}
	if !lg.idle(5 * time.Second) {
		lg.problem("callbacks did not fire after close")
	}
}

// roundSeries turns the per-round books into end-to-end series over
// the rounds selected by keep. Rates, costs and latency percentiles
// are per round, so the run's median ignores a host pause that falls
// in a minority of its rounds.
func (lg *loadGen) roundSeries(res *result, keep func(r int) bool) {
	for r := 0; r < len(lg.roundDur); r++ {
		if !keep(r) {
			continue
		}
		h, late := newHist(), newHist()
		var ops int64
		for _, c := range lg.conns {
			h.merge(c.lat[r])
			late.merge(c.late[r])
			ops += c.ops[r]
		}
		if ops == 0 {
			continue
		}
		res.samples += int64(h.n)
		res.add("ops_per_sec", float64(ops)/lg.roundDur[r])
		res.add("p50_us", h.quantile(0.50)/1e3)
		res.add("p99_us", h.quantile(0.99)/1e3)
		res.add("server_cpu_us_per_op", float64(lg.srvCPU[r])/1e3/float64(ops))
		res.add("loadgen.cpu_us_per_op", float64(lg.ownCPU[r])/1e3/float64(ops))
		res.add("loadgen.late_p99_us", late.quantile(0.99)/1e3)
	}
}

// books copies the outcome counters and problems into res.
func (lg *loadGen) books(res *result) {
	res.attempted += lg.attempted.Load()
	res.failed += lg.failed.Load()
	lg.mu.Lock()
	res.problems = append(res.problems, lg.problems...)
	lg.mu.Unlock()
	if lg.broken.Load() {
		res.broken = true
	}
}
