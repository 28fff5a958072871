package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// board: the paper's Fig. 7 exchange under a constant-bit-rate load.
// Virtual boards write readings with a short lease over the XML codec
// (the client default and the board protocol, which crosses the
// gateway, the rmi hop and the space); a consumer takes a fixed share
// of them back after a delay and the rest expire on the lease wheel;
// one Notify subscriber receives every alarm. The loop is open: ops
// are issued on a fixed schedule whatever the replies do, and latency
// runs from when an op was due.
const (
	// boardWriteRate is the offered write rate. With the takes it is
	// about 2,900 requests/s, a quarter of the 11.6k requests/s the
	// pairs shape reached over XML at commit 6a1d6a1 on a 2-vCPU VM.
	boardWriteRate = 1800
	boardBoards    = 16
	boardAlarmOne  = 20 // one write in this many is an alarm
	boardTakeOf    = 3  // a consumer takes two readings in this many
	boardTakeDelay = 100 * time.Millisecond
	boardLease     = 1 * sim.Second
	boardTimeout   = 2 * sim.Second
)

var (
	readingTemplate = tuple.New("reading", tuple.AnyInt("board"), tuple.AnyInt("seq"), tuple.AnyFloat("value"))
	alarmTemplate   = tuple.New("alarm", tuple.AnyInt("board"), tuple.AnyInt("seq"), tuple.AnyString("msg"))
)

// boardOp is write w of the schedule: a reading, or an alarm, and
// whether the consumer takes it back.
func boardOp(seed int64, w int64) (t tuple.Tuple, alarm, taken bool) {
	h := mix(uint64(seed) ^ mix(uint64(w)+0xb0a7d))
	board := int64(w % boardBoards)
	if h%boardAlarmOne == 0 {
		return tuple.New("alarm", tuple.Int("board", board), tuple.Int("seq", w),
			tuple.String("msg", "over-temperature")), true, false
	}
	v := float64(h>>11) / float64(1<<53) * 100
	return tuple.New("reading", tuple.Int("board", board), tuple.Int("seq", w), tuple.Float("value", v)),
		false, (h>>32)%boardTakeOf != 0
}

// boardRun is the shared state of one live board run.
type boardRun struct {
	seed     int64
	interval int64 // ns between writes
	start    int64 // due time of write 0
	lg       *loadGen

	alarmsAcked atomic.Int64

	mu       sync.Mutex
	alarms   map[int64]int // alarm seq -> acked writes
	notified map[int64]int // alarm seq -> notifications
	lastDue  int64
}

type pendingTake struct {
	due int64
	t   tuple.Tuple
}

// sleepUntil waits for the run clock to reach at. It uses nanosleep,
// not a Go timer: the runtime's timers wake about a millisecond late,
// far coarser than the schedule's gaps.
func (b *boardRun) sleepUntil(at int64) {
	for {
		d := at - b.lg.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// generate issues connection c's share of the schedule until stop.
func (b *boardRun) generate(c *lgConn, conns int) {
	lg := b.lg
	w := int64(c.idx)
	var takes []pendingTake
	for !lg.stop.Load() {
		wDue := b.start + w*b.interval
		if len(takes) > 0 && takes[0].due <= wDue {
			pt := takes[0]
			takes = takes[1:]
			b.sleepUntil(pt.due)
			b.issueTake(c, pt)
			continue
		}
		b.sleepUntil(wDue)
		t, alarm, taken := boardOp(b.seed, w)
		b.issueWrite(c, wDue, t, alarm)
		if taken {
			takes = append(takes, pendingTake{due: wDue + int64(boardTakeDelay), t: t})
		}
		w += int64(conns)
	}
}

// lateBy books how late the generator issued an op due at due.
func (b *boardRun) lateBy(c *lgConn, due int64) {
	if r := b.lg.recording(); r >= 0 {
		c.late[r].add(b.lg.now() - due)
	}
}

func (b *boardRun) issueWrite(c *lgConn, due int64, t tuple.Tuple, alarm bool) {
	lg := b.lg
	lg.attempted.Add(1)
	lg.wg.Add(1)
	seq := t.Fields[1].Int
	if alarm {
		b.mu.Lock()
		b.alarms[seq] = 0
		b.mu.Unlock()
	}
	b.lateBy(c, due)
	c.call(func() {
		c.client.Write(t, boardLease, func(ok bool, msg string) {
			if ok {
				c.completed(due)
				if alarm {
					b.alarmsAcked.Add(1)
					b.mu.Lock()
					b.alarms[seq]++
					b.mu.Unlock()
				}
			} else {
				lg.fail("board: write %v failed: %s", t, msg)
			}
			b.mu.Lock()
			if due > b.lastDue {
				b.lastDue = due
			}
			b.mu.Unlock()
			lg.wg.Done()
		})
	})
}

func (b *boardRun) issueTake(c *lgConn, pt pendingTake) {
	lg := b.lg
	lg.attempted.Add(1)
	lg.wg.Add(1)
	b.lateBy(c, pt.due)
	c.call(func() {
		c.client.Take(pt.t, boardTimeout, func(got tuple.Tuple, ok bool) {
			switch {
			case !ok:
				lg.fail("board: take of %v missed", pt.t)
			case !got.Equal(pt.t):
				lg.fail("board: take of %v returned %v", pt.t, got)
			default:
				c.completed(pt.due)
			}
			lg.wg.Done()
		})
	})
}

func (b *boardRun) onAlarm(t tuple.Tuple) {
	if len(t.Fields) != 3 {
		b.lg.fail("board: notified %v", t)
		return
	}
	b.mu.Lock()
	b.notified[t.Fields[1].Int]++
	b.mu.Unlock()
}

// boardLive runs the live board exchange and, when traced, its ledger.
// It is not a workload of its own: busplan's traced run drives it to
// measure the serving layers the paper's Fig. 7 traffic crosses.
func boardLive(e *env) (*result, error) {
	res := newResult()
	conns := maxConns()
	if err := checkLoadGen(conns, conns); err != nil {
		return nil, err
	}
	srv, setups, err := measureSetup(setupRepeats, e.spaceserver(), nil, false, nil, pingReady)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for _, s := range setups {
		res.add("setup_s", s)
	}
	rounds, traceOn := e.rounds()
	lg := newLoadGen(srv, rounds)
	if err := lg.connect(conns, false, e.traced); err != nil {
		return nil, err
	}
	b := &boardRun{seed: e.seed, interval: int64(time.Second) / boardWriteRate, lg: lg,
		alarms: map[int64]int{}, notified: map[int64]int{}}

	subscribed := make(chan bool, 1)
	lg.conns[0].client.Notify(alarmTemplate, b.onAlarm, func(ok bool) { subscribed <- ok })
	select {
	case ok := <-subscribed:
		if !ok {
			return nil, fmt.Errorf("board: notify subscription refused")
		}
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("board: notify subscription timed out")
	}

	b.start = lg.now() + int64(10*time.Millisecond)
	var gens sync.WaitGroup
	for _, c := range lg.conns {
		gens.Add(1)
		go func(c *lgConn) {
			defer gens.Done()
			b.generate(c, conns)
		}(c)
	}
	warm, round := e.timing(rounds)
	lg.drive(warm, round, traceOn)
	lg.stop.Store(true)
	gens.Wait()
	if lg.quiesce(10*time.Second) && !lg.broken.Load() {
		b.verify()
	}
	rss, _ := procPeakRSS(srv.pid())
	lg.close()
	srv.stop() // before the ledger, which needs the CPUs and memory
	lg.books(res)
	lg.roundSeries(res, measured(traceOn))
	res.add("server_peak_rss_mb", rss)
	if e.traced {
		e.clientLayers(res, lg, traceOn)
		ledger(e, res, boardTape(e.seed, ledgerOps))
	}
	return res, nil
}

// verify checks, after the load has stopped, that every acked alarm
// was notified exactly once and that every reading and alarm not taken
// has expired.
func (b *boardRun) verify() {
	lg := b.lg
	c := lg.conns[0].client
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		n := 0
		for _, k := range b.notified {
			n += k
		}
		b.mu.Unlock()
		if int64(n) >= b.alarmsAcked.Load() || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.mu.Lock()
	for seq, acked := range b.alarms {
		lg.attempted.Add(1)
		if got := b.notified[seq]; got != acked {
			lg.fail("board: alarm %d acked %d times, notified %d times", seq, acked, got)
		}
	}
	for seq := range b.notified {
		if _, ok := b.alarms[seq]; !ok {
			lg.fail("board: notified alarm %d that was never written", seq)
		}
	}
	last := b.lastDue
	b.mu.Unlock()

	// Leases run from each write's arrival; wait out the last one plus
	// the lease wheel's granularity.
	b.sleepUntil(last + int64(boardLease.Std()) + int64(500*time.Millisecond))
	for _, tmpl := range []tuple.Tuple{readingTemplate, alarmTemplate} {
		lg.attempted.Add(1)
		if n, ok := c.CountWait(tmpl); !ok || n != 0 {
			lg.fail("board: %d %s entries outlived their lease (ok=%v)", n, tmpl.Type, ok)
		}
	}
}

// boardTape is the board schedule in due-time order.
func boardTape(seed int64, n int) *tape {
	// The loop is open: at the offered rate and the measured latency
	// about one request is in flight, so the replays run one at a time.
	tp := &tape{binary: false, shards: 1, lease: boardLease, window: 1}
	tp.ops = append(tp.ops, tapeOp{op: xmlcodec.OpNotify, t: alarmTemplate})
	interval := int64(time.Second) / boardWriteRate
	var takes []pendingTake
	for w := int64(0); len(tp.ops) < n; w++ {
		due := w * interval
		for len(takes) > 0 && takes[0].due <= due {
			tp.ops = append(tp.ops, tapeOp{op: xmlcodec.OpTake, t: takes[0].t, timeout: boardTimeout})
			takes = takes[1:]
		}
		t, _, taken := boardOp(seed, w)
		tp.ops = append(tp.ops, tapeOp{op: xmlcodec.OpWrite, t: t, lease: boardLease})
		if taken {
			takes = append(takes, pendingTake{due: due + int64(boardTakeDelay), t: t})
		}
	}
	return tp
}
