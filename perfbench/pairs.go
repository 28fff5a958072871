package main

import (
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// pairs: every slot writes its own small concrete tuple and takes it
// straight back, so each take is an O(1) exact-match hit and the
// per-request layers (client, codec, transport, gateway dispatch) do
// nearly all the work.
const (
	pairsWindow  = 32 // requests in flight per connection
	pairsTimeout = 10 * sim.Second
)

func pairsTuple(seed int64, conn, slot int, n int64) tuple.Tuple {
	return tuple.New("pair", tuple.Int("seed", seed), tuple.Int("conn", int64(conn)),
		tuple.Int("slot", int64(slot)), tuple.Int("n", n))
}

type pairsSlot struct {
	slot
	n   int64
	t   tuple.Tuple
	wcb func(bool, string)
	tcb func(tuple.Tuple, bool)
}

func newPairsSlot(c *lgConn, seed int64, conn, i int) *pairsSlot {
	p := &pairsSlot{slot: slot{c: c}, t: pairsTuple(seed, conn, i, 0)}
	p.wcb, p.tcb = p.onWrite, p.onTake
	return p
}

func (p *pairsSlot) write() {
	p.n++
	p.t.Fields[3].Int = p.n
	p.begin()
	p.c.call(func() { p.c.client.Write(p.t, space.NoLease, p.wcb) })
}

func (p *pairsSlot) onWrite(ok bool, msg string) {
	if !ok {
		p.c.lg.fail("pairs: write %v failed: %s", p.t, msg)
	}
	if p.end(ok) {
		p.take()
	}
}

func (p *pairsSlot) take() {
	p.begin()
	p.c.call(func() { p.c.client.Take(p.t, pairsTimeout, p.tcb) })
}

func (p *pairsSlot) onTake(got tuple.Tuple, ok bool) {
	cont := p.end(ok)
	switch {
	case !ok:
		p.c.lg.fail("pairs: take of %v failed", p.t)
	case !got.Equal(p.t):
		p.c.lg.fail("pairs: take of %v returned %v", p.t, got)
	}
	if cont {
		p.write()
	}
}

func runPairs(e *env) (*result, error) {
	res := newResult()
	conns := maxConns()
	if err := checkLoadGen(conns, conns); err != nil {
		return nil, err
	}
	srv, setups, err := measureSetup(setupRepeats, e.spaceserver(), nil, true, nil, pingReady)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for _, s := range setups {
		res.add("setup_s", s)
	}
	rounds, traceOn := e.rounds()
	lg := newLoadGen(srv, rounds)
	if err := lg.connect(conns, true, e.traced); err != nil {
		return nil, err
	}
	for ci, c := range lg.conns {
		for i := 0; i < pairsWindow; i++ {
			p := newPairsSlot(c, e.seed, ci, i)
			lg.wg.Add(1)
			p.write()
		}
	}
	warm, round := e.timing(rounds)
	lg.drive(warm, round, traceOn)
	lg.quiesce(10 * time.Second)
	rss, _ := procPeakRSS(srv.pid())
	lg.close()
	srv.stop() // before the ledger, which needs the CPUs and memory
	lg.books(res)
	lg.roundSeries(res, measured(traceOn))
	res.add("server_peak_rss_mb", rss)
	if e.traced {
		e.clientLayers(res, lg, traceOn)
		ledger(e, res, pairsTape(e.seed, ledgerOps))
		estimatorLayers(e, res)
	}
	return res, nil
}

// pairsTape is the pairs op sequence as the ledger replays it.
func pairsTape(seed int64, n int) *tape {
	tp := &tape{binary: true, shards: 1, lease: boardLease, window: pairsWindow}
	for i := 0; len(tp.ops) < n; i++ {
		t := pairsTuple(seed, i%2, i%pairsWindow, int64(i))
		tp.ops = append(tp.ops,
			tapeOp{op: xmlcodec.OpWrite, t: t},
			tapeOp{op: xmlcodec.OpTake, t: t, timeout: pairsTimeout})
	}
	return tp
}
