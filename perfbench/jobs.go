package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
	"tpspace/internal/xmlcodec"
)

// jobs: a journaled, sharded spaceserver holding a large resident set
// serves a mix of typed-wildcard reads on that set, task writes with
// payloads from 64 B to 4 KiB, and blocking typed-wildcard takes of
// the tasks, some of which park until another slot writes. The storage
// path (index, kind routing, waiter index, journal) does most of the
// work, and reads run beside writes and takes.
const (
	jobsResident  = 100000
	jobsKinds     = 64
	jobsBodyLen   = 230 // a resident record is about 256 B in the journal
	jobsShards    = 8
	jobsWindow    = 32
	jobsTimeout   = 30 * sim.Second
	jobsSetups    = 3 // each set-up replays the 30 MB journal
	taskMinLen    = 64
	taskMaxLen    = 4096
	jobsCycleLen  = 10
	jobsCycleRead = 6
	jobsCycleWrit = 2 // and as many takes
)

const (
	opRead  = 'r'
	opWrite = 'w'
	opTake  = 't'
)

var kindNames = func() []string {
	s := make([]string, jobsKinds)
	for i := range s {
		s[i] = fmt.Sprintf("res%02d", i)
	}
	return s
}()

// mix is SplitMix64's finaliser, the source of every derived value.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fillBody writes the payload derived from (seed, salt, id) into dst.
func fillBody(dst []byte, seed int64, salt, id uint64) {
	x := mix(uint64(seed) ^ mix(salt^mix(id)))
	var w [8]byte
	for i := 0; i < len(dst); i += 8 {
		x = mix(x)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:], w[:])
	}
}

const (
	saltResident = 1
	saltTask     = 2
	saltTaskLen  = 3
)

func taskLen(seed int64, id uint64) int {
	return taskMinLen + int(mix(uint64(seed)^mix(saltTaskLen^mix(id)))%(taskMaxLen-taskMinLen+1))
}

// putResidents writes the resident set, in id order, into sp.
func putResidents(sp *space.Space, seed int64) error {
	body := make([]byte, jobsBodyLen)
	t := tuple.New("", tuple.Int("id", 0), tuple.Bytes("body", nil))
	for id := 0; id < jobsResident; id++ {
		fillBody(body, seed, saltResident, uint64(id))
		t.Type = kindNames[id%jobsKinds]
		t.Fields[0].Int = int64(id)
		t.Fields[1].Bytes = body
		if err := sp.Put(t, space.NoLease); err != nil {
			return err
		}
	}
	return nil
}

func residentCount(kind int) int64 {
	n := int64(jobsResident / jobsKinds)
	if kind < jobsResident%jobsKinds {
		n++
	}
	return n
}

func kindTemplate(kind int) tuple.Tuple {
	return tuple.New(kindNames[kind], tuple.AnyInt("id"), tuple.AnyBytes("body"))
}

var taskTemplate = tuple.New("task", tuple.AnyInt("id"), tuple.AnyBytes("body"))

// jobsGen generates one slot's op stream. Each cycle holds six reads,
// two writes and two takes in a seeded order. An even slot never has
// taken more tasks than it has written; an odd slot may run one take
// ahead, so its takes can find the space empty and park. With pool
// the tasks in the space, pool - parked takes = writes - takes summed
// over the slots >= -(odd slots), so with nothing in the space at
// most the odd slots are parked and the even ones, still running,
// write again: no take waits for ever.
type jobsGen struct {
	seed   int64
	slot   uint64
	minBal int
	rng    uint64
	cycle  [jobsCycleLen]byte
	pos    int
	n      uint64
	read   tuple.Tuple
	write  tuple.Tuple
	body   []byte
}

func newJobsGen(seed int64, slot int) *jobsGen {
	g := &jobsGen{seed: seed, slot: uint64(slot), minBal: -(slot % 2),
		rng:   mix(uint64(seed) ^ mix(uint64(slot)+0x51ab)),
		pos:   jobsCycleLen,
		read:  tuple.New("", tuple.AnyInt("id"), tuple.AnyBytes("body")),
		write: tuple.New("task", tuple.Int("id", 0), tuple.Bytes("body", nil)),
		body:  make([]byte, taskMaxLen)}
	return g
}

func (g *jobsGen) rand() uint64 { g.rng = mix(g.rng); return g.rng }

func (g *jobsGen) newCycle() {
	c := g.cycle[:]
	for i := range c {
		switch {
		case i < jobsCycleRead:
			c[i] = opRead
		case i < jobsCycleRead+jobsCycleWrit:
			c[i] = opWrite
		default:
			c[i] = opTake
		}
	}
	for i := len(c) - 1; i > 0; i-- {
		j := int(g.rand() % uint64(i+1))
		c[i], c[j] = c[j], c[i]
	}
	// Cycles are balanced, so each starts at balance 0. Swap each take
	// that would overdraw the slot with the next write.
	bal := 0
	for i := 0; i < len(c); i++ {
		switch c[i] {
		case opWrite:
			bal++
		case opTake:
			if bal == g.minBal {
				for j := i + 1; j < len(c); j++ {
					if c[j] == opWrite {
						c[i], c[j] = c[j], c[i]
						break
					}
				}
				bal++
			} else {
				bal--
			}
		}
	}
	g.pos = 0
}

// next returns the slot's next op. The tuple it carries is scratch
// owned by the generator, valid until the following call.
func (g *jobsGen) next() (kind byte, t tuple.Tuple, id uint64) {
	if g.pos == jobsCycleLen {
		g.newCycle()
	}
	kind = g.cycle[g.pos]
	g.pos++
	switch kind {
	case opRead:
		// A typed-wildcard template matches the oldest resident of its
		// kind: residents were written in id order and are never taken,
		// so that is the resident whose id is the kind's number.
		id = g.rand() % jobsKinds
		g.read.Type = kindNames[id]
		return kind, g.read, id
	case opWrite:
		t, id = g.task()
		return kind, t, id
	}
	return kind, taskTemplate, 0
}

// task returns the slot's next task, in scratch like next.
func (g *jobsGen) task() (tuple.Tuple, uint64) {
	g.n++
	id := g.slot<<32 | g.n
	b := g.body[:taskLen(g.seed, id)]
	fillBody(b, g.seed, saltTask, id)
	g.write.Fields[0].Int = int64(id)
	g.write.Fields[1].Bytes = b
	return g.write, id
}

// jobsRun is the shared state of one live jobs run.
type jobsRun struct {
	seed                 int64
	written, taken       atomic.Int64
	writtenSum, takenSum atomic.Uint64
}

type jobsSlot struct {
	slot
	j    *jobsRun
	g    *jobsGen
	id   uint64
	want []byte
	rcb  func(tuple.Tuple, bool)
	wcb  func(bool, string)
	tcb  func(tuple.Tuple, bool)
}

func (s *jobsSlot) issue() {
	kind, t, id := s.g.next()
	s.id = id
	s.begin()
	cl := s.c.client
	s.c.call(func() {
		switch kind {
		case opRead:
			cl.ReadIfExists(t, s.rcb)
		case opWrite:
			cl.Write(t, space.NoLease, s.wcb)
		default:
			cl.Take(t, jobsTimeout, s.tcb)
		}
	})
}

func (s *jobsSlot) onRead(got tuple.Tuple, ok bool) {
	cont := s.end(ok)
	if !ok {
		s.c.lg.fail("jobs: read of resident %d missed", s.id)
	} else if err := s.checkResident(got); err != nil {
		s.c.lg.fail("jobs: %v", err)
	}
	if cont {
		s.issue()
	}
}

func (s *jobsSlot) checkResident(got tuple.Tuple) error {
	id := s.id
	b := s.want[:jobsBodyLen]
	fillBody(b, s.j.seed, saltResident, id)
	if got.Type != kindNames[id%jobsKinds] || len(got.Fields) != 2 || got.Fields[0].Int != int64(id) ||
		!bytes.Equal(got.Fields[1].Bytes, b) {
		return fmt.Errorf("read of resident %d returned %s", id, got.Type)
	}
	return nil
}

func (s *jobsSlot) onWrite(ok bool, msg string) {
	cont := s.end(ok)
	if !ok {
		s.c.lg.fail("jobs: write of task %d failed: %s", s.id, msg)
	} else {
		s.j.written.Add(1)
		s.j.writtenSum.Add(mix(s.id))
	}
	if cont {
		s.issue()
	}
}

func (s *jobsSlot) onTake(got tuple.Tuple, ok bool) {
	cont := s.end(ok)
	if !ok {
		s.c.lg.fail("jobs: take of a task failed")
	} else if err := s.j.checkTask(got, s.want); err != nil {
		s.c.lg.fail("jobs: %v", err)
	}
	if cont {
		s.issue()
	}
}

// checkTask verifies a taken task's payload against its id and books
// it as taken.
func (j *jobsRun) checkTask(got tuple.Tuple, scratch []byte) error {
	if got.Type != "task" || len(got.Fields) != 2 {
		return fmt.Errorf("take returned %s with %d fields", got.Type, len(got.Fields))
	}
	id := uint64(got.Fields[0].Int)
	b := scratch[:taskLen(j.seed, id)]
	fillBody(b, j.seed, saltTask, id)
	if !bytes.Equal(got.Fields[1].Bytes, b) {
		return fmt.Errorf("task %d payload differs from the one written", id)
	}
	j.taken.Add(1)
	j.takenSum.Add(mix(id))
	return nil
}

// seedJournal writes the resident set through a journaled space, as a
// spaceserver that had served those writes would have left it.
func seedJournal(path string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sp := space.New(space.NewRealRuntime())
	j := space.NewJournal(f)
	sp.SetJournal(j)
	if err := putResidents(sp, seed); err != nil {
		j.Close()
		return err
	}
	return j.Close()
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// residentIntact counts every kind of the resident set.
func residentIntact(c *wrapper.Client) error {
	type reply struct {
		kind int
		n    int64
		ok   bool
	}
	ch := make(chan reply, jobsKinds)
	for k := 0; k < jobsKinds; k++ {
		k := k
		c.Count(kindTemplate(k), func(n int64, ok bool) { ch <- reply{k, n, ok} })
	}
	timeout := time.After(60 * time.Second)
	for i := 0; i < jobsKinds; i++ {
		select {
		case r := <-ch:
			if !r.ok || r.n != residentCount(r.kind) {
				return fmt.Errorf("resident kind %s holds %d entries, want %d (ok=%v)",
					kindNames[r.kind], r.n, residentCount(r.kind), r.ok)
			}
		case <-timeout:
			return fmt.Errorf("resident counts timed out")
		}
	}
	return nil
}

func runJobs(e *env) (*result, error) {
	res := newResult()
	conns := maxConns()
	if err := checkLoadGen(conns, conns); err != nil {
		return nil, err
	}
	seeded := filepath.Join(e.work, "seed.journal")
	if err := seedJournal(seeded, e.seed); err != nil {
		return nil, fmt.Errorf("seed journal: %w", err)
	}
	live := filepath.Join(e.work, "live.journal")
	flags := []string{"-shards", fmt.Sprint(jobsShards), "-journal", live}
	srv, setups, err := measureSetup(jobsSetups, e.spaceserver(), flags, true,
		func() error { return copyFile(live, seeded) }, residentIntact)
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
	j := &jobsRun{seed: e.seed}
	for ci, c := range lg.conns {
		for i := 0; i < jobsWindow; i++ {
			s := &jobsSlot{slot: slot{c: c}, j: j, g: newJobsGen(e.seed, ci*jobsWindow+i),
				want: make([]byte, taskMaxLen)}
			s.rcb, s.wcb, s.tcb = s.onRead, s.onWrite, s.onTake
			lg.wg.Add(1)
			s.issue()
		}
	}
	warm, round := e.timing(rounds)
	lg.drive(warm, round, traceOn)
	if j.release(lg) && lg.quiesce(10*time.Second) && !lg.broken.Load() {
		j.drain(lg)
	}
	rss, _ := procPeakRSS(srv.pid())
	lg.close()
	srv.stop() // before the ledger, which needs the CPUs and memory
	lg.books(res)
	lg.roundSeries(res, measured(traceOn))
	res.add("server_peak_rss_mb", rss)
	if e.traced {
		e.clientLayers(res, lg, traceOn)
		ledger(e, res, jobsTape(e.seed, ledgerOps, seeded))
		estimatorLayers(e, res)
	}
	return res, nil
}

// fillerSlot numbers the task ids release writes, past every slot's.
const fillerSlot = 1 << 20

// release stops the slots. A slot that ran a take ahead of its writes
// may sit parked on an empty space when the load stops; each filler
// task written here wakes one, and is booked like any other task.
func (j *jobsRun) release(lg *loadGen) bool {
	lg.stop.Store(true)
	c := lg.conns[0].client
	g := newJobsGen(j.seed, fillerSlot)
	deadline := time.Now().Add(10 * time.Second)
	for !lg.idle(100 * time.Millisecond) {
		if lg.broken.Load() || time.Now().After(deadline) {
			return false
		}
		t, id := g.task()
		lg.attempted.Add(1)
		if err := c.WriteWait(t, space.NoLease); err != nil {
			lg.fail("jobs: filler task %d: %v", id, err)
			return false
		}
		j.written.Add(1)
		j.writtenSum.Add(mix(id))
	}
	return true
}

// drain takes the tasks left over, then checks that every task written
// was taken exactly once and that the resident set is intact.
func (j *jobsRun) drain(lg *loadGen) {
	c := lg.conns[0].client
	scratch := make([]byte, taskMaxLen)
	for {
		got, ok := c.TakeWait(taskTemplate, 0)
		if !ok {
			break
		}
		lg.attempted.Add(1)
		if err := j.checkTask(got, scratch); err != nil {
			lg.fail("jobs drain: %v", err)
		}
	}
	lg.attempted.Add(1)
	if n, ok := c.CountWait(taskTemplate); !ok || n != 0 {
		lg.fail("jobs: %d tasks left after draining (ok=%v)", n, ok)
	}
	if w, t := j.written.Load(), j.taken.Load(); w != t || j.writtenSum.Load() != j.takenSum.Load() {
		lg.fail("jobs: %d tasks written, %d taken (or a task was taken twice)", w, t)
	}
	lg.attempted.Add(1)
	if err := residentIntact(c); err != nil {
		lg.fail("jobs at end: %v", err)
	}
}

// jobsTape interleaves the slots' op streams round-robin.
func jobsTape(seed int64, n int, journal string) *tape {
	tp := &tape{binary: true, shards: jobsShards, journal: journal, lease: boardLease, window: jobsWindow,
		preload: func(sp *space.Space) error { return putResidents(sp, seed) }}
	var gens []*jobsGen
	for s := 0; s < 2*jobsWindow; s++ {
		gens = append(gens, newJobsGen(seed, s))
	}
	for len(tp.ops) < n {
		for _, g := range gens {
			kind, t, _ := g.next()
			op := tapeOp{t: t.Clone()}
			switch kind {
			case opRead:
				op.op = xmlcodec.OpReadIfExists
			case opWrite:
				op.op = xmlcodec.OpWrite
			default:
				op.op, op.timeout = xmlcodec.OpTake, jobsTimeout
			}
			tp.ops = append(tp.ops, op)
		}
	}
	return tp
}
