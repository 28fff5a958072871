package wrapper

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// discardConn is a client-facing connection that swallows responses —
// the harness for measuring the decode→space→respond path alone.
type discardConn struct {
	onRecv func([]byte)
	sent   atomic.Int64
}

func (d *discardConn) Send(b []byte) error          { d.sent.Add(1); return nil }
func (d *discardConn) SetOnReceive(fn func([]byte)) { d.onRecv = fn }
func (d *discardConn) Close() error                 { return nil }

// captureConn records every response frame sent to the client side.
type captureConn struct {
	onRecv func([]byte)
	mu     sync.Mutex
	frames [][]byte
}

func (c *captureConn) Send(b []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), b...))
	c.mu.Unlock()
	return nil
}
func (c *captureConn) SetOnReceive(fn func([]byte)) { c.onRecv = fn }
func (c *captureConn) Close() error                 { return nil }

func (c *captureConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.frames
	c.frames = nil
	return out
}

func binTakeFrame(id uint64, c, seq int64) []byte {
	code, _ := xmlcodec.OpCodeOf(xmlcodec.OpTake)
	tmpl := tuple.New("net", tuple.Int("c", c), tuple.Int("seq", seq))
	return xmlcodec.AppendRequestBinary(nil, id, code, 0, 0, &tmpl)
}

func binWriteFrame(id uint64, c, seq int64) []byte {
	code, _ := xmlcodec.OpCodeOf(xmlcodec.OpWrite)
	t := tuple.New("net", tuple.Int("c", c), tuple.Int("seq", seq))
	return xmlcodec.AppendRequestBinary(nil, id, code, 0, 0, &t)
}

// BenchmarkBinServeTakeHit measures the steady-state direct binary
// path — decode from the wire frame, take on the space, respond into
// a pooled frame — with every take a hit. The check.sh alloc gate
// runs this.
func BenchmarkBinServeTakeHit(b *testing.B) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	st := NewServerStack(&discardConn{}, sp)
	g := st.Gateway
	frames := make([][]byte, b.N)
	for i := 0; i < b.N; i++ {
		if _, err := sp.Write(tuple.New("net",
			tuple.Int("c", int64(i%8)), tuple.Int("seq", int64(i/8))), space.NoLease); err != nil {
			b.Fatal(err)
		}
		frames[i] = binTakeFrame(uint64(i+1), int64(i%8), int64(i/8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.handle(frames[i])
	}
}

// BenchmarkBinServeWrite measures the direct binary write path (the
// space clones the entry, so this is the floor for writes).
func BenchmarkBinServeWrite(b *testing.B) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	st := NewServerStack(&discardConn{}, sp)
	g := st.Gateway
	frames := make([][]byte, b.N)
	for i := 0; i < b.N; i++ {
		frames[i] = binWriteFrame(uint64(i+1), int64(i%8), int64(i/8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.handle(frames[i])
	}
}

// TestMalformedBinaryFrameAnswersInBinary: a truncated or corrupt
// binary request must produce a binary error response (ID 0 when the
// header is gone) and leave the session serving.
func TestMalformedBinaryFrameAnswersInBinary(t *testing.T) {
	sp := space.New(space.NewRealRuntime())
	cc := &captureConn{}
	st := NewServerStack(cc, sp)
	st.Gateway.OnError = func(error) {}

	// A valid frame, truncated mid-entry: header parses, entry does not.
	full := binWriteFrame(7, 1, 1)
	cc.onRecv(full[:len(full)-3])
	// A frame that dies before the header ends.
	cc.onRecv(full[:4])
	// Corrupt entry bytes after a valid header.
	corrupt := append([]byte(nil), full...)
	for i := 27; i < len(corrupt); i++ {
		corrupt[i] = 0xFF
	}
	cc.onRecv(corrupt)

	frames := cc.take()
	if len(frames) != 3 {
		t.Fatalf("got %d responses, want 3", len(frames))
	}
	wantIDs := []uint64{7, 0, 7}
	for i, f := range frames {
		if !xmlcodec.IsBinaryResponse(f) {
			t.Fatalf("response %d not binary: % x", i, f[:min(8, len(f))])
		}
		resp, err := xmlcodec.UnmarshalResponse(f)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.OK {
			t.Fatalf("response %d unexpectedly ok", i)
		}
		if resp.ID != wantIDs[i] {
			t.Fatalf("response %d id = %d, want %d", i, resp.ID, wantIDs[i])
		}
		if !strings.Contains(resp.Err, "malformed") {
			t.Fatalf("response %d error %q lacks cause", i, resp.Err)
		}
	}

	// The session must still serve.
	cc.onRecv(binWriteFrame(8, 2, 2))
	frames = cc.take()
	if len(frames) != 1 {
		t.Fatalf("session dead after malformed frames: %d responses", len(frames))
	}
	if resp, err := xmlcodec.UnmarshalResponse(frames[0]); err != nil || !resp.OK || resp.ID != 8 {
		t.Fatalf("write after malformed frames: resp=%+v err=%v", resp, err)
	}
}

// TestBatchFrameRoundTrip drives a multi-op batch request through the
// gateway and checks the batched response carries every member's
// reply in order.
func TestBatchFrameRoundTrip(t *testing.T) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	cc := &captureConn{}
	NewServerStack(cc, sp)

	const k = 6
	batch := xmlcodec.AppendBatchHeader(nil, false, k)
	for i := 0; i < k; i++ {
		batch = xmlcodec.AppendBatchMember(batch, binWriteFrame(uint64(i+1), int64(i), 0))
	}
	cc.onRecv(batch)

	frames := cc.take()
	if len(frames) != 1 {
		t.Fatalf("got %d responses, want 1 batch frame", len(frames))
	}
	it, err := xmlcodec.NewBatchIter(frames[0])
	if err != nil {
		t.Fatalf("response not a batch: %v", err)
	}
	if it.Len() != k {
		t.Fatalf("batch response has %d members, want %d", it.Len(), k)
	}
	for i := 0; i < k; i++ {
		m, err := it.Next()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		resp, err := xmlcodec.UnmarshalResponse(m)
		if err != nil || !resp.OK || resp.ID != uint64(i+1) {
			t.Fatalf("member %d: resp=%+v err=%v", i, resp, err)
		}
	}
	if n := sp.Size(); n != k {
		t.Fatalf("space size %d after batch of %d writes", n, k)
	}
}

// TestBatchMalformedMemberFillsSlots: a batch whose members cannot be
// walked still answers with a full batch response frame.
func TestBatchMalformedMemberFillsSlots(t *testing.T) {
	sp := space.New(space.NewRealRuntime())
	cc := &captureConn{}
	st := NewServerStack(cc, sp)
	st.Gateway.OnError = func(error) {}

	batch := xmlcodec.AppendBatchHeader(nil, false, 3)
	batch = xmlcodec.AppendBatchMember(batch, binWriteFrame(1, 1, 1))
	batch = append(batch, 0xFF, 0xFF, 0xFF, 0xFF) // garbage member length prefix
	cc.onRecv(batch)

	frames := cc.take()
	if len(frames) != 1 {
		t.Fatalf("got %d responses, want 1 batch frame", len(frames))
	}
	it, err := xmlcodec.NewBatchIter(frames[0])
	if err != nil {
		t.Fatalf("response not a batch: %v", err)
	}
	if it.Len() != 3 {
		t.Fatalf("batch response has %d members, want 3", it.Len())
	}
	m0, _ := it.Next()
	if resp, err := xmlcodec.UnmarshalResponse(m0); err != nil || !resp.OK {
		t.Fatalf("member 0: resp=%+v err=%v", resp, err)
	}
	for i := 1; i < 3; i++ {
		m, err := it.Next()
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		resp, err := xmlcodec.UnmarshalResponse(m)
		if err != nil || resp.OK || !strings.Contains(resp.Err, "malformed batch member") {
			t.Fatalf("member %d: resp=%+v err=%v", i, resp, err)
		}
	}
}

// TestClientBatchingRoundTrip runs a real client with multi-op
// coalescing against the full stack.
func TestClientBatchingRoundTrip(t *testing.T) {
	sp := space.New(space.NewRealRuntime(), space.WithShards(4))
	a, b := transport.NewLoopback()
	NewServerStack(b, sp)
	cli := NewClient(a, WithBinaryCodec(), WithBatchOps(4))

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tup := tuple.New("bt", tuple.Int("i", int64(i)))
			if err := cli.WriteWait(tup, space.NoLease); err != nil {
				errs <- err.Error()
				return
			}
			if _, ok := cli.TakeWait(tup, sim.DurationOf(5e9)); !ok {
				errs <- "take missed"
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAffinityEquivalence checks that kind-affine shard routing is
// invisible on the serving stack: the same pipelined workload, served
// run-to-completion, lands a 4-shard space in the same state with the
// same stats as an unsharded one.
func TestAffinityEquivalence(t *testing.T) {
	type outcome struct {
		size   int
		takes  uint64
		writes uint64
		misses uint64
	}
	run := func(shards int) outcome {
		sp := space.New(space.NewRealRuntime(), space.WithShards(shards))
		a, b := transport.NewLoopback()
		NewServerStack(b, sp)
		cli := NewClient(a, WithBinaryCodec())

		const goroutines = 8
		const pairs = 40
		var wg sync.WaitGroup
		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				for j := 0; j < pairs; j++ {
					tup := tuple.New("eq",
						tuple.Int("g", int64(gi)), tuple.Int("j", int64(j)))
					if err := cli.WriteWait(tup, space.NoLease); err != nil {
						panic(err)
					}
					if _, ok := cli.TakeWait(tup, sim.DurationOf(5e9)); !ok {
						panic("equivalence take missed")
					}
				}
			}(gi)
		}
		wg.Wait()
		_ = cli.Close()
		s := sp.Stats()
		return outcome{size: sp.Size(), takes: s.Takes, writes: s.Writes, misses: s.Misses}
	}

	if got, want := run(4), run(1); got != want {
		t.Fatalf("4 shards: outcome %+v, want %+v (1 shard)", got, want)
	}
}

// waitFor polls until cond returns true or the test deadline nears.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestBinDedupGrowsKeepingRetention: the completed-response table
// starts small and grows, and still answers every one of the last cap
// sequential ids from its cache, evicting only older ones.
func TestBinDedupGrowsKeepingRetention(t *testing.T) {
	const cap = 64
	d := newBinDedup(cap)
	if len(d.slots) != bdInitSlots {
		t.Fatalf("table starts at %d slots, want %d", len(d.slots), bdInitSlots)
	}
	resp := func(id uint64) []byte {
		return append(transport.GetBuf(8), byte(id), byte(id>>8))
	}
	check := func(id uint64, cached bool) {
		t.Helper()
		verdict, got := d.begin(id, nil)
		if !cached {
			if verdict != bdNew {
				t.Fatalf("id %d: verdict %d, want a fresh id", id, verdict)
			}
			d.complete(id, resp(id))
			return
		}
		if verdict != bdDup || string(got) != string(resp(id)) {
			t.Fatalf("id %d: verdict %d reply %v, want the cached reply", id, verdict, got)
		}
		transport.PutBuf(got)
	}
	for id := uint64(1); id <= cap; id++ {
		check(id, false)
	}
	if len(d.slots) != cap {
		t.Fatalf("table grew to %d slots, want %d", len(d.slots), cap)
	}
	for id := uint64(1); id <= cap; id++ {
		check(id, true)
	}
	for id := uint64(cap + 1); id <= cap+cap/2; id++ {
		check(id, false)
	}
	for id := uint64(cap/2 + 1); id <= cap+cap/2; id++ {
		check(id, true)
	}
	check(cap/2, false) // evicted by id cap+cap/2

	// A first id past cap grows the table to cap at once.
	d = newBinDedup(cap)
	check(1000, false)
	if len(d.slots) != cap {
		t.Fatalf("table holds %d slots after id 1000, want %d", len(d.slots), cap)
	}
	check(1000, true)
}
