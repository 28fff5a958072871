package main

import (
	"net"
	"sync"
	"testing"
	"time"

	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/wrapper"
)

// TestNotifySessionResumesOnNewConnection drives serve over real TCP:
// a durable notify session opened on one connection is resumed on a
// second one after the first client has gone, and every event —
// before, during and after the disconnect — arrives exactly once with
// no gap.
func TestNotifySessionResumesOnNewConnection(t *testing.T) {
	sp := space.New(space.NewRealRuntime())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- serve(ln, sp) }()
	defer func() {
		ln.Close()
		<-served
	}()
	dial := func(opts ...wrapper.ClientOption) *wrapper.Client {
		conn, err := transport.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return wrapper.NewClient(conn, opts...)
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var mu sync.Mutex
	seen := make(map[int64]int)
	record := func(tp tuple.Tuple) {
		mu.Lock()
		seen[tp.Fields[0].Int]++
		mu.Unlock()
	}
	ev := func(n int) tuple.Tuple { return tuple.New("ev", tuple.Int("n", int64(n))) }

	// The writer speaks XML, so the events also cross the XML codec on
	// the way in.
	writer := dial()
	defer writer.Close()
	write := func(from, to int) {
		for i := from; i <= to; i++ {
			if err := writer.WriteWait(ev(i), space.NoLease); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	const before, during, after = 20, 30, 10

	first := dial(wrapper.WithBinaryCodec())
	opened := make(chan uint64, 1)
	first.NotifySession(tuple.New("ev", tuple.AnyInt("n")), record, func(sess uint64, ok bool) {
		if !ok {
			t.Error("session open rejected")
		}
		opened <- sess
	})
	sess := <-opened
	write(1, before)
	waitFor("events before the disconnect", func() bool { return first.NotifyLastSeq(sess) == before })
	cursor := first.NotifyLastSeq(sess)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	write(before+1, before+during)

	second := dial(wrapper.WithBinaryCodec())
	defer second.Close()
	resumed := make(chan bool, 1)
	second.ResumeNotifySession(sess, cursor, record, func(ok bool) { resumed <- ok })
	if !<-resumed {
		t.Fatal("resume on a new connection rejected: the session is not in this connection's hub")
	}
	write(before+during+1, before+during+after)
	const total = before + during + after
	waitFor("every event after the resume", func() bool { return second.NotifyLastSeq(sess) == total })

	mu.Lock()
	defer mu.Unlock()
	for i := 1; i <= total; i++ {
		if seen[int64(i)] != 1 {
			t.Errorf("event %d delivered %d times, want once", i, seen[int64(i)])
		}
	}
	if len(seen) != total {
		t.Errorf("delivered %d distinct events, want %d", len(seen), total)
	}
	if g := second.NotifyGaps(sess); g != 0 {
		t.Errorf("gaps = %d, want 0", g)
	}
}
