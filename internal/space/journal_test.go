package space

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

func TestJournalReplayRestoresLiveEntries(t *testing.T) {
	var buf bytes.Buffer
	_, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	s.Write(job("a", 1), NoLease)
	s.Write(job("b", 2), NoLease)
	s.Write(job("c", 3), NoLease)
	if _, ok := s.TakeIfExists(anyJob()); !ok { // consumes "a"
		t.Fatal("take failed")
	}
	if err := s.journal.Flush(); err != nil {
		t.Fatal(err)
	}

	// A fresh space rebuilt from the journal holds b and c, in order.
	_, s2 := simSpace()
	n, err := s2.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s2.Size() != 2 {
		t.Fatalf("restored %d entries, size %d", n, s2.Size())
	}
	got, ok := s2.TakeIfExists(anyJob())
	if !ok || got.Fields[0].Str != "b" {
		t.Fatalf("order lost: %v", got)
	}
	got, ok = s2.TakeIfExists(anyJob())
	if !ok || got.Fields[0].Str != "c" {
		t.Fatalf("order lost: %v", got)
	}
}

func TestJournalRecordsExpiryAndCancel(t *testing.T) {
	var buf bytes.Buffer
	k, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	s.Write(job("expiring", 1), 5*sim.Second)
	l, _ := s.Write(job("cancelled", 2), NoLease)
	s.Write(job("survivor", 3), NoLease)
	k.RunUntil(sim.Time(10 * sim.Second)) // the lease lapses
	l.Cancel()
	s.journal.Flush()

	_, s2 := simSpace()
	n, err := s2.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d, want 1", n)
	}
	got, ok := s2.ReadIfExists(anyJob())
	if !ok || got.Fields[0].Str != "survivor" {
		t.Fatalf("wrong survivor: %v", got)
	}
}

func TestJournalLeaseRearmedOnReplay(t *testing.T) {
	var buf bytes.Buffer
	_, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	s.Write(job("leased", 1), 30*sim.Second)
	s.journal.Flush()

	k2 := sim.NewKernel(2)
	s2 := New(SimRuntime{K: k2})
	if _, err := s2.Replay(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.Size() != 1 {
		t.Fatal("entry not restored")
	}
	k2.RunUntil(sim.Time(31 * sim.Second))
	if s2.Size() != 0 {
		t.Fatal("restored lease did not re-arm")
	}
}

func TestJournalTornTailIgnored(t *testing.T) {
	var buf bytes.Buffer
	_, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	s.Write(job("whole", 1), NoLease)
	s.Write(job("torn", 2), NoLease)
	s.journal.Flush()

	// Chop the stream mid-record: the prefix must still replay.
	data := buf.Bytes()
	_, s2 := simSpace()
	n, err := s2.Replay(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d from torn journal, want 1", n)
	}
}

func TestJournalCorruptOpcode(t *testing.T) {
	_, s := simSpace()
	if _, err := s.Replay(bytes.NewReader([]byte{0x7F, 0, 0})); err == nil {
		t.Fatal("corrupt opcode accepted")
	}
}

func TestJournalFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "space.journal")

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, s := simSpace()
	s.SetJournal(j)
	s.Write(job("persisted", 42), NoLease)
	s.Write(job("taken", 43), NoLease)
	s.TakeIfExists(tuple.New("job", tuple.String("op", "taken"), tuple.AnyInt("n")))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": rebuild from the file.
	_, s2 := simSpace()
	n, err := s2.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || s2.Size() != 1 {
		t.Fatalf("restored %d entries", n)
	}
	got, _ := s2.ReadIfExists(anyJob())
	if got.Fields[1].Int != 42 {
		t.Fatalf("restored %v", got)
	}

	// Appending after replay continues the history.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	s2.SetJournal(j2)
	s2.Write(job("later", 44), NoLease)
	j2.Close()
	_, s3 := simSpace()
	if n, _ := s3.ReplayFile(path); n != 2 {
		t.Fatalf("after append, restored %d, want 2", n)
	}
}

func TestReplayFileMissingIsFirstBoot(t *testing.T) {
	_, s := simSpace()
	n, err := s.ReplayFile(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || n != 0 {
		t.Fatalf("missing journal: n=%d err=%v", n, err)
	}
}

func TestJournalTxnInteraction(t *testing.T) {
	var buf bytes.Buffer
	_, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	s.Write(job("kept", 1), NoLease)
	s.Write(job("gone", 2), NoLease)

	// A committed take-under-txn removes for good; an aborted one
	// restores.
	tx := s.NewTxn(0)
	tx.TakeIfExists(tuple.New("job", tuple.String("op", "gone"), tuple.AnyInt("n")))
	tx.Commit()
	tx2 := s.NewTxn(0)
	tx2.TakeIfExists(tuple.New("job", tuple.String("op", "kept"), tuple.AnyInt("n")))
	tx2.Abort()
	s.journal.Flush()

	_, s2 := simSpace()
	n, err := s2.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d, want 1", n)
	}
	got, _ := s2.ReadIfExists(anyJob())
	if got.Fields[0].Str != "kept" {
		t.Fatalf("restored %v", got)
	}
}

func TestJournalSurvivesBinaryPayload(t *testing.T) {
	var buf bytes.Buffer
	_, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	s.Write(tuple.New("blob",
		tuple.Bytes("data", payload),
		tuple.Bool("flag", true),
		tuple.Float("f", 3.14),
	), NoLease)
	s.journal.Flush()
	_, s2 := simSpace()
	if _, err := s2.Replay(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.ReadIfExists(tuple.New("blob",
		tuple.AnyBytes("data"), tuple.AnyBool("flag"), tuple.AnyFloat("f")))
	if !ok || len(got.Fields[0].Bytes) != 300 || got.Fields[0].Bytes[299] != byte(299%256) {
		t.Fatalf("blob mangled: %v %v", got, ok)
	}
}

func TestJournalErrRecordsFailure(t *testing.T) {
	j := NewJournal(failingWriter{})
	_, s := simSpace()
	s.SetJournal(j)
	s.Write(job("x", 1), NoLease)
	j.Flush()
	if j.Err() == nil {
		t.Fatal("write failure not recorded")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, os.ErrClosed }

func TestReplayCountExcludesConsumedEntries(t *testing.T) {
	// Replay returns the live entries restored to the store; a record
	// handed straight to a parked waiter is delivered but not counted.
	var buf bytes.Buffer
	_, s := simSpace()
	j := NewJournal(&buf)
	s.SetJournal(j)
	s.Write(job("served", 1), NoLease)
	s.Write(job("kept", 2), NoLease)
	j.Flush()
	s.Crash()

	calls := 0
	s.TakeErr(anyJob(), sim.Forever, func(tuple.Tuple, error) { calls++ })
	n, err := s.Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("parked take fired %d times, want 1", calls)
	}
	if n != 1 || s.Size() != 1 {
		t.Fatalf("restored = %d, size = %d; the consumed record must not count", n, s.Size())
	}
	// The stat, by contrast, counts every surviving record replayed.
	if got := s.Stats().Restored; got != 2 {
		t.Fatalf("Stats.Restored = %d, want 2", got)
	}
}

// legacyWriteRecord is the write record as logWrite used to emit it:
// a separately built header followed by EncodeTupleBinary's body.
func legacyWriteRecord(id uint64, t tuple.Tuple, lease sim.Duration) []byte {
	body := xmlcodec.EncodeTupleBinary(t)
	rec := []byte{journalWrite}
	rec = binary.BigEndian.AppendUint64(rec, uint64(lease))
	rec = binary.BigEndian.AppendUint64(rec, id)
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(body)))
	return append(rec, body...)
}

// TestJournalRecordBytesUnchanged pins the on-disk format: a fixed op
// sequence over every field kind journals exactly the bytes of the
// header-then-EncodeTupleBinary encoding, so existing journals replay
// unchanged.
func TestJournalRecordBytesUnchanged(t *testing.T) {
	var buf bytes.Buffer
	_, s := simSpace()
	s.SetJournal(NewJournal(&buf))
	big := make([]byte, 5000) // longer than the record scratch's first growth
	for i := range big {
		big[i] = byte(i * 7)
	}
	tuples := []tuple.Tuple{
		tuple.New("rec", tuple.Int("i", -42), tuple.Float("f", 2.5),
			tuple.String("s", "héllo"), tuple.Bool("b", true), tuple.Bytes("raw", []byte{0, 1, 2})),
		tuple.New("rec", tuple.Int("i", 1<<40), tuple.Float("f", -0.125),
			tuple.String("s", ""), tuple.Bool("b", false), tuple.Bytes("raw", big)),
		tuple.New("small", tuple.Int("n", 7)),
	}
	leases := []sim.Duration{NoLease, sim.DurationOf(5 * time.Second), NoLease}
	var want []byte
	for i, tp := range tuples {
		if _, err := s.Write(tp, leases[i]); err != nil {
			t.Fatal(err)
		}
		want = append(want, legacyWriteRecord(uint64(i+1), tp, leases[i])...)
	}
	if _, ok := s.TakeIfExists(tuples[0]); !ok {
		t.Fatal("take missed")
	}
	want = append(want, journalRemove, 0, 0, 0, 0, 0, 0, 0, 1)
	if _, err := s.Write(tuples[2], NoLease); err != nil {
		t.Fatal(err)
	}
	want = append(want, legacyWriteRecord(4, tuples[2], NoLease)...)
	if err := s.journal.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal bytes differ from the legacy encoding:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

// TestJournaledPutAllocs checks that journaling adds no allocation to
// a steady-state Put: the record is built in the journal's reused
// scratch. Each iteration takes the entry back so the Put recycles it.
func TestJournaledPutAllocs(t *testing.T) {
	allocs := func(journaled bool) float64 {
		s := New(NewRealRuntime())
		if journaled {
			s.SetJournal(NewJournal(io.Discard))
		}
		tp := tuple.New("put", tuple.Int("n", 1), tuple.Bytes("payload", make([]byte, 256)))
		return testing.AllocsPerRun(200, func() {
			if err := s.Put(tp, NoLease); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.TakeIfExists(tp); !ok {
				t.Fatal("take missed")
			}
		})
	}
	bare, journaled := allocs(false), allocs(true)
	if journaled > bare {
		t.Fatalf("journaled Put allocates %.1f/op, unjournaled %.1f/op", journaled, bare)
	}
}
