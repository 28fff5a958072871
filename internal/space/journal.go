package space

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// The paper describes the tuplespace as "asynchronous (and anonymous)
// associatively addressed messaging, where the messages are kept in a
// persistent message store". This file provides that persistence: a
// write-ahead journal of state-changing operations (writes, takes,
// expiries, cancellations) that can rebuild the store after a
// restart.
//
// Record format: 1-byte opcode, then for writes a lease in
// nanoseconds (int64, big-endian), an entry id (uint64), and the
// tuple in the compact binary encoding, length-prefixed; for removals
// just the entry id. The journal is an append-only stream, safe to
// replay prefix-wise after a crash (a torn final record is ignored).

// Journal opcodes.
const (
	journalWrite  = 0x01
	journalRemove = 0x02
)

// ErrJournalCorrupt reports a malformed (non-torn) journal record.
var ErrJournalCorrupt = errors.New("space: journal corrupt")

// Journal persists space mutations to a writer.
type Journal struct {
	mu  sync.Mutex
	w   *bufio.Writer
	f   *os.File // non-nil when backed by a file (for Sync)
	err error
	rec []byte // record scratch, reused under mu
}

// NewJournal wraps a writer (commonly an os.File opened with
// O_APPEND).
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: bufio.NewWriter(w)}
	if f, ok := w.(*os.File); ok {
		j.f = f
	}
	return j
}

// OpenJournal opens (creating if needed) a journal file for append.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return NewJournal(f), nil
}

// Err returns the first write failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Flush drains buffered records (and fsyncs when file-backed).
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.err = err
			return err
		}
	}
	return nil
}

// Close flushes and closes the underlying file, when file-backed.
func (j *Journal) Close() error {
	if err := j.Flush(); err != nil {
		return err
	}
	if j.f != nil {
		return j.f.Close()
	}
	return nil
}

func (j *Journal) logWrite(id uint64, t tuple.Tuple, lease sim.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	// Header and body go into the reused scratch, the body length
	// patched in once the tuple is encoded: one buffered write, and no
	// allocation once the scratch has grown to the largest record.
	const hdrLen = 1 + 8 + 8 + 4
	rec := append(j.rec[:0], journalWrite)
	rec = binary.BigEndian.AppendUint64(rec, uint64(lease))
	rec = binary.BigEndian.AppendUint64(rec, id)
	rec = append(rec, 0, 0, 0, 0)
	rec = xmlcodec.AppendTupleBinary(rec, &t)
	binary.BigEndian.PutUint32(rec[hdrLen-4:], uint32(len(rec)-hdrLen))
	j.rec = rec
	if _, err := j.w.Write(rec); err != nil {
		j.err = err
	}
}

// logRemoveBatch appends one removal record per id under a single
// lock acquisition — the expiry sweep's amortization of journal cost.
// The stream bytes are identical to len(ids) logRemove calls, so
// Replay needs no awareness of batching.
func (j *Journal) logRemoveBatch(ids []uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	rec := append(j.rec[:0], journalRemove, 0, 0, 0, 0, 0, 0, 0, 0)
	j.rec = rec
	for _, id := range ids {
		binary.BigEndian.PutUint64(rec[1:], id)
		if _, err := j.w.Write(rec); err != nil {
			j.err = err
			return
		}
	}
}

func (j *Journal) logRemove(id uint64) { j.logRemoveBatch([]uint64{id}) }

// SetJournal attaches a journal: every subsequent write, take, lease
// expiry and cancellation is recorded. Attach before the first write;
// existing entries are not back-filled (replay first, then attach).
func (s *Space) SetJournal(j *Journal) {
	s.lockAll()
	s.journal = j
	s.unlockAll()
}

// Replay rebuilds a space's store from a journal stream: surviving
// writes are re-inserted in their original total order, under their
// original entry ids, with their original leases re-armed from now.
// It returns the number of live entries restored to the store; a
// record handed straight to a parked waiter is delivered (and its
// consumption journalled) but not counted, since it never enters the
// live set. Stats.Restored, by contrast, counts every surviving
// record replayed, consumed or stored.
//
// Preserving ids makes replay idempotent across repeated crashes: a
// take (or expiry) of a restored entry logs a removal under the id its
// write record already carries, so a second replay of the same journal
// does not resurrect it. Parked waiters are honoured — an operation
// re-issued before the restart completes is satisfied by the restored
// entry (and the consumption journalled); otherwise replay must run
// before the space is used.
func (s *Space) Replay(r io.Reader) (int, error) {
	type pending struct {
		t     tuple.Tuple
		lease sim.Duration
	}
	live := map[uint64]pending{}

	br := bufio.NewReader(r)
	for {
		op, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		switch op {
		case journalWrite:
			var hdr [20]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				if err == io.ErrUnexpectedEOF || err == io.EOF {
					goto done // torn tail record: ignore
				}
				return 0, err
			}
			lease := sim.Duration(binary.BigEndian.Uint64(hdr[0:]))
			id := binary.BigEndian.Uint64(hdr[8:])
			n := binary.BigEndian.Uint32(hdr[16:])
			body := make([]byte, n)
			if _, err := io.ReadFull(br, body); err != nil {
				if err == io.ErrUnexpectedEOF || err == io.EOF {
					goto done
				}
				return 0, err
			}
			t, err := xmlcodec.DecodeTupleBinary(body)
			if err != nil {
				return 0, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
			}
			// An id may recur (a txn abort re-logs the restored
			// entry); the latest record wins.
			live[id] = pending{t: t, lease: lease}
		case journalRemove:
			var rec [8]byte
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				if err == io.ErrUnexpectedEOF || err == io.EOF {
					goto done
				}
				return 0, err
			}
			delete(live, binary.BigEndian.Uint64(rec[:]))
		default:
			return 0, fmt.Errorf("%w: opcode %#x", ErrJournalCorrupt, op)
		}
	}
done:
	// Restore the live set in ascending id order: the store's indexed
	// views are append-at-tail id-ordered lists, so a sorted restore
	// rebuilds every view with O(1) links per entry (a journal-order
	// restore of shuffled ids would degrade each insert to a list
	// walk). Ascending id order is also exactly the live total order —
	// the paper's "timestamp determines a total order relation" — so
	// FIFO takes observe the same sequence as before the crash.
	ids := make([]uint64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	restored := 0
	for _, id := range ids {
		p := live[id]
		for {
			cur := s.seq.Load()
			if cur >= id || s.seq.CompareAndSwap(cur, id) {
				break
			}
		}
		vh, _ := p.t.ValueSig()
		e := &entry{id: id, t: p.t, vh: vh, kk: p.t.KindSig(), sk: p.t.ShapeSig()}
		// Same routing rule as Write: a restored entry must land on the
		// shard the templates that can match it route to.
		sh := s.shardFor(s.routeOf(p.t, vh, e.kk))
		sh.mu.Lock()
		sh.stats.Restored++
		l, fire := sh.store(e, p.lease, false)
		if l.sp != nil { // attached lease: stored, not consumed
			restored++
		}
		sh.mu.Unlock()
		for _, f := range fire {
			f()
		}
	}
	return restored, nil
}

// ReplayFile is Replay over a journal file; a missing file restores
// nothing and is not an error (first boot).
func (s *Space) ReplayFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return s.Replay(f)
}
