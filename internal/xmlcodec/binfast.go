package xmlcodec

// This file is the zero-copy fast path of the binary protocol: the
// same wire bytes binproto.go defines, but decoded straight into
// caller-owned scratch structs carrying tuple.Tuple values (no
// XML-shaped Request/xmlEntry intermediates, no string-typed ops) and
// marshalled by appending into caller-supplied buffers (no fresh
// slice per message). The serving plane uses it end to end: a frame
// read from the transport's receive slab decodes into a pooled
// BinRequest, the space executes on the tuple directly, and the reply
// appends into a pooled size-class buffer that goes back to its pool
// after the transport copies it out.
//
// Ownership contract: everything a Decode*Into call produces — the
// request/response struct, its Entry tuple, interned strings aside —
// is valid only until the next Decode*Into call on the same struct.
// Retaining the tuple (parking a waiter, handing it to application
// code) requires a Clone. DESIGN §11 spells out the full chain.

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"tpspace/internal/tuple"
)

// OpCodeOf resolves an op name to its binary opcode.
func OpCodeOf(op string) (byte, bool) {
	c, ok := opCodes[op]
	return c, ok
}

// OpNameOf resolves a binary opcode to its interned op name ("" for
// an unknown code). The returned string is one of the Op* constants,
// so decoding never allocates for the op.
func OpNameOf(c byte) string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return ""
}

// Interner is a bounded string intern table for the decode fast path:
// tuple type names and field names recur endlessly on a serving
// connection, so after warm-up the table returns the same string
// header instead of allocating a copy per frame. Lookups with a
// []byte key compile to zero-allocation map access. Not safe for
// concurrent use — each decoder (worker, client reader) owns one.
type Interner struct {
	m map[string]string
}

// Intern bounds: strings longer than internMaxLen or arriving after
// the table holds internMaxEntries fall back to a plain copy, so a
// hostile peer cannot balloon the table.
const (
	internMaxLen     = 64
	internMaxEntries = 512
)

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// str returns a string with b's content, reusing a previously
// interned copy when possible.
func (in *Interner) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= internMaxLen && len(in.m) < internMaxEntries {
		in.m[s] = s
	}
	return s
}

// BinRequest is a decoded binary request with the entry as a live
// tuple. Decode reuses the struct's storage (Entry.Fields backing
// array included); see the ownership contract above.
type BinRequest struct {
	ID        uint64
	Code      byte   // binary opcode
	Op        string // interned op name (an Op* constant)
	LeaseMs   int64
	TimeoutMs int64
	HasEntry  bool
	Entry     tuple.Tuple
}

// BinResponse is a decoded binary response with the entry as a live
// tuple, under the same reuse contract as BinRequest.
type BinResponse struct {
	ID       uint64
	OK       bool
	Event    bool
	Count    int64
	Err      string
	HasEntry bool
	Entry    tuple.Tuple
}

// decodeTupleInto decodes the EncodeTupleBinary wire form into t,
// reusing t's field array (and each field's Bytes capacity). Type and
// field names intern through in; string values are copied fresh —
// they are unbounded application data.
func decodeTupleInto(t *tuple.Tuple, b []byte, in *Interner) error {
	pos := 0
	fail := func() error {
		return fmt.Errorf("xmlcodec: truncated binary tuple at %d", pos)
	}
	getBytes := func() ([]byte, bool) {
		if pos+2 > len(b) {
			return nil, false
		}
		n := int(b[pos])<<8 | int(b[pos+1])
		pos += 2
		if pos+n > len(b) {
			return nil, false
		}
		s := b[pos : pos+n]
		pos += n
		return s, true
	}
	typ, ok := getBytes()
	if !ok {
		return fail()
	}
	t.Type = in.str(typ)
	if pos >= len(b) {
		return fail()
	}
	nf := int(b[pos])
	pos++
	if cap(t.Fields) < nf {
		t.Fields = make([]tuple.Field, nf)
	} else {
		t.Fields = t.Fields[:nf]
	}
	for i := 0; i < nf; i++ {
		if pos >= len(b) {
			t.Fields = t.Fields[:i]
			return fail()
		}
		flags := b[pos]
		pos++
		f := &t.Fields[i]
		f.Kind = tuple.Kind(flags & 0x7F)
		f.Wildcard = flags&0x80 != 0
		name, ok := getBytes()
		if !ok {
			t.Fields = t.Fields[:i]
			return fail()
		}
		f.Name = in.str(name)
		// Reset the kind-selected slots; stale values in the others are
		// never read (every consumer selects by Kind).
		f.Int, f.Float, f.Str, f.Bool = 0, 0, "", false
		if f.Wildcard {
			continue
		}
		switch f.Kind {
		case tuple.KindInt:
			if pos+8 > len(b) {
				t.Fields = t.Fields[:i]
				return fail()
			}
			f.Int = int64(binary.BigEndian.Uint64(b[pos : pos+8]))
			pos += 8
		case tuple.KindFloat:
			s, ok := getBytes()
			if !ok {
				t.Fields = t.Fields[:i]
				return fail()
			}
			v, err := strconv.ParseFloat(string(s), 64)
			if err != nil {
				t.Fields = t.Fields[:i]
				return err
			}
			f.Float = v
		case tuple.KindString:
			s, ok := getBytes()
			if !ok {
				t.Fields = t.Fields[:i]
				return fail()
			}
			f.Str = string(s)
		case tuple.KindBool:
			if pos >= len(b) {
				t.Fields = t.Fields[:i]
				return fail()
			}
			f.Bool = b[pos] == 1
			pos++
		case tuple.KindBytes:
			s, ok := getBytes()
			if !ok {
				t.Fields = t.Fields[:i]
				return fail()
			}
			f.Bytes = append(f.Bytes[:0], s...)
		default:
			t.Fields = t.Fields[:i]
			return fmt.Errorf("xmlcodec: bad kind %d", f.Kind)
		}
	}
	return nil
}

// AppendTupleBinary appends t's EncodeTupleBinary wire form to dst,
// byte-identical to EncodeTupleBinary but allocation-free when dst
// has capacity (floats format through strconv.AppendFloat).
func AppendTupleBinary(dst []byte, t *tuple.Tuple) []byte {
	putLen := func(b []byte, n int) []byte {
		return append(b, byte(n>>8), byte(n))
	}
	dst = putLen(dst, len(t.Type))
	dst = append(dst, t.Type...)
	dst = append(dst, byte(len(t.Fields)))
	for i := range t.Fields {
		f := &t.Fields[i]
		flags := byte(f.Kind)
		if f.Wildcard {
			flags |= 0x80
		}
		dst = append(dst, flags)
		dst = putLen(dst, len(f.Name))
		dst = append(dst, f.Name...)
		if f.Wildcard {
			continue
		}
		switch f.Kind {
		case tuple.KindInt:
			dst = binary.BigEndian.AppendUint64(dst, uint64(f.Int))
		case tuple.KindFloat:
			// Length prefix first: reserve it, append the digits, then
			// patch the real length in.
			at := len(dst)
			dst = append(dst, 0, 0)
			dst = strconv.AppendFloat(dst, f.Float, 'g', -1, 64)
			n := len(dst) - at - 2
			dst[at], dst[at+1] = byte(n>>8), byte(n)
		case tuple.KindString:
			dst = putLen(dst, len(f.Str))
			dst = append(dst, f.Str...)
		case tuple.KindBool:
			if f.Bool {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case tuple.KindBytes:
			dst = putLen(dst, len(f.Bytes))
			dst = append(dst, f.Bytes...)
		}
	}
	return dst
}

// TupleBinarySize bounds the bytes AppendTupleBinary appends for t:
// exact except that a float field is counted at its longest
// formatting. Callers size pooled buffers with it, so an append never
// outgrows the buffer's size class.
func TupleBinarySize(t *tuple.Tuple) int {
	n := 2 + len(t.Type) + 1
	for i := range t.Fields {
		f := &t.Fields[i]
		n += 1 + 2 + len(f.Name)
		if f.Wildcard {
			continue
		}
		switch f.Kind {
		case tuple.KindInt:
			n += 8
		case tuple.KindFloat:
			n += 2 + 24 // e.g. -1.2345678901234567e-308
		case tuple.KindString:
			n += 2 + len(f.Str)
		case tuple.KindBool:
			n++
		case tuple.KindBytes:
			n += 2 + len(f.Bytes)
		}
	}
	return n
}

// AppendRequestBinary appends a full binary request frame to dst:
// the fast-path equivalent of MarshalRequestBinary, building the
// frame from a live tuple with no XML-shaped intermediate. entry may
// be nil (ping).
func AppendRequestBinary(dst []byte, id uint64, code byte, leaseMs, timeoutMs int64, entry *tuple.Tuple) []byte {
	dst = append(dst, binReqMagic, code)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(leaseMs))
	dst = binary.BigEndian.AppendUint64(dst, uint64(timeoutMs))
	if entry == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return AppendTupleBinary(dst, entry)
}

// AppendResponseBinary appends a full binary response frame to dst:
// the append-into-buffer variant of MarshalResponseBinary. entry may
// be nil. Error messages are truncated at the wire limit (64 KiB)
// rather than failing the reply.
func AppendResponseBinary(dst []byte, id uint64, ok, event bool, count int64, errMsg string, entry *tuple.Tuple) []byte {
	flags := byte(0)
	if ok {
		flags |= binRespOK
	}
	if event {
		flags |= binRespEvent
	}
	if entry != nil {
		flags |= binRespEntry
	}
	if len(errMsg) > 0xFFFF {
		errMsg = errMsg[:0xFFFF]
	}
	dst = append(dst, binRespMagic, flags)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(count))
	dst = append(dst, byte(len(errMsg)>>8), byte(len(errMsg)))
	dst = append(dst, errMsg...)
	if entry != nil {
		dst = AppendTupleBinary(dst, entry)
	}
	return dst
}

// DecodeRequestBinaryInto decodes a binary request frame into r,
// reusing r's storage. It accepts exactly the frames
// MarshalRequestBinary/AppendRequestBinary produce.
func DecodeRequestBinaryInto(r *BinRequest, b []byte, in *Interner) error {
	if len(b) < binReqHdrLen || b[0] != binReqMagic {
		return fmt.Errorf("xmlcodec: truncated binary request (%d bytes)", len(b))
	}
	c := b[1]
	op := OpNameOf(c)
	if op == "" {
		return fmt.Errorf("xmlcodec: bad binary opcode %d", c)
	}
	r.Code = c
	r.Op = op
	r.ID = binary.BigEndian.Uint64(b[2:10])
	r.LeaseMs = int64(binary.BigEndian.Uint64(b[10:18]))
	r.TimeoutMs = int64(binary.BigEndian.Uint64(b[18:26]))
	r.HasEntry = b[26] == 1
	if !r.HasEntry {
		r.Entry.Type = ""
		r.Entry.Fields = r.Entry.Fields[:0]
		return nil
	}
	return decodeTupleInto(&r.Entry, b[binReqHdrLen:], in)
}

// DecodeResponseBinaryInto decodes a binary response frame into r,
// reusing r's storage.
func DecodeResponseBinaryInto(r *BinResponse, b []byte, in *Interner) error {
	if len(b) < binRespHdrLen || b[0] != binRespMagic {
		return fmt.Errorf("xmlcodec: truncated binary response (%d bytes)", len(b))
	}
	flags := b[1]
	r.OK = flags&binRespOK != 0
	r.Event = flags&binRespEvent != 0
	r.HasEntry = flags&binRespEntry != 0
	r.ID = binary.BigEndian.Uint64(b[2:10])
	r.Count = int64(binary.BigEndian.Uint64(b[10:18]))
	errLen := int(binary.BigEndian.Uint16(b[18:20]))
	if binRespHdrLen+errLen > len(b) {
		return fmt.Errorf("xmlcodec: truncated binary response error text")
	}
	r.Err = string(b[binRespHdrLen : binRespHdrLen+errLen])
	if !r.HasEntry {
		r.Entry.Type = ""
		r.Entry.Fields = r.Entry.Fields[:0]
		return nil
	}
	return decodeTupleInto(&r.Entry, b[binRespHdrLen+errLen:], in)
}

//
// Multi-op pipelined frames: one transport frame carrying k complete
// single-op frames, each with a 4-byte length prefix. The client
// coalesces queued ops into one batch (one transport length prefix,
// one syscall on TCP); the server answers with one batch response
// frame whose members sit in op order. Batches are binary-protocol
// only — a member that is not a well-formed binary request is
// answered by an ID-0 binary error in its slot.
//

// Batch frame magics (continuing the 0xB1/0xB2 single-op space).
const (
	binBatchReqMagic  = 0xB3
	binBatchRespMagic = 0xB4
)

// batchHdrLen is the fixed batch prefix: magic plus member count.
const batchHdrLen = 1 + 2

// MaxBatchOps bounds the member count of one batch frame.
const MaxBatchOps = 0xFFFF

// IsBatchRequest reports whether the frame is a multi-op batch
// request.
func IsBatchRequest(b []byte) bool {
	return len(b) > 0 && b[0] == binBatchReqMagic
}

// IsBatchResponse reports whether the frame is a multi-op batch
// response.
func IsBatchResponse(b []byte) bool {
	return len(b) > 0 && b[0] == binBatchRespMagic
}

// IsBinaryRequest reports whether the frame starts with the single-op
// binary request magic (its body may still be malformed).
func IsBinaryRequest(b []byte) bool {
	return len(b) > 0 && b[0] == binReqMagic
}

// IsBinaryResponse reports whether the frame starts with the
// single-op binary response magic.
func IsBinaryResponse(b []byte) bool {
	return len(b) > 0 && b[0] == binRespMagic
}

// IsBinaryFrame reports whether the frame belongs to the binary
// protocol in any form — single-op request/response or batch — which
// is what the gateway's malformed-frame path keys its reply codec on.
func IsBinaryFrame(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	switch b[0] {
	case binReqMagic, binRespMagic, binBatchReqMagic, binBatchRespMagic, binEventMagic:
		return true
	}
	return false
}

// AppendBatchHeader starts a batch frame in dst. resp selects the
// response form. count must match the members subsequently appended
// with AppendBatchMember.
func AppendBatchHeader(dst []byte, resp bool, count int) []byte {
	magic := byte(binBatchReqMagic)
	if resp {
		magic = binBatchRespMagic
	}
	return append(dst, magic, byte(count>>8), byte(count))
}

// AppendBatchMember appends one member frame (a complete single-op
// binary frame) to a batch under construction.
func AppendBatchMember(dst []byte, frame []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(frame)))
	return append(dst, frame...)
}

// BatchIter walks the members of a batch frame without allocating.
type BatchIter struct {
	b   []byte
	n   int // members remaining
	pos int
}

// NewBatchIter validates the batch header and returns an iterator
// over its members. It accepts both request and response batches.
func NewBatchIter(b []byte) (BatchIter, error) {
	if len(b) < batchHdrLen || (b[0] != binBatchReqMagic && b[0] != binBatchRespMagic) {
		return BatchIter{}, fmt.Errorf("xmlcodec: truncated batch frame (%d bytes)", len(b))
	}
	n := int(b[1])<<8 | int(b[2])
	if n == 0 {
		return BatchIter{}, fmt.Errorf("xmlcodec: empty batch frame")
	}
	return BatchIter{b: b, n: n, pos: batchHdrLen}, nil
}

// Len reports the number of members not yet returned by Next.
func (it *BatchIter) Len() int { return it.n }

// Next returns the next member frame. A batch whose length prefixes
// overrun the frame returns err — callers treat the whole remainder
// as malformed.
func (it *BatchIter) Next() (frame []byte, err error) {
	if it.n == 0 {
		return nil, fmt.Errorf("xmlcodec: batch iterator exhausted")
	}
	if it.pos+4 > len(it.b) {
		return nil, fmt.Errorf("xmlcodec: truncated batch member header at %d", it.pos)
	}
	n := int(binary.BigEndian.Uint32(it.b[it.pos:]))
	it.pos += 4
	if n > len(it.b)-it.pos {
		return nil, fmt.Errorf("xmlcodec: truncated batch member at %d", it.pos)
	}
	frame = it.b[it.pos : it.pos+n]
	it.pos += n
	it.n--
	return frame, nil
}

// PatchBatchCount rewrites the member count of a batch frame header
// in place — for builders that append members before the count is
// known (the client batcher reserves a zero count, then patches).
func PatchBatchCount(b []byte, count int) {
	if len(b) >= batchHdrLen {
		b[1], b[2] = byte(count>>8), byte(count)
	}
}
