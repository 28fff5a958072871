package xmlcodec

// This file implements the compact binary protocol: the A3
// ablation's tuple encoding (EncodeTupleBinary) promoted to a full
// request/response wire form, negotiable per message. The first byte
// of every frame distinguishes the codecs — XML always starts with
// '<' (0x3C), binary frames start with a magic byte outside the XML
// character range — so UnmarshalRequest/UnmarshalResponse accept
// either and a server answers each request in the codec it arrived
// in. Clients opt in with wrapper.WithBinaryCodec; XML stays the
// default so the paper's bus-inflation workload is unchanged.

import (
	"encoding/binary"
	"fmt"
)

// Frame magics. Neither can begin a well-formed XML document.
const (
	binReqMagic  = 0xB1
	binRespMagic = 0xB2
)

// binReqHdrLen is the fixed request prefix: magic, opcode, id,
// lease-ms, timeout-ms, entry flag.
const binReqHdrLen = 1 + 1 + 8 + 8 + 8 + 1

// binRespHdrLen is the fixed response prefix: magic, flags, id,
// count, error length.
const binRespHdrLen = 1 + 1 + 8 + 8 + 2

// Response flag bits.
const (
	binRespOK    = 1 << 0
	binRespEvent = 1 << 1
	binRespEntry = 1 << 2
)

// opCodes maps op names to single-byte opcodes (1-based so a zero
// byte never decodes to a valid op).
var opCodes = map[string]byte{
	OpWrite:        1,
	OpRead:         2,
	OpTake:         3,
	OpReadIfExists: 4,
	OpTakeIfExists: 5,
	OpNotify:       6,
	OpPing:         7,
	OpCount:        8,

	OpNotifySession: 9,
	OpNotifyResume:  10,
	OpNotifyEnd:     11,
}

var opNames = func() [12]string {
	var n [12]string
	for name, c := range opCodes {
		n[c] = name
	}
	return n
}()

// IsBinary reports whether the frame is in the binary protocol
// (request or response form).
func IsBinary(b []byte) bool {
	return len(b) > 0 && (b[0] == binReqMagic || b[0] == binRespMagic)
}

// PeekRequest extracts the id and op of a binary request without
// decoding the entry — the gateway's fast path for routing a frame it
// will forward verbatim. ok=false means the frame is not a
// well-formed binary request header and the caller must full-parse.
func PeekRequest(b []byte) (id uint64, op string, ok bool) {
	if len(b) < binReqHdrLen || b[0] != binReqMagic {
		return 0, "", false
	}
	c := b[1]
	if int(c) >= len(opNames) || opNames[c] == "" {
		return 0, "", false
	}
	return binary.BigEndian.Uint64(b[2:10]), opNames[c], true
}

// MarshalRequestBinary serializes a request to the compact binary
// wire form.
func MarshalRequestBinary(r Request) ([]byte, error) {
	c, ok := opCodes[r.Op]
	if !ok {
		return nil, fmt.Errorf("xmlcodec: unknown operation %q", r.Op)
	}
	var entry []byte
	if r.Entry != nil {
		t, err := decodeTuple(r.Entry)
		if err != nil {
			return nil, err
		}
		entry = EncodeTupleBinary(t)
	}
	b := make([]byte, binReqHdrLen, binReqHdrLen+len(entry))
	b[0] = binReqMagic
	b[1] = c
	binary.BigEndian.PutUint64(b[2:10], r.ID)
	binary.BigEndian.PutUint64(b[10:18], uint64(r.LeaseMs))
	binary.BigEndian.PutUint64(b[18:26], uint64(r.TimeoutMs))
	if entry != nil {
		b[26] = 1
		b = append(b, entry...)
	}
	return b, nil
}

// unmarshalRequestBinary decodes the binary request form. Callers
// route through UnmarshalRequest, which sniffs the codec.
func unmarshalRequestBinary(b []byte) (Request, error) {
	var r Request
	if len(b) < binReqHdrLen {
		return r, fmt.Errorf("xmlcodec: truncated binary request (%d bytes)", len(b))
	}
	c := b[1]
	if int(c) >= len(opNames) || opNames[c] == "" {
		return r, fmt.Errorf("xmlcodec: bad binary opcode %d", c)
	}
	r.Binary = true
	r.Op = opNames[c]
	r.ID = binary.BigEndian.Uint64(b[2:10])
	r.LeaseMs = int64(binary.BigEndian.Uint64(b[10:18]))
	r.TimeoutMs = int64(binary.BigEndian.Uint64(b[18:26]))
	if b[26] == 1 {
		t, err := DecodeTupleBinary(b[binReqHdrLen:])
		if err != nil {
			return r, err
		}
		r.Entry = encodeTuple(t)
	}
	return r, nil
}

// MarshalResponseBinary serializes a response to the compact binary
// wire form.
func MarshalResponseBinary(r Response) ([]byte, error) {
	var entry []byte
	flags := byte(0)
	if r.OK {
		flags |= binRespOK
	}
	if r.Event {
		flags |= binRespEvent
	}
	if r.Entry != nil {
		t, err := decodeTuple(r.Entry)
		if err != nil {
			return nil, err
		}
		entry = EncodeTupleBinary(t)
		flags |= binRespEntry
	}
	if len(r.Err) > 0xFFFF {
		return nil, fmt.Errorf("xmlcodec: error message too long (%d bytes)", len(r.Err))
	}
	b := make([]byte, binRespHdrLen, binRespHdrLen+len(r.Err)+len(entry))
	b[0] = binRespMagic
	b[1] = flags
	binary.BigEndian.PutUint64(b[2:10], r.ID)
	binary.BigEndian.PutUint64(b[10:18], uint64(r.Count))
	binary.BigEndian.PutUint16(b[18:20], uint16(len(r.Err)))
	b = append(b, r.Err...)
	b = append(b, entry...)
	return b, nil
}

// unmarshalResponseBinary decodes the binary response form. Callers
// route through UnmarshalResponse, which sniffs the codec.
func unmarshalResponseBinary(b []byte) (Response, error) {
	var r Response
	if len(b) < binRespHdrLen {
		return r, fmt.Errorf("xmlcodec: truncated binary response (%d bytes)", len(b))
	}
	flags := b[1]
	r.Binary = true
	r.OK = flags&binRespOK != 0
	r.Event = flags&binRespEvent != 0
	r.ID = binary.BigEndian.Uint64(b[2:10])
	r.Count = int64(binary.BigEndian.Uint64(b[10:18]))
	errLen := int(binary.BigEndian.Uint16(b[18:20]))
	if binRespHdrLen+errLen > len(b) {
		return r, fmt.Errorf("xmlcodec: truncated binary response error text")
	}
	r.Err = string(b[binRespHdrLen : binRespHdrLen+errLen])
	if flags&binRespEntry != 0 {
		t, err := DecodeTupleBinary(b[binRespHdrLen+errLen:])
		if err != nil {
			return r, err
		}
		r.Entry = encodeTuple(t)
	}
	return r, nil
}
