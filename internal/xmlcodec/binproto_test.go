package xmlcodec

import (
	"strings"
	"testing"

	"tpspace/internal/sim"
	"tpspace/internal/tuple"
)

func TestBinaryRequestRoundTrip(t *testing.T) {
	tp := tuple.New("job",
		tuple.String("op", "fft"), tuple.Int("n", 1024),
		tuple.AnyFloat("x"), tuple.Bytes("raw", []byte{9, 8}))
	req := NewRequest(99, OpWrite, &tp)
	req.LeaseMs = 1500
	req.TimeoutMs = -1
	b, err := MarshalRequestBinary(req)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinary(b) {
		t.Fatal("binary request not recognized by IsBinary")
	}
	got, err := UnmarshalRequest(b) // sniffed, not routed explicitly
	if err != nil {
		t.Fatal(err)
	}
	if !got.Binary {
		t.Fatal("Binary flag not set by sniffing decoder")
	}
	if got.ID != 99 || got.Op != OpWrite || got.LeaseMs != 1500 || got.TimeoutMs != -1 {
		t.Fatalf("header fields diverged: %+v", got)
	}
	if got.Timeout() != sim.Forever {
		t.Fatalf("timeout = %v, want Forever", got.Timeout())
	}
	back, err := got.Tuple()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tp) {
		t.Fatalf("entry diverged: %v vs %v", back, tp)
	}
}

func TestBinaryRequestNoEntry(t *testing.T) {
	b, err := MarshalRequestBinary(Request{ID: 3, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != nil || got.Op != OpPing || got.ID != 3 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	tp := tuple.New("r", tuple.Int("v", 7))
	resp := NewResponse(42, true, &tp, "")
	resp.Count = 12
	resp.Event = true
	b, err := MarshalResponseBinary(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResponse(b) // sniffed
	if err != nil {
		t.Fatal(err)
	}
	if !got.Binary || !got.OK || !got.Event || got.ID != 42 || got.Count != 12 {
		t.Fatalf("decoded %+v", got)
	}
	back, err := got.Tuple()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(tp) {
		t.Fatalf("entry diverged: %v", back)
	}
}

func TestBinaryErrorResponse(t *testing.T) {
	b, err := MarshalResponseBinary(NewResponse(5, false, nil, "space: no match"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.OK || got.Err != "space: no match" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestBinaryUnknownOpRejected(t *testing.T) {
	if _, err := MarshalRequestBinary(Request{ID: 1, Op: "explode"}); err == nil {
		t.Fatal("unknown op marshalled")
	}
}

func TestPeekRequest(t *testing.T) {
	tp := tuple.New("job", tuple.String("op", "fft"))
	b, err := MarshalRequestBinary(NewRequest(77, OpTake, &tp))
	if err != nil {
		t.Fatal(err)
	}
	id, op, ok := PeekRequest(b)
	if !ok || id != 77 || op != OpTake {
		t.Fatalf("peek = %d %q %v", id, op, ok)
	}
	// Truncated header, bad opcode, and XML must all refuse the peek.
	for name, frame := range map[string][]byte{
		"truncated":  b[:binReqHdrLen-1],
		"bad opcode": {binReqMagic, 0xFF, 0, 0, 0, 0, 0, 0, 0, 77, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"xml":        []byte(`<request id="77" op="take"/>`),
		"empty":      {},
	} {
		if _, _, ok := PeekRequest(frame); ok {
			t.Fatalf("%s frame peeked ok", name)
		}
	}
}

func TestBinaryTruncatedFramesRejected(t *testing.T) {
	tp := tuple.New("job", tuple.Int("n", 1))
	req, _ := MarshalRequestBinary(NewRequest(1, OpWrite, &tp))
	resp, _ := MarshalResponseBinary(NewResponse(1, true, &tp, ""))
	for i := 1; i < len(req); i++ {
		if _, err := UnmarshalRequest(req[:i]); err == nil {
			t.Fatalf("truncated request of %d bytes accepted", i)
		}
	}
	for i := 1; i < len(resp); i++ {
		if _, err := UnmarshalResponse(resp[:i]); err == nil {
			t.Fatalf("truncated response of %d bytes accepted", i)
		}
	}
}

func TestBinaryRequestSmallerThanXML(t *testing.T) {
	tp := tuple.New("job", tuple.String("op", "fft"), tuple.Int("n", 1024))
	req := NewRequest(1, OpWrite, &tp)
	xml, err := MarshalRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := MarshalRequestBinary(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(xml) {
		t.Fatalf("binary %d bytes, xml %d bytes", len(bin), len(xml))
	}
	if strings.HasPrefix(string(bin), "<") {
		t.Fatal("binary frame starts like XML")
	}
}

// TestTupleBinarySizeBounds checks TupleBinarySize against the bytes
// AppendTupleBinary really appends: exact without floats, an upper
// bound with them.
func TestTupleBinarySizeBounds(t *testing.T) {
	for _, tp := range []tuple.Tuple{
		tuple.New("empty"),
		tuple.New("job", tuple.Int("id", 7), tuple.String("op", "fft"),
			tuple.Bool("ok", true), tuple.Bytes("raw", make([]byte, 5000))),
		tuple.New("job", tuple.AnyInt("id"), tuple.AnyString("op"), tuple.AnyBytes("raw")),
		tuple.New("f", tuple.Float("x", -1.2345678901234567e-308), tuple.Float("y", 0.5)),
	} {
		got := len(AppendTupleBinary(nil, &tp))
		bound := TupleBinarySize(&tp)
		hasFloat := false
		for _, f := range tp.Fields {
			hasFloat = hasFloat || (f.Kind == tuple.KindFloat && !f.Wildcard)
		}
		if got > bound || (!hasFloat && got != bound) {
			t.Fatalf("%v: appended %d bytes, TupleBinarySize %d", tp, got, bound)
		}
	}
}
