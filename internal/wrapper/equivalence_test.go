package wrapper

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tpspace/internal/sim"
	"tpspace/internal/space"
	"tpspace/internal/transport"
	"tpspace/internal/tuple"
	"tpspace/internal/xmlcodec"
)

// equivStep is one step of the scripted session: its frames are sent
// in order, then the simulation runs to quiescence.
type equivStep struct {
	name   string
	frames [][]byte
}

// equivScript builds the scripted op sequence in one codec. Request
// ids are fixed, so replies can be compared per id across stacks.
func equivScript(binary bool) []equivStep {
	frame := func(id uint64, op string, t *tuple.Tuple, leaseMs, timeoutMs int64) []byte {
		r := xmlcodec.NewRequest(id, op, t)
		r.LeaseMs, r.TimeoutMs = leaseMs, timeoutMs
		var b []byte
		var err error
		if binary {
			b, err = xmlcodec.MarshalRequestBinary(r)
		} else {
			b, err = xmlcodec.MarshalRequest(r)
		}
		if err != nil {
			panic(err)
		}
		return b
	}
	mk := func(op string, n int64) *tuple.Tuple {
		t := tuple.New("eq", tuple.String("op", op), tuple.Int("n", n), tuple.Float("f", 0.25))
		return &t
	}
	anyOf := func(op string) *tuple.Tuple {
		t := tuple.New("eq", tuple.String("op", op), tuple.AnyInt("n"), tuple.AnyFloat("f"))
		return &t
	}
	forever := xmlcodec.TimeoutMsOf(sim.Forever)
	write1 := frame(1, xmlcodec.OpWrite, mk("a", 1), 0, 0)
	dupTake := frame(40, xmlcodec.OpTake, anyOf("d"), 0, forever)

	var badEntry, unknown, badFrame, noEntry [][]byte
	if binary {
		w := frame(50, xmlcodec.OpWrite, mk("x", 1), 0, 0)
		badEntry = [][]byte{w[:len(w)-5]}
		p := frame(51, xmlcodec.OpPing, nil, 0, 0)
		p[1] = 0x7F // no such opcode
		unknown = [][]byte{p}
		badFrame = [][]byte{{0xB1, 0x01, 0x02}, {0xB2, 0x00}}
		nb := frame(53, xmlcodec.OpCount, nil, 0, 0)
		noEntry = [][]byte{nb}
	} else {
		badEntry = [][]byte{[]byte(`<request id="50" op="write"><entry type="eq"><field name="n" kind="int">abc</field></entry></request>`)}
		unknown = [][]byte{
			[]byte(`<request id="51" op="bogus"></request>`),
			frame(52, xmlcodec.OpNotifySession, anyOf("s"), 0, 0),
		}
		badFrame = [][]byte{[]byte(`<<<not xml`), []byte(`<request id="7"`)}
		noEntry = [][]byte{[]byte(`<request id="53" op="count"></request>`)}
	}

	return []equivStep{
		{"write", [][]byte{write1}},
		{"write leased", [][]byte{frame(2, xmlcodec.OpWrite, mk("b", 2), 30, 0)}},
		{"count after lease expiry", [][]byte{frame(3, xmlcodec.OpCount, anyOf("b"), 0, 0)}},
		{"write more", [][]byte{
			frame(4, xmlcodec.OpWrite, mk("c", 3), 0, 0),
			frame(5, xmlcodec.OpWrite, mk("c", 4), 0, 0),
		}},
		{"read hit", [][]byte{frame(6, xmlcodec.OpRead, anyOf("c"), 0, 100)}},
		{"take hit", [][]byte{frame(7, xmlcodec.OpTake, mk("c", 3), 0, forever)}},
		{"read miss", [][]byte{frame(8, xmlcodec.OpRead, anyOf("none"), 0, 0)}},
		{"take miss", [][]byte{frame(9, xmlcodec.OpTake, anyOf("none"), 0, 0)}},
		{"take timeout", [][]byte{frame(10, xmlcodec.OpTake, anyOf("none"), 0, 5)}},
		{"read timeout", [][]byte{frame(11, xmlcodec.OpRead, anyOf("none"), 0, 5)}},
		{"take parks", [][]byte{frame(12, xmlcodec.OpTake, anyOf("p"), 0, forever)}},
		{"read parks", [][]byte{frame(13, xmlcodec.OpRead, anyOf("p"), 0, 1000)}},
		{"write satisfies", [][]byte{frame(14, xmlcodec.OpWrite, mk("p", 9), 0, 0)}},
		{"readIfExists hit", [][]byte{frame(15, xmlcodec.OpReadIfExists, anyOf("c"), 0, 0)}},
		{"takeIfExists hit", [][]byte{frame(16, xmlcodec.OpTakeIfExists, anyOf("c"), 0, 0)}},
		{"readIfExists miss", [][]byte{frame(17, xmlcodec.OpReadIfExists, anyOf("c"), 0, 0)}},
		{"takeIfExists miss", [][]byte{frame(18, xmlcodec.OpTakeIfExists, anyOf("c"), 0, 0)}},
		{"count", [][]byte{frame(19, xmlcodec.OpCount, anyOf("a"), 0, 0)}},
		{"ping", [][]byte{frame(20, xmlcodec.OpPing, nil, 0, 0)}},
		{"notify", [][]byte{frame(30, xmlcodec.OpNotify, anyOf("n"), 0, 0)}},
		{"notified writes", [][]byte{
			frame(31, xmlcodec.OpWrite, mk("n", 1), 0, 0),
			frame(32, xmlcodec.OpWrite, mk("n", 2), 0, 0),
		}},
		{"duplicate of completed", [][]byte{write1}},
		{"in-flight original", [][]byte{dupTake}},
		{"in-flight duplicate", [][]byte{dupTake}},
		{"in-flight completes", [][]byte{frame(41, xmlcodec.OpWrite, mk("d", 1), 0, 0)}},
		{"malformed entry", badEntry},
		{"unknown op", unknown},
		{"malformed frame", badFrame},
		{"missing entry", noEntry},
		{"still serving", [][]byte{frame(60, xmlcodec.OpCount, anyOf("a"), 0, 0)}},
	}
}

// equivRecorder collects reply frames by the id they carry.
type equivRecorder struct {
	byID map[uint64][][]byte
}

func (r *equivRecorder) recv(t *testing.T) func([]byte) {
	return func(b []byte) {
		resp, err := xmlcodec.UnmarshalResponse(b)
		if err != nil {
			t.Errorf("undecodable reply %q: %v", b, err)
			return
		}
		r.byID[resp.ID] = append(r.byID[resp.ID], append([]byte(nil), b...))
	}
}

// render prints every reply, by id then arrival order, one per line.
func (r *equivRecorder) render() string {
	ids := make([]uint64, 0, len(r.byID))
	for id := range r.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	for _, id := range ids {
		for _, f := range r.byID[id] {
			fmt.Fprintf(&sb, "%d %q\n", id, f)
		}
	}
	return sb.String()
}

// runEquivScript drives the script through one stack and returns the
// rendered replies. direct selects NewServerStack over a loopback;
// otherwise NewSimServerStack carries the request over simulated
// pipes and the RMI hop.
func runEquivScript(t *testing.T, binary, direct bool) string {
	t.Helper()
	k := sim.NewKernel(1)
	sp := space.New(space.SimRuntime{K: k})
	rec := &equivRecorder{byID: make(map[uint64][][]byte)}
	var cli transport.Conn
	if direct {
		a, b := transport.NewLoopback()
		NewServerStack(b, sp)
		cli = a
	} else {
		a, b := transport.NewSimPipe(k, sim.Millisecond)
		NewSimServerStack(k, b, sp, 100*sim.Microsecond)
		cli = a
	}
	cli.SetOnReceive(rec.recv(t))
	for _, st := range equivScript(binary) {
		for _, f := range st.frames {
			if err := cli.Send(f); err != nil {
				t.Fatalf("%s: send: %v", st.name, err)
			}
		}
		k.Run()
	}
	return rec.render()
}

// TestCodecEquivalence runs one scripted session — every op, hits,
// misses, timeouts, parked-then-satisfied waits, notify events,
// completed and in-flight duplicates, malformed entries, unknown ops
// and malformed frames — through the direct stack (NewServerStack)
// and the RMI stack (NewSimServerStack), in each codec. The reply
// frames must be byte-identical per request id across the two stacks
// and equal to the committed golden of the codec. The goldens pin the
// wire protocol: change them by hand, from the replies a mismatch
// logs in full, only for an intended change to a reply.
func TestCodecEquivalence(t *testing.T) {
	for _, binary := range []bool{false, true} {
		codec := "xml"
		if binary {
			codec = "binary"
		}
		t.Run(codec, func(t *testing.T) {
			direct := runEquivScript(t, binary, true)
			viaRMI := runEquivScript(t, binary, false)
			golden := filepath.Join("testdata", "equivalence_"+codec+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if direct != string(want) {
				t.Errorf("direct stack replies differ from %s:\n%s", golden, firstDiff(string(want), direct))
				t.Logf("direct stack replies:\n%s", direct)
			}
			if viaRMI != string(want) {
				t.Errorf("RMI stack replies differ from %s:\n%s", golden, firstDiff(string(want), viaRMI))
				t.Logf("RMI stack replies:\n%s", viaRMI)
			}
		})
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, wl, gl)
		}
	}
	return ""
}
