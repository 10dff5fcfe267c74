package dmr

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rcmp/internal/workload"
)

func mustEncode(t testing.TB, b RecordBatch) []byte {
	t.Helper()
	frame, err := b.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestRecordBatchRoundTrip is the codec's property: decode(encode(b)) is b,
// for random batches that include empty batches and nil, zero-length and
// long (multi-byte length prefix) values. A zero-length value comes back
// nil, as it does through plain gob.
func TestRecordBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		in := make(RecordBatch, rng.Intn(40))
		for i := range in {
			in[i].Key = rng.Uint64()
			switch rng.Intn(5) {
			case 0: // nil value
			case 1:
				in[i].Value = []byte{}
			case 2:
				in[i].Value = make([]byte, 128+rng.Intn(400))
				rng.Read(in[i].Value)
			default:
				in[i].Value = make([]byte, 1+rng.Intn(120))
				rng.Read(in[i].Value)
			}
		}
		var out RecordBatch
		if err := out.GobDecode(mustEncode(t, in)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := make(RecordBatch, len(in))
		for i, r := range in {
			want[i].Key = r.Key
			if len(r.Value) > 0 {
				want[i].Value = r.Value
			}
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("round %d: decoded batch differs from the encoded one", round)
		}
	}
}

// TestRecordBatchValuesAreIsolated pins the two ownership rules of decode:
// it keeps nothing of the input buffer (gob reuses it), and appending to one
// decoded value cannot reach the next one's bytes.
func TestRecordBatchValuesAreIsolated(t *testing.T) {
	in := RecordBatch(workload.Generate(3, 4))
	frame := mustEncode(t, in)
	var out RecordBatch
	if err := out.GobDecode(frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	grown := append(out[0].Value, 0xee, 0xee)
	if !reflect.DeepEqual(out, in) {
		t.Fatal("decoded batch changed when the input buffer was overwritten or a value appended to")
	}
	if len(grown) != len(in[0].Value)+2 {
		t.Fatalf("append grew value to %d bytes", len(grown))
	}
}

// TestRecordBatchThroughGob sends the data-plane messages through a gob
// stream as interface values, the way wire carries them, including the
// batches gob treats specially: nil (not sent) and empty.
func TestRecordBatchThroughGob(t *testing.T) {
	type envelope struct{ Body any }
	var stream bytes.Buffer
	enc, dec := gob.NewEncoder(&stream), gob.NewDecoder(&stream)
	rows := RecordBatch(workload.Generate(20, 2))
	for _, msg := range []any{
		PutBlockReq{File: "f", Part: 1, Block: 2, Records: rows},
		PutBlockReq{File: "f"},
		FetchBlockResp{Records: RecordBatch{}},
		FetchMapOutResp{Records: rows, Counts: []int{0, 12, 8, 0}},
	} {
		if err := enc.Encode(envelope{Body: msg}); err != nil {
			t.Fatal(err)
		}
		var back envelope
		if err := dec.Decode(&back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Body, msg) {
			t.Fatalf("%T came back as %+v", msg, back.Body)
		}
	}
}

// decodeFootprint is what a decoded batch holds: its record headers and the
// one value buffer.
func decodeFootprint(b RecordBatch) int {
	n := len(b) * int(reflect.TypeOf(workload.Record{}).Size())
	for _, r := range b {
		n += len(r.Value)
	}
	return n
}

// maxFootprintRatio: a record costs at least minRecordFrame bytes of input
// and one 32-byte header when decoded; values cost the same on both sides.
const maxFootprintRatio = 4

func TestRecordBatchDecodeRejectsMalformed(t *testing.T) {
	good := mustEncode(t, RecordBatch(workload.Generate(3, 1)))
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	key := make([]byte, 8)
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"empty input", nil, "bad record count"},
		{"count varint never ends", bytes.Repeat([]byte{0x80}, 4), "bad record count"},
		{"count varint overflows", append(bytes.Repeat([]byte{0xff}, 10), 1), "bad record count"},
		{"count with no records", uv(1), "exceeds"},
		{"huge count", append(uv(1<<62), good[1:]...), "exceeds"},
		{"count one too many", append(uv(4), good[1:]...), "claims"},
		{"truncated key", append(uv(1), make([]byte, 8)...), "exceeds"},
		{"truncated value", good[:len(good)-1], "claims"},
		{"huge length", append(append(uv(1), key...), uv(1<<40)...), "claims"},
		{"length varint never ends", append(append(uv(1), key...), 0x80, 0x80), "bad value length"},
		{"length eats the next record", append(append(append(uv(2), key...), uv(9)...), make([]byte, 9)...), "claims"},
		{"trailing byte", append(append([]byte(nil), good...), 0), "trailing"},
		{"count short of the records", append(uv(2), good[1:]...), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := RecordBatch{{Key: 7}}
			err := out.GobDecode(tc.frame)
			if err == nil {
				t.Fatalf("decoded %d records from a malformed frame", len(out))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want it to mention %q", err, tc.want)
			}
			if len(out) != 1 || out[0].Key != 7 {
				t.Fatal("a failed decode overwrote the receiver")
			}
		})
	}
}

// FuzzRecordBatchDecode feeds arbitrary bytes to the frame decoder, which
// reads them off a socket in production. It must never panic; whatever it
// accepts must be canonical up to length-prefix padding (it re-encodes to a
// frame that decodes to the same batch) and must not hold more memory than
// a fixed multiple of the input. The aliasing parse, which a bulk section
// goes through, must accept and reject exactly what the copying parse
// does, with the same records and the same error.
func FuzzRecordBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(mustEncode(f, RecordBatch(workload.Generate(5, 3))))
	f.Add(mustEncode(f, RecordBatch{{Key: 1}, {Key: 2, Value: []byte{}}, {Key: 3, Value: []byte("x")}}))
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		aliased, aerr := parseFrame(bytes.Clone(data), true)
		copied, cerr := parseFrame(data, false)
		if fmt.Sprint(aerr) != fmt.Sprint(cerr) || !reflect.DeepEqual(aliased, copied) {
			t.Fatalf("aliasing parse gave %d records, %v; copying parse %d, %v", len(aliased), aerr, len(copied), cerr)
		}
		var got RecordBatch
		if err := got.GobDecode(data); err != nil {
			if got != nil {
				t.Fatal("a failed decode overwrote the receiver")
			}
			return
		}
		if fp := decodeFootprint(got); fp > maxFootprintRatio*len(data) {
			t.Fatalf("%d input bytes decoded to a %d-byte batch", len(data), fp)
		}
		var again RecordBatch
		if err := again.GobDecode(mustEncode(t, got)); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatal("decode(encode(decode(data))) differs from decode(data)")
		}
	})
}
