package pirproto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
)

// FuzzParseBatch hardens the batch decoder against adversarial payloads.
func FuzzParseBatch(f *testing.F) {
	good, err := MarshalBatch([][]byte{[]byte("abc"), {}, []byte("z")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := ParseBatch(data)
		if err != nil {
			return
		}
		// Accepted payloads must round-trip exactly.
		back, err := MarshalBatch(items)
		if err != nil {
			t.Fatalf("accepted batch fails re-marshal: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("accepted batch is not a fixed point of the codec")
		}
	})
}

// FuzzReadFrame hardens the frame reader: arbitrary streams must never
// panic or over-allocate, and every accepted frame — flags included —
// must re-encode to a prefix of the input.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgQuery, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{'I', 'P'})
	f.Add([]byte("GET / HTTP/1.1\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, flags, payload, err := ReadFrameFlags(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrameFlags(&out, typ, flags, payload); err != nil {
			t.Fatalf("accepted frame fails re-encode: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatal("accepted frame is not a prefix fixed point")
		}
	})
}

// FuzzParseUpdate hardens the update decoder against adversarial
// payloads: never panic, never over-allocate, and accepted payloads
// must round-trip semantically (MarshalUpdate canonicalises entry order
// to ascending index, so byte equality only holds after one
// re-marshal).
func FuzzParseUpdate(f *testing.F) {
	good, err := MarshalUpdate(map[uint64][]byte{3: []byte("abc"), 9: {}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		updates, err := ParseUpdate(data)
		if err != nil {
			return
		}
		back, err := MarshalUpdate(updates)
		if err != nil {
			t.Fatalf("accepted update fails re-marshal: %v", err)
		}
		again, err := ParseUpdate(back)
		if err != nil {
			t.Fatalf("canonical re-marshal fails to parse: %v", err)
		}
		if len(again) != len(updates) {
			t.Fatalf("round trip changed entry count: %d != %d", len(again), len(updates))
		}
		for idx, rec := range updates {
			if !bytes.Equal(again[idx], rec) {
				t.Fatalf("round trip changed record %d", idx)
			}
		}
		canonical, err := MarshalUpdate(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonical, back) {
			t.Fatal("canonical form is not a fixed point of the codec")
		}
	})
}

// queryFrames are the four frame types ParseQuery decodes.
var queryFrames = [...]MsgType{MsgQuery, MsgBatchQuery, MsgShareQuery, MsgShareBatchQuery}

// FuzzParseQuery hardens the one query-frame decoder the server feeds
// every untrusted query payload — DPF keys and selector shares, single
// and batched: never panic, and every accepted payload re-encodes to one
// that decodes to the same batch. (Bytes need not match: a share's tail
// bits beyond its length are cleared on decode.)
func FuzzParseQuery(f *testing.F) {
	k0, _, err := dpf.Gen(dpf.Params{Domain: 8}, 3, nil)
	if err != nil {
		f.Fatal(err)
	}
	share := bitvec.New(256)
	share.Set(3)
	keys := dpf.Batch{Keys: []*dpf.Key{k0, k0}}
	shares := dpf.Batch{Shares: []*bitvec.Vector{share, share}}
	for i, in := range []dpf.Batch{{Keys: keys.Keys[:1]}, keys, {Shares: shares.Shares[:1]}, shares} {
		payload, err := AppendQuery(nil, queryFrames[i], in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), payload)
		f.Add(uint8(i), payload[:len(payload)/2]) // truncated
		if i%2 == 1 {
			oversized := bytes.Clone(payload)
			binary.LittleEndian.PutUint32(oversized, 3) // one more item than present
			f.Add(uint8(i), oversized)
			binary.LittleEndian.PutUint32(oversized, 1<<20+1) // beyond the batch limit
			f.Add(uint8(i), oversized)
		}
	}
	f.Add(uint8(1), []byte{0, 0, 0, 0}) // an empty batch

	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		frame := queryFrames[int(sel)%len(queryFrames)]
		in, err := ParseQuery(frame, payload)
		if err != nil {
			return
		}
		again, err := AppendQuery(nil, frame, in)
		if err != nil {
			t.Fatalf("%v: accepted batch fails re-encode: %v", frame, err)
		}
		back, err := ParseQuery(frame, again)
		if err != nil {
			t.Fatalf("%v: re-encoded batch fails to decode: %v", frame, err)
		}
		if !reflect.DeepEqual(back, in) {
			t.Fatalf("%v: round trip changed the batch", frame)
		}
	})
}
