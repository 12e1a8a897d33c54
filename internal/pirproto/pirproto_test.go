package pirproto

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello pir")
	if err := WriteFrame(&buf, MsgQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgQuery || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: type=%v payload=%q", typ, got)
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgHello || len(got) != 0 {
		t.Fatalf("empty frame: type=%v len=%d", typ, len(got))
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		if err := WriteFrame(&buf, MsgQuery, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		_, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestReadFrameRejectsBadMagic(t *testing.T) {
	data := []byte{'X', 'Y', 1, 0, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	data := []byte{'I', 'P', 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(data)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgQuery, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, 8, len(data) - 1} {
		if _, _, err := ReadFrame(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	huge := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(io.Discard, MsgQuery, huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestServerInfoRoundTrip(t *testing.T) {
	si := ServerInfo{
		Party:      1,
		Domain:     20,
		RecordSize: 32,
		NumRecords: 1 << 20,
	}
	for i := range si.Digest {
		si.Digest[i] = byte(i)
	}
	got, err := ParseServerInfo(si.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != si {
		t.Fatalf("round trip: %+v != %+v", got, si)
	}
	if _, err := ParseServerInfo([]byte{1, 2, 3}); err == nil {
		t.Error("ParseServerInfo accepted short payload")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	items := [][]byte{[]byte("a"), {}, []byte("longer item"), {0, 1, 2}}
	payload, err := MarshalBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("got %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	payload, err := MarshalBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch decoded to %d items", len(got))
	}
}

func TestParseBatchRejectsCorruption(t *testing.T) {
	good, err := MarshalBatch([][]byte{[]byte("abc"), []byte("def")})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short":          good[:2],
		"truncated item": good[:len(good)-2],
		"trailing":       append(append([]byte{}, good...), 0xFF),
		"huge count":     {0xFF, 0xFF, 0xFF, 0xFF},
		"length overrun": {1, 0, 0, 0, 0xFF, 0, 0, 0},
		"missing length": {2, 0, 0, 0, 1, 0, 0, 0, 'x'},
	}
	for name, data := range cases {
		if _, err := ParseBatch(data); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, typ := range []MsgType{MsgHello, MsgServerInfo, MsgQuery, MsgQueryResp, MsgBatchQuery, MsgBatchResp, MsgError, MsgShareQuery, MsgShareBatchQuery, MsgBusy} {
		if typ.String() == "" {
			t.Errorf("MsgType %d has empty name", typ)
		}
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type has empty name")
	}
}

// TestLabel pins the frame labels metrics and server spans carry, and
// which frames are traced.
func TestLabel(t *testing.T) {
	for typ, want := range map[MsgType]struct {
		label  string
		traced bool
	}{
		MsgHello: {"hello", false}, MsgQuery: {"query", true}, MsgBatchQuery: {"batch", true},
		MsgShareQuery: {"share", true}, MsgShareBatchQuery: {"share_batch", true},
		MsgUpdate: {"update", true}, MsgQueryResp: {"unknown", false}, MsgType(200): {"unknown", false},
	} {
		if label, traced := typ.Label(); label != want.label || traced != want.traced {
			t.Errorf("%v.Label() = %q, %v; want %q, %v", typ, label, traced, want.label, want.traced)
		}
	}
}

// TestQueryCodecRejectsMisfits: a batch is only encoded into a frame
// that can carry it, and only query frames decode.
func TestQueryCodecRejectsMisfits(t *testing.T) {
	k, _, err := dpf.Gen(dpf.Params{Domain: 4}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	share := bitvec.New(16)
	for _, c := range []struct {
		t  MsgType
		in dpf.Batch
	}{
		{MsgQuery, dpf.Batch{Keys: []*dpf.Key{k, k}}},
		{MsgQuery, dpf.Batch{Shares: []*bitvec.Vector{share}}},
		{MsgShareQuery, dpf.Batch{}},
		{MsgBatchQuery, dpf.Batch{Keys: []*dpf.Key{k}, Shares: []*bitvec.Vector{share}}},
		{MsgShareBatchQuery, dpf.Batch{Keys: []*dpf.Key{k}}},
		{MsgHello, dpf.Batch{Keys: []*dpf.Key{k}}},
	} {
		if _, err := AppendQuery(nil, c.t, c.in); err == nil {
			t.Errorf("%v frame accepted %d keys and %d shares", c.t, len(c.in.Keys), len(c.in.Shares))
		}
	}
	if _, err := ParseQuery(MsgUpdate, nil); err == nil {
		t.Error("ParseQuery decoded an update frame")
	}
	empty, _ := MarshalBatch(nil)
	if _, err := ParseQuery(MsgShareBatchQuery, empty); err == nil {
		t.Error("ParseQuery accepted an empty batch")
	}
}

// Property: batch marshalling round-trips arbitrary byte strings.
func TestQuickBatchRoundTrip(t *testing.T) {
	f := func(items [][]byte) bool {
		payload, err := MarshalBatch(items)
		if err != nil {
			return len(items) > 0 // only oversize should fail
		}
		got, err := ParseBatch(payload)
		if err != nil || len(got) != len(items) {
			return false
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	in := map[uint64][]byte{
		0:    []byte("record zero bytes here 32 long!!"),
		7:    bytes.Repeat([]byte{0xAB}, 32),
		1000: bytes.Repeat([]byte{0x01}, 32),
	}
	payload, err := MarshalUpdate(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseUpdate(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %d entries, want %d", len(out), len(in))
	}
	for idx, rec := range in {
		if !bytes.Equal(out[idx], rec) {
			t.Errorf("record %d changed in round trip", idx)
		}
	}

	// Identical sets must marshal identically (ascending index order), so
	// every replica of a cohort receives byte-identical update frames.
	again, err := MarshalUpdate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, again) {
		t.Error("MarshalUpdate is not deterministic")
	}

	if _, err := MarshalUpdate(nil); err == nil {
		t.Error("empty update marshalled")
	}
	if _, err := MarshalUpdate(map[uint64][]byte{1 << 63: {1}}); err == nil {
		t.Error("implausible index marshalled")
	}
	if _, err := ParseUpdate([]byte{1}); err == nil {
		t.Error("truncated update parsed")
	}
	if _, err := ParseUpdate(append(payload, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
