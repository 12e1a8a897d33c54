package pirproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// writeCounter records the size of every Write it receives.
type writeCounter struct {
	bytes.Buffer
	writes []int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, len(b))
	return w.Buffer.Write(b)
}

// TestWriteFrameIsOneWrite: header and payload leave in one Write, for
// an empty frame, a flagged frame, and a frame too large to pool.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, size := range []int{0, 9, MaxPooledFrame + 1} {
		var w writeCounter
		payload := bytes.Repeat([]byte{0xA5}, size)
		if err := WriteFrameFlags(&w, MsgQuery, FlagTraceContext, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 || w.writes[0] != headerSize+size {
			t.Fatalf("%d-byte payload: writes %v, want one of %d bytes", size, w.writes, headerSize+size)
		}
		typ, flags, got, err := ReadFrameFlags(&w.Buffer)
		if err != nil || typ != MsgQuery || flags != FlagTraceContext || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: read back type=%v flags=%#x err=%v", size, typ, flags, err)
		}
	}
}

// TestBeginEndFrameMatchesWriteFrame: a frame built in place is the
// same bytes WriteFrameFlags sends.
func TestBeginEndFrameMatchesWriteFrame(t *testing.T) {
	items := [][]byte{[]byte("key0"), {}, []byte("key-two")}
	tc := TraceContext{SpanID: 0x0102030405060708, Sampled: true}

	frame := AppendTraceContext(BeginFrame(nil, MsgBatchQuery, FlagTraceContext), tc)
	frame, err := AppendBatch(frame, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := EndFrame(frame); err != nil {
		t.Fatal(err)
	}

	batch, err := MarshalBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	prefix := AppendTraceContext(nil, tc)
	var want bytes.Buffer
	if err := WriteFrameFlags(&want, MsgBatchQuery, FlagTraceContext, append(prefix, batch...)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want.Bytes()) {
		t.Fatalf("in-place frame %x\n != WriteFrameFlags %x", frame, want.Bytes())
	}
}

// TestFrameAllocs pins pirproto.allocs_per_frame: one WriteFrame and
// one ReadFrame through a bytes.Buffer allocate at most twice (the
// frame buffer is pooled; the header and payload are read into fresh
// memory the caller owns). Through a *bufio.Reader the header costs
// nothing.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	payload := bytes.Repeat([]byte{1}, 101)
	var buf bytes.Buffer
	frame := func() {
		buf.Reset()
		if err := WriteFrame(&buf, MsgQuery, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrame(&buf); err != nil {
			t.Fatal(err)
		}
	}
	frame()
	if got := testing.AllocsPerRun(200, frame); got > 2 {
		t.Errorf("WriteFrame+ReadFrame: %v allocs, want ≤ 2", got)
	}

	br := bufio.NewReader(&buf)
	buffered := func() {
		buf.Reset()
		if err := WriteFrame(&buf, MsgQuery, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrame(br); err != nil {
			t.Fatal(err)
		}
	}
	buffered()
	if got := testing.AllocsPerRun(200, buffered); got > 1 {
		t.Errorf("WriteFrame+ReadFrame through bufio: %v allocs, want ≤ 1", got)
	}
}

// TestReadFrameAllocatesByArrival: a peer that declares a maximal frame,
// sends 1 KiB and stops must not cost the reader the declared size.
func TestReadFrameAllocatesByArrival(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32([]byte{'I', 'P', byte(MsgQuery), 0}, MaxFrameSize)
	stream := append(hdr, make([]byte, 1<<10)...)

	for name, r := range map[string]func() io.Reader{
		"plain":    func() io.Reader { return bytes.NewReader(stream) },
		"buffered": func() io.Reader { return bufio.NewReader(bytes.NewReader(stream)) },
	} {
		r := r()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadFrame(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: truncated maximal frame: err = %v, want unexpected EOF", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: a 1 KiB prefix of a %d-byte frame allocated %d bytes, want < 1 MiB", name, MaxFrameSize, got)
		}
	}

	// A large frame that does arrive still round-trips.
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgUpdate, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil || typ != MsgUpdate || !bytes.Equal(got, payload) {
		t.Fatalf("1 MiB frame: type=%v err=%v equal=%v", typ, err, bytes.Equal(got, payload))
	}
}
