// Package pirproto defines the binary wire protocol between PIR clients
// and servers: length-prefixed frames carrying DPF keys, subresults, and
// server metadata. The protocol is deliberately minimal — one
// request/response in flight per connection — because PIR payloads are
// tiny: keys are O(λ log N), responses are one record.
//
// Small payloads do not make the wire free. On a 32 KiB database (the
// benchmark's point_small workload, 2-vCPU Xeon guest) the server's
// answer takes about 7.5 µs of a point query, while the transport's own
// time around it was 35 µs and the client's 46 µs when every frame cost
// two Writes and two reads; with one Write per frame and buffered reads
// they are about 18 µs and 33 µs. Per-frame syscalls and wake-ups, not
// server compute, dominate there — hence the one-Write framing below.
package pirproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"github.com/impir/impir/internal/bitvec"
	"github.com/impir/impir/internal/dpf"
)

// MsgType identifies a frame's payload.
type MsgType uint8

const (
	// MsgHello is the client's opening frame: [version u8].
	MsgHello MsgType = iota + 1
	// MsgServerInfo is the server's reply to Hello:
	// [party u8][domain u8][recordSize u32][numRecords u64][digest 32B].
	MsgServerInfo
	// MsgQuery carries one marshalled DPF key.
	MsgQuery
	// MsgQueryResp carries one subresult (recordSize bytes).
	MsgQueryResp
	// MsgBatchQuery carries [count u32] then count length-prefixed keys.
	MsgBatchQuery
	// MsgBatchResp carries [count u32] then count length-prefixed
	// subresults.
	MsgBatchResp
	// MsgError carries a UTF-8 error message.
	MsgError
	// MsgShareQuery carries one marshalled selector-share bit vector —
	// the naive n-server encoding of §2.3 (O(N) bits).
	MsgShareQuery
	// MsgShareBatchQuery carries [count u32] then count length-prefixed
	// marshalled selector shares; the server answers with MsgBatchResp.
	MsgShareBatchQuery
	// MsgBusy is the server's backpressure reply: its admission queue is
	// full and the request was rejected without an engine pass. The
	// payload is empty; the connection remains usable — clients may retry
	// after a backoff.
	MsgBusy
	// MsgUpdate carries a §3.3 bulk record update:
	// [count u32] then count entries of [index u64][len u32][record].
	// Updates are an operator/owner action, not a private query — the
	// server learns which records changed, by design. The server applies
	// the update atomically under its scheduler's quiescing and replies
	// MsgUpdateOK (or MsgError).
	MsgUpdate
	// MsgUpdateOK acknowledges an applied MsgUpdate. Empty payload.
	MsgUpdateOK
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgServerInfo:
		return "server-info"
	case MsgQuery:
		return "query"
	case MsgQueryResp:
		return "query-resp"
	case MsgBatchQuery:
		return "batch-query"
	case MsgBatchResp:
		return "batch-resp"
	case MsgError:
		return "error"
	case MsgShareQuery:
		return "share-query"
	case MsgShareBatchQuery:
		return "share-batch-query"
	case MsgBusy:
		return "busy"
	case MsgUpdate:
		return "update"
	case MsgUpdateOK:
		return "update-ok"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Label names a frame a server receives the way its metrics and trace
// spans do — "query", "batch", "share", "share_batch", "update", "hello"
// or "unknown" — and reports whether the frame is traced: the four query
// frames and updates may carry the trace context and open a
// server.<label> span.
func (t MsgType) Label() (label string, traced bool) {
	switch t {
	case MsgHello:
		return "hello", false
	case MsgQuery:
		return "query", true
	case MsgBatchQuery:
		return "batch", true
	case MsgShareQuery:
		return "share", true
	case MsgShareBatchQuery:
		return "share_batch", true
	case MsgUpdate:
		return "update", true
	}
	return "unknown", false
}

// AppendQuery appends the payload of query frame t carrying in: the one
// key of a MsgQuery, the one share of a MsgShareQuery, or the list of a
// MsgBatchQuery (keys) or MsgShareBatchQuery (shares). A batch that does
// not fit the frame is an error. ParseQuery inverts it.
func AppendQuery(dst []byte, t MsgType, in dpf.Batch) ([]byte, error) {
	keys, shares := len(in.Keys), len(in.Shares)
	switch {
	case t == MsgQuery && keys == 1 && shares == 0:
		return in.Keys[0].AppendBinary(dst)
	case t == MsgShareQuery && shares == 1 && keys == 0:
		return in.Shares[0].AppendBinary(dst)
	case t == MsgBatchQuery && shares == 0:
		return AppendBatchOf(dst, in.Keys, (*dpf.Key).AppendBinary)
	case t == MsgShareBatchQuery && keys == 0:
		return AppendBatchOf(dst, in.Shares, (*bitvec.Vector).AppendBinary)
	}
	return dst, fmt.Errorf("pirproto: %d keys and %d shares do not fit a %v frame", keys, shares, t)
}

// ParseQuery decodes the payload of query frame t into the batch it
// carries: one key or share for a single frame, a non-empty list for a
// batch frame. It is the server's one decoder of untrusted query bytes.
func ParseQuery(t MsgType, payload []byte) (dpf.Batch, error) {
	items := [][]byte{payload}
	switch t {
	case MsgQuery, MsgShareQuery:
	case MsgBatchQuery, MsgShareBatchQuery:
		var err error
		if items, err = ParseBatch(payload); err != nil {
			return dpf.Batch{}, err
		}
		if len(items) == 0 {
			return dpf.Batch{}, errors.New("empty batch")
		}
	default:
		return dpf.Batch{}, fmt.Errorf("unexpected frame %v", t)
	}
	var in dpf.Batch
	var err error
	if t == MsgQuery || t == MsgBatchQuery {
		in.Keys, err = parseEach[dpf.Key](items, "key")
	} else {
		in.Shares, err = parseEach[bitvec.Vector](items, "share")
	}
	if err != nil {
		return dpf.Batch{}, err
	}
	return in, nil
}

// parseEach decodes every item into its own T, all of them in one
// allocation.
func parseEach[T any, P interface {
	*T
	UnmarshalBinary([]byte) error
}](items [][]byte, what string) ([]*T, error) {
	vals := make([]T, len(items))
	out := make([]*T, len(items))
	for i, it := range items {
		if err := P(&vals[i]).UnmarshalBinary(it); err != nil {
			return nil, fmt.Errorf("bad %s %d: %w", what, i, err)
		}
		out[i] = &vals[i]
	}
	return out, nil
}

// Version is the protocol version a client's Hello frame carries; a
// server answers any other with MsgError, so a connection carries one
// framing and a client can write frames back to back and match replies
// in order. It permits the optional trace-context extension
// (FlagTraceContext) on query and update frames.
const Version = 2

// MaxFrameSize bounds a frame's payload; larger frames are rejected
// before allocation. Batch frames of thousands of keys stay well below
// this.
const MaxFrameSize = 64 << 20

var (
	magic = [2]byte{'I', 'P'}

	// ErrFrameTooLarge indicates a frame above MaxFrameSize.
	ErrFrameTooLarge = errors.New("pirproto: frame exceeds size limit")
	// ErrBadMagic indicates a stream that is not speaking this protocol.
	ErrBadMagic = errors.New("pirproto: bad frame magic")
)

// Frame header: magic(2) type(1) flags(1) length(4, LE). The flags
// byte marks optional extensions; a frame without any has it zero.
//
// A frame leaves in one Write: BeginFrame reserves the header, the
// payload is encoded in place after it, and EndFrame fills in the
// length. Writing the header and the payload separately costs every hop
// an extra segment and syscall, and often an extra wake-up of the
// reading goroutine — on a small database more than the server's scan.
const headerSize = 8

// FlagTraceContext marks a query/batch or update frame whose payload is
// prefixed with a TraceContext (traceContextSize bytes).
const FlagTraceContext byte = 0x01

// maxUpdateEntries bounds a MsgUpdate frame's entry count, enforced
// symmetrically by MarshalUpdate and ParseUpdate.
const maxUpdateEntries = 1 << 20

// MaxPooledFrame is the largest frame buffer worth keeping for reuse;
// a buffer grown past it by a rare large frame is dropped rather than
// held by an idle connection or pool.
const MaxPooledFrame = 64 << 10

// BeginFrame appends a frame header of type t with the given flags to
// dst, its length left open. The caller appends the payload after it
// and closes the frame with EndFrame.
func BeginFrame(dst []byte, t MsgType, flags byte) []byte {
	return append(dst, magic[0], magic[1], byte(t), flags, 0, 0, 0, 0)
}

// EndFrame fills in the payload length of a frame begun by BeginFrame
// at frame[0].
func EndFrame(frame []byte) error {
	n := len(frame) - headerSize
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame[4:], uint32(n))
	return nil
}

// framePool recycles WriteFrameFlags' frame buffers. It holds pointers
// so that Get and Put do not allocate a slice header.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one frame with no flags.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	return WriteFrameFlags(w, t, 0, payload)
}

// WriteFrameFlags writes one frame with the given header flags, header
// and payload in one Write through a pooled buffer.
func WriteFrameFlags(w io.Writer, t MsgType, flags byte, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	bp := framePool.Get().(*[]byte)
	frame := append(BeginFrame((*bp)[:0], t, flags), payload...)
	EndFrame(frame) // cannot fail: the payload size was checked above
	_, err := w.Write(frame)
	if cap(frame) <= MaxPooledFrame {
		*bp = frame[:0]
		framePool.Put(bp)
	}
	if err != nil {
		return fmt.Errorf("pirproto: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame, validating magic and size, discarding the
// header flags.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	t, _, payload, err := ReadFrameFlags(r)
	return t, payload, err
}

// ReadFrameFlags reads one frame, returning its header flags. Pass a
// *bufio.Reader that owns the stream to read header and payload without
// a syscall each. A payload above MaxPooledFrame is read in chunks that
// grow with what has arrived, so a peer that declares a large frame and
// stalls holds at most twice what it actually sent — never the declared
// size.
func ReadFrameFlags(r io.Reader) (MsgType, byte, []byte, error) {
	var hdr [headerSize]byte
	if err := readHeader(r, &hdr); err != nil {
		return 0, 0, nil, err
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return 0, 0, nil, ErrBadMagic
	}
	size := int(binary.LittleEndian.Uint32(hdr[4:]))
	if size > MaxFrameSize {
		return 0, 0, nil, ErrFrameTooLarge
	}
	payload, err := readPayload(r, size)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("pirproto: read payload: %w", err)
	}
	return MsgType(hdr[2]), hdr[3], payload, nil
}

// readHeader fills hdr from r. A *bufio.Reader is read through Peek, so
// on that path no buffer escapes through the io.Reader interface.
func readHeader(r io.Reader, hdr *[headerSize]byte) error {
	br, ok := r.(*bufio.Reader)
	if !ok {
		var b [headerSize]byte
		_, err := io.ReadFull(r, b[:])
		*hdr = b
		return err
	}
	b, err := br.Peek(headerSize)
	if err != nil {
		if len(b) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	copy(hdr[:], b)
	br.Discard(headerSize)
	return nil
}

// readPayload reads a size-byte payload. Above MaxPooledFrame it
// allocates by arrival: the buffer starts at MaxPooledFrame and doubles
// only once it is full of received bytes.
func readPayload(r io.Reader, size int) ([]byte, error) {
	if size <= MaxPooledFrame {
		payload := make([]byte, size)
		_, err := io.ReadFull(r, payload)
		return payload, err
	}
	payload := make([]byte, 0, MaxPooledFrame)
	for len(payload) < size {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(2*len(payload), size))
			copy(grown, payload)
			payload = grown
		}
		n, err := io.ReadFull(r, payload[len(payload):cap(payload)])
		payload = payload[:len(payload)+n]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// TraceContext is the optional per-frame tracing extension: the span ID
// the client minted for this one server's view of one attempt. Each
// party receives an independently random ID — the context deliberately
// carries no shared trace ID, so two colluding servers cannot link
// their halves of one client operation through it.
type TraceContext struct {
	// SpanID is the party-local span ID (little-endian on the wire).
	SpanID uint64
	// Sampled asks the server to record the trace in its ring buffer
	// even below its own sampling rate.
	Sampled bool
}

// traceContextSize is the extension prefix length: span ID (8, LE) +
// sampled flag (1).
const traceContextSize = 9

// AppendTraceContext appends the encoded trace context to dst: the
// payload prefix of a frame written with FlagTraceContext.
func AppendTraceContext(dst []byte, tc TraceContext) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tc.SpanID)
	var sampled byte
	if tc.Sampled {
		sampled = 1
	}
	return append(dst, sampled)
}

// SplitTraceContext strips the trace-context prefix from a frame
// payload carrying FlagTraceContext, returning the context and the
// inner payload.
func SplitTraceContext(b []byte) (TraceContext, []byte, error) {
	if len(b) < traceContextSize {
		return TraceContext{}, nil, errors.New("pirproto: frame too short for trace context")
	}
	tc := TraceContext{
		SpanID:  binary.LittleEndian.Uint64(b),
		Sampled: b[8] != 0,
	}
	return tc, b[traceContextSize:], nil
}

// ServerInfo describes a PIR server's database to clients.
type ServerInfo struct {
	Party      uint8
	Domain     uint8
	RecordSize uint32
	NumRecords uint64
	Digest     [32]byte
}

const serverInfoSize = 1 + 1 + 4 + 8 + 32

// Marshal encodes the info payload.
func (si ServerInfo) Marshal() []byte {
	out := make([]byte, serverInfoSize)
	out[0] = si.Party
	out[1] = si.Domain
	binary.LittleEndian.PutUint32(out[2:], si.RecordSize)
	binary.LittleEndian.PutUint64(out[6:], si.NumRecords)
	copy(out[14:], si.Digest[:])
	return out
}

// ParseServerInfo decodes the info payload.
func ParseServerInfo(b []byte) (ServerInfo, error) {
	if len(b) != serverInfoSize {
		return ServerInfo{}, fmt.Errorf("pirproto: server info is %d bytes, want %d", len(b), serverInfoSize)
	}
	var si ServerInfo
	si.Party = b[0]
	si.Domain = b[1]
	si.RecordSize = binary.LittleEndian.Uint32(b[2:])
	si.NumRecords = binary.LittleEndian.Uint64(b[6:])
	copy(si.Digest[:], b[14:])
	return si, nil
}

// MarshalBatch encodes count length-prefixed byte strings.
func MarshalBatch(items [][]byte) ([]byte, error) {
	total := 4
	for _, it := range items {
		total += 4 + len(it)
	}
	if total > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	return AppendBatch(make([]byte, 0, total), items)
}

// AppendBatch appends the MarshalBatch encoding of items to dst, so a
// batch can be encoded straight into the frame that carries it.
func AppendBatch(dst []byte, items [][]byte) ([]byte, error) {
	return AppendBatchOf(dst, items, appendBytes)
}

func appendBytes(it, dst []byte) ([]byte, error) { return append(dst, it...), nil }

// AppendBatchOf appends a batch whose items are encoded in place by
// enc — for instance (*dpf.Key).AppendBinary — in the MarshalBatch
// layout: [count u32] then count length-prefixed items.
func AppendBatchOf[T any](dst []byte, items []T, enc func(T, []byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		lenAt := len(dst)
		var err error
		dst, err = enc(it, append(dst, 0, 0, 0, 0))
		if err != nil {
			return dst[:start], err
		}
		if len(dst)-start > MaxFrameSize {
			return dst[:start], ErrFrameTooLarge
		}
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst, nil
}

// ParseBatch decodes a MarshalBatch payload.
func ParseBatch(b []byte) ([][]byte, error) {
	if len(b) < 4 {
		return nil, errors.New("pirproto: batch payload too short")
	}
	count := binary.LittleEndian.Uint32(b)
	if count > 1<<20 {
		return nil, fmt.Errorf("pirproto: implausible batch count %d", count)
	}
	b = b[4:]
	items := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("pirproto: batch item %d: missing length", i)
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("pirproto: batch item %d: truncated (%d of %d bytes)", i, len(b), n)
		}
		items = append(items, b[:n:n])
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("pirproto: %d trailing bytes after batch", len(b))
	}
	return items, nil
}

// MarshalUpdate encodes a bulk record update for a MsgUpdate frame.
// Entries are emitted in ascending index order so identical update sets
// marshal identically on every replica.
func MarshalUpdate(updates map[uint64][]byte) ([]byte, error) {
	if len(updates) == 0 {
		return nil, errors.New("pirproto: empty update set")
	}
	if len(updates) > maxUpdateEntries {
		// Mirror ParseUpdate's cap so an oversized update fails here,
		// before any bytes ship, instead of server-side after upload.
		return nil, fmt.Errorf("pirproto: update set of %d entries exceeds the %d-entry limit",
			len(updates), maxUpdateEntries)
	}
	total := 4
	indices := make([]uint64, 0, len(updates))
	for idx, rec := range updates {
		if idx > 1<<62 {
			// Mirror ParseUpdate's plausibility bound for the same reason.
			return nil, fmt.Errorf("pirproto: implausible update index %d", idx)
		}
		indices = append(indices, idx)
		total += 12 + len(rec)
	}
	if total > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	slices.Sort(indices)
	out := make([]byte, 0, total)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(updates)))
	out = append(out, tmp[:4]...)
	for _, idx := range indices {
		rec := updates[idx]
		binary.LittleEndian.PutUint64(tmp[:], idx)
		out = append(out, tmp[:]...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(rec)))
		out = append(out, tmp[:4]...)
		out = append(out, rec...)
	}
	return out, nil
}

// ParseUpdate decodes a MarshalUpdate payload.
func ParseUpdate(b []byte) (map[uint64][]byte, error) {
	if len(b) < 4 {
		return nil, errors.New("pirproto: update payload too short")
	}
	count := binary.LittleEndian.Uint32(b)
	if count == 0 {
		return nil, errors.New("pirproto: empty update set")
	}
	if count > maxUpdateEntries {
		return nil, fmt.Errorf("pirproto: implausible update count %d", count)
	}
	b = b[4:]
	// Size the map from the bytes actually present, not the declared
	// count — a tiny frame claiming 2^20 entries must not allocate for
	// them before the per-entry checks reject it.
	hint := count
	if max := uint32(len(b) / 12); hint > max {
		hint = max
	}
	updates := make(map[uint64][]byte, hint)
	for i := uint32(0); i < count; i++ {
		if len(b) < 12 {
			return nil, fmt.Errorf("pirproto: update entry %d: missing header", i)
		}
		idx := binary.LittleEndian.Uint64(b)
		if idx > 1<<62 {
			return nil, fmt.Errorf("pirproto: update entry %d: implausible index %d", i, idx)
		}
		n := binary.LittleEndian.Uint32(b[8:])
		b = b[12:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("pirproto: update entry %d: truncated (%d of %d bytes)", i, len(b), n)
		}
		if _, dup := updates[idx]; dup {
			return nil, fmt.Errorf("pirproto: duplicate update index %d", idx)
		}
		updates[idx] = b[:n:n]
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("pirproto: %d trailing bytes after update", len(b))
	}
	return updates, nil
}
