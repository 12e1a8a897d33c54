package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Distributed tracing, client and server halves.
//
// A client operation (Retrieve, RetrieveBatch, Get) opens a root Span
// and hangs child spans off it as the call fans out: one per shard
// sub-query, one per party, one per replica attempt. Each replica
// attempt's span ID doubles as the wire trace context sent to that one
// server — and ONLY that server: no shared trace ID ever crosses a
// party boundary, so colluding servers gain zero linkability beyond
// the timing they already observe. The server opens its root span
// under the propagated span ID and records the finished tree into a
// TraceRing served as JSON from the admin endpoint; the client keeps
// its own ring of whole span trees. Linking a client attempt span to
// the server-side trace it caused is done by the party-local span ID.

// TraceID identifies one logical client operation. It never leaves the
// client process — only per-party span IDs go on the wire.
type TraceID [16]byte

// SpanID identifies one span. The zero SpanID means "none".
type SpanID [8]byte

// NewTraceID draws a random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	fillRand(id[:])
	return id
}

// NewSpanID draws a random, non-zero span ID. IDs are drawn
// independently from the process CSPRNG: two IDs reveal nothing about
// each other, which is what lets one client operation hand every party
// a fresh ID without creating cross-party linkability.
func NewSpanID() SpanID {
	var id SpanID
	fillRand(id[:])
	if id == (SpanID{}) {
		id[7] = 1
	}
	return id
}

// fillRand fills b from crypto/rand, falling back to a time-derived
// pattern if the system randomness source is unreadable (IDs must be
// unpredictable for privacy, but a broken entropy source should degrade
// tracing, not crash the query path).
func fillRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		now := uint64(time.Now().UnixNano())
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
		}
	}
}

// String renders the ID as lowercase hex.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as lowercase hex.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports the "none" span ID.
func (id SpanID) IsZero() bool { return id == (SpanID{}) }

// Uint64 returns the ID's little-endian integer value — the form that
// travels in the wire trace context.
func (id SpanID) Uint64() uint64 { return binary.LittleEndian.Uint64(id[:]) }

// SpanIDFromUint64 is Uint64's inverse.
func SpanIDFromUint64(v uint64) SpanID {
	var id SpanID
	binary.LittleEndian.PutUint64(id[:], v)
	return id
}

// Sampler is a deterministic head sampler: whether an ID is sampled is
// a pure function of the ID, so the decision is reproducible and
// uniformly distributed because IDs are. The zero Sampler samples
// nothing.
type Sampler struct {
	all       bool
	threshold uint64 // sample when the ID's integer value < threshold
}

// NewSampler builds a sampler keeping the given fraction of IDs:
// rate ≤ 0 samples nothing, rate ≥ 1 samples everything.
func NewSampler(rate float64) Sampler {
	if rate >= 1 {
		return Sampler{all: true}
	}
	if rate <= 0 || math.IsNaN(rate) {
		return Sampler{}
	}
	t := math.Ldexp(rate, 64) // rate × 2^64
	if t >= math.Ldexp(1, 64) {
		return Sampler{all: true}
	}
	return Sampler{threshold: uint64(t)}
}

// Enabled reports whether the sampler can ever sample.
func (s Sampler) Enabled() bool { return s.all || s.threshold > 0 }

func (s Sampler) sample(x uint64) bool {
	if s.all {
		return true
	}
	return x < s.threshold
}

// SampleTrace decides the head-sampling of a client operation.
func (s Sampler) SampleTrace(id TraceID) bool {
	return s.sample(binary.LittleEndian.Uint64(id[8:]))
}

// SampleSpan decides the head-sampling of a server-local span.
func (s Sampler) SampleSpan(id SpanID) bool { return s.sample(id.Uint64()) }

// Attr is one span attribute.
type Attr struct{ Key, Value string }

// Span is one timed node of a trace tree. All methods are safe on a
// nil receiver and do nothing — an unsampled operation carries a nil
// span through the whole call path at zero allocation — and safe for
// concurrent use: fan-out goroutines attach children and attributes to
// a shared parent, and a hedge loser may still be ending its span
// while the finished tree is being serialised from the ring.
type Span struct {
	mu       sync.Mutex
	traceID  TraceID // zero for server-side (party-local) spans
	id       SpanID
	sampled  bool // the head-sampling decision, fixed at the root
	name     string
	start    time.Time
	duration time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// NewRootSpan opens the root span of a client operation, started now.
// sampled records whether the head sampler picked the operation, as
// opposed to tracing it only in case it turns out slow.
func NewRootSpan(traceID TraceID, name string, sampled bool) *Span {
	return &Span{traceID: traceID, id: NewSpanID(), sampled: sampled, name: name, start: time.Now()}
}

// NewServerSpan opens a party-local root span (no trace ID) under a
// given ID — the one propagated on the wire, when there was one —
// started at start.
func NewServerSpan(id SpanID, name string, start time.Time, sampled bool) *Span {
	return &Span{id: id, sampled: sampled, name: name, start: start}
}

// StartChild opens a child span with a fresh random ID, started now.
// On a nil receiver it returns nil, so an unsampled path needs no
// checks anywhere below the root.
func (s *Span) StartChild(name string) *Span {
	return s.addChild(name, time.Now())
}

// AddChild records an already finished child that started at start
// and ran for d. On a nil receiver it returns nil.
func (s *Span) AddChild(name string, start time.Time, d time.Duration) *Span {
	c := s.addChild(name, start)
	if c != nil {
		c.endAt(d)
	}
	return c
}

func (s *Span) addChild(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{traceID: s.traceID, id: NewSpanID(), sampled: s.sampled, name: name, start: start}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's duration. Ending twice keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.duration = time.Since(s.start)
	}
	s.mu.Unlock()
}

// endAt closes a span with an explicit duration.
func (s *Span) endAt(d time.Duration) {
	s.mu.Lock()
	s.ended = true
	s.duration = d
	s.mu.Unlock()
}

// SetAttr sets (or overwrites) one attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// SetAttrInt sets an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// SetAttrBool sets a boolean attribute.
func (s *Span) SetAttrBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatBool(v))
}

// ID returns the span's ID (zero on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Sampled reports whether the operation's head sampler picked it
// (false on a nil span). Children inherit the root's decision.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// Duration returns the stamped duration (0 while the span is open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duration
}

// SpanSnapshot is an immutable, stdlib-typed copy of a span tree, for
// in-process consumers (tests, the load generator's artifact).
type SpanSnapshot struct {
	TraceID  string            `json:"trace_id,omitempty"`
	SpanID   string            `json:"span_id"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	DurUS    int64             `json:"dur_us"`
	Open     bool              `json:"open,omitempty"` // still running when snapshotted
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanSnapshot    `json:"children,omitempty"`
}

// Attr returns one attribute's value.
func (sn SpanSnapshot) Attr(key string) (string, bool) {
	v, ok := sn.Attrs[key]
	return v, ok
}

// Snapshot copies the span tree. Safe while descendants are still
// running (they snapshot as Open).
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	sn := SpanSnapshot{
		SpanID: s.id.String(),
		Name:   s.name,
		Start:  s.start,
		DurUS:  s.duration.Microseconds(),
		Open:   !s.ended,
	}
	if s.traceID != (TraceID{}) {
		sn.TraceID = s.traceID.String()
	}
	if len(s.attrs) > 0 {
		sn.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			sn.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		sn.Children = append(sn.Children, c.Snapshot())
	}
	return sn
}

// MarshalJSON serialises the span tree, locking each node as it copies
// it — the ring may serve a tree whose hedge-loser leaves are still
// being ended.
func (s *Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Snapshot())
}

// DefaultTraceRingSize is the capacity of every server and client
// trace ring.
const DefaultTraceRingSize = 256

// TraceRing is a lock-protected ring buffer of recently finished trace
// roots, newest evicting oldest. It is an http.Handler serving the ring
// as a JSON array (newest first); the query parameter min_ms filters to
// traces at least that many milliseconds long. Its buffer is allocated
// by the first Add, so a ring that never keeps a trace costs no slots.
type TraceRing struct {
	mu    sync.Mutex
	size  int
	buf   []*Span // nil until the first Add
	next  int
	total uint64
}

// NewTraceRing builds a ring holding up to capacity traces
// (0 or negative means DefaultTraceRingSize).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRingSize
	}
	return &TraceRing{size: capacity}
}

// Add records one finished trace, evicting the oldest when full.
// Nil rings and nil spans are no-ops.
func (r *TraceRing) Add(s *Span) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	if r.buf == nil {
		r.buf = make([]*Span, r.size)
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Len reports how many traces the ring currently holds.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	return n
}

// Snapshot returns the held traces newest-first, keeping only those
// with a stamped duration of at least min.
func (r *TraceRing) Snapshot(min time.Duration) []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]*Span, 0, n)
	for i := 0; i < n; i++ {
		s := r.buf[((r.next-1-i)%len(r.buf)+len(r.buf))%len(r.buf)]
		out = append(out, s)
	}
	r.mu.Unlock()
	if min > 0 {
		kept := out[:0]
		for _, s := range out {
			if s.Duration() >= min {
				kept = append(kept, s)
			}
		}
		out = kept
	}
	return out
}

// ServeHTTP serves the ring as JSON: GET /debug/traces?min_ms=N.
func (r *TraceRing) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var min time.Duration
	if v := req.URL.Query().Get("min_ms"); v != "" {
		// NaN fails the range test; past MaxInt64 ns the conversion
		// would wrap to a negative filter that keeps every trace.
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms >= 0 && ms*float64(time.Millisecond) < math.MaxInt64) {
			http.Error(w, "bad min_ms", http.StatusBadRequest)
			return
		}
		min = time.Duration(ms * float64(time.Millisecond))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	spans := r.Snapshot(min)
	if spans == nil {
		spans = []*Span{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(spans)
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying s for layers below to attach
// children to. A nil span returns ctx unchanged (no allocation).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

type opAttrsKey struct{}

// ContextWithOpAttrs returns ctx carrying attributes for the NEXT root
// span opened below — the seam that lets a layer sitting above the
// store (the keyword client annotating its probe counts) label an
// operation whose root span the store opens when its call begins.
func ContextWithOpAttrs(ctx context.Context, attrs ...Attr) context.Context {
	if len(attrs) == 0 {
		return ctx
	}
	if prev := OpAttrsFromContext(ctx); len(prev) > 0 {
		attrs = append(append([]Attr(nil), prev...), attrs...)
	}
	return context.WithValue(ctx, opAttrsKey{}, attrs)
}

// OpAttrsFromContext returns the pending root-span attributes, or nil.
func OpAttrsFromContext(ctx context.Context) []Attr {
	a, _ := ctx.Value(opAttrsKey{}).([]Attr)
	return a
}
