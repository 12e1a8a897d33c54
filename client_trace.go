package impir

import (
	"context"
	"net/http"
	"time"

	"github.com/impir/impir/internal/obs"
)

// Tracer is the client-side tracing bundle for impir.Open: it opens one
// root span per logical operation (Retrieve, RetrieveBatch, Update) and
// collects the finished span trees in a ring buffer. Below the root,
// the fan-out layers attach children as the call spreads out — one per
// shard sub-query, one per party, one per replica attempt — so a single
// slow retrieval decomposes into which shard, party, replica, hedge
// attempt, queue wait, and engine phase cost the time.
//
// Sampling is decided at the head by SampleRate; an unsampled
// operation carries a nil span through the entire call path at zero
// allocation. With SlowThreshold set, every operation is traced and
// the ring additionally keeps unsampled ones that ran at least that
// long — the client-side mirror of the server's slow-query tracing.
// The servers learn only the head decision: an operation traced just
// for the threshold reaches them as unsampled and stays out of their
// rings.
//
//	tr := impir.NewTracer(impir.TracerConfig{SampleRate: 0.01})
//	store, _ := impir.Open(ctx, d, tr.Option())
//	http.Handle("/debug/traces", tr)
type Tracer struct {
	sampler obs.Sampler
	slow    time.Duration
	ring    *obs.TraceRing
}

// TraceSnapshot is one immutable span tree from the tracer's ring: the
// root carries the operation, children carry the fan-out (shard →
// party → attempt). See the README's span field glossary.
type TraceSnapshot = obs.SpanSnapshot

// TracerConfig configures a client Tracer.
type TracerConfig struct {
	// SampleRate is the head-sampling fraction: 0 samples nothing,
	// 1 samples everything.
	SampleRate float64
	// SlowThreshold, when positive, traces EVERY operation and keeps
	// unsampled ones in the ring when they run at least this long.
	// This trades the zero-allocation unsampled path for never missing
	// a slow operation.
	SlowThreshold time.Duration
}

// NewTracer builds a tracing bundle.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{
		sampler: obs.NewSampler(cfg.SampleRate),
		slow:    cfg.SlowThreshold,
		ring:    obs.NewTraceRing(obs.DefaultTraceRingSize),
	}
}

// Option returns the ClientOption that makes the tracer the store's;
// pass it to Open. One tracer may serve several stores.
func (t *Tracer) Option() ClientOption {
	return func(c *clientConfig) { c.tracer = t }
}

// begin opens the root span for one logical operation, or returns nil
// when the operation is not traced (always on a nil tracer). The
// no-tracing check runs before any ID is drawn, keeping the disabled
// path allocation free.
func (t *Tracer) begin(ctx context.Context, op string) *obs.Span {
	if t == nil || (!t.sampler.Enabled() && t.slow <= 0) {
		return nil
	}
	traceID := obs.NewTraceID()
	sampled := t.sampler.SampleTrace(traceID)
	if !sampled && t.slow <= 0 {
		return nil
	}
	span := obs.NewRootSpan(traceID, op, sampled)
	span.SetAttrBool("sampled", sampled)
	for _, a := range obs.OpAttrsFromContext(ctx) {
		span.SetAttr(a.Key, a.Value)
	}
	return span
}

// finish ends a root span begin opened and decides ring admission:
// sampled operations always, unsampled ones only over the slow
// threshold. A nil span (an untraced operation) is ignored.
func (t *Tracer) finish(span *obs.Span, err error) {
	if span == nil {
		return
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	if span.Sampled() || (t.slow > 0 && span.Duration() >= t.slow) {
		t.ring.Add(span)
	}
}

// RecentTraces snapshots the ring's span trees, newest first, keeping
// those at least min long (0 keeps all).
func (t *Tracer) RecentTraces(min time.Duration) []TraceSnapshot {
	spans := t.ring.Snapshot(min)
	out := make([]TraceSnapshot, 0, len(spans))
	for _, s := range spans {
		out = append(out, s.Snapshot())
	}
	return out
}

// ServeHTTP serves the ring as JSON — the same format as a server's
// /debug/traces endpoint, filterable with ?min_ms=N — so an
// application can mount the client's traces on its own mux.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t.ring.ServeHTTP(w, req)
}
