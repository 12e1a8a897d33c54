package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeSnapshot(t *testing.T) {
	root := NewRootSpan(NewTraceID(), "client.retrieve", true)
	root.SetAttr("op", "retrieve")
	root.SetAttrInt("batch_size", 4)
	root.SetAttrBool("sampled", true)

	party := root.StartChild("party")
	att := party.StartChild("attempt")
	att.End()
	party.End()
	root.End()

	sn := root.Snapshot()
	if sn.Name != "client.retrieve" || sn.TraceID == "" || sn.SpanID == "" {
		t.Fatalf("root snapshot missing identity: %+v", sn)
	}
	if sn.Open {
		t.Fatalf("ended root snapshots as open")
	}
	if v, _ := sn.Attr("batch_size"); v != "4" {
		t.Fatalf("batch_size attr = %q, want 4", v)
	}
	if len(sn.Children) != 1 || len(sn.Children[0].Children) != 1 {
		t.Fatalf("tree shape wrong: %+v", sn)
	}
	child := sn.Children[0]
	if child.TraceID != sn.TraceID {
		t.Fatalf("child trace ID %q != root %q", child.TraceID, sn.TraceID)
	}
	if child.SpanID == sn.SpanID {
		t.Fatalf("child reused root span ID %q", child.SpanID)
	}
	if !att.Sampled() {
		t.Fatal("grandchild lost the root's sampling decision")
	}
	if _, err := json.Marshal(root); err != nil {
		t.Fatalf("marshal span tree: %v", err)
	}
}

// TestServerSpanRecordsFinishedChildren: a server root carries the
// given ID and no trace ID, and AddChild records stages that already
// ran, inheriting the root's sampling decision.
func TestServerSpanRecordsFinishedChildren(t *testing.T) {
	id := NewSpanID()
	start := time.Now()
	root := NewServerSpan(id, "server.query", start, false)
	q := root.AddChild("queue", start, 2*time.Millisecond)
	root.End()
	if q.Sampled() || root.Sampled() {
		t.Fatal("unsampled server span reports sampled")
	}
	sn := root.Snapshot()
	if sn.SpanID != id.String() || sn.TraceID != "" || !sn.Start.Equal(start) {
		t.Fatalf("server root identity = %+v, want span %s from %v and no trace ID", sn, id, start)
	}
	if len(sn.Children) != 1 || sn.Children[0].Open || sn.Children[0].DurUS != 2000 {
		t.Fatalf("recorded child = %+v, want one closed 2ms queue span", sn.Children)
	}
	if !NewServerSpan(id, "server.query", start, true).AddChild("engine", start, 0).Sampled() {
		t.Fatal("child of a sampled server span reports unsampled")
	}
}

func TestSpanEndKeepsFirstStamp(t *testing.T) {
	s := NewRootSpan(NewTraceID(), "op", true)
	s.endAt(5 * time.Millisecond)
	s.End() // second end must not re-stamp
	if d := s.Duration(); d != 5*time.Millisecond {
		t.Fatalf("duration after double end = %v, want 5ms", d)
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	if c := s.StartChild("child"); c != nil {
		t.Fatalf("nil.StartChild returned %v, want nil", c)
	}
	if c := s.AddChild("child", time.Now(), time.Second); c != nil {
		t.Fatalf("nil.AddChild returned %v, want nil", c)
	}
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.SetAttrBool("b", true)
	s.End()
	if !s.ID().IsZero() || s.Duration() != 0 || s.Sampled() {
		t.Fatalf("nil span leaked identity or duration")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatalf("ContextWithSpan(nil) allocated a new context")
	}
	if got := SpanFromContext(context.Background()); got != nil {
		t.Fatalf("SpanFromContext on empty ctx = %v, want nil", got)
	}
}

func TestNilPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		var s *Span
		c := s.StartChild("child")
		c.SetAttr("k", "v")
		c.End()
		_ = ContextWithSpan(ctx, nil)
		_ = SpanFromContext(ctx)
	})
	if allocs != 0 {
		t.Fatalf("nil-span path allocates %.1f/op, want 0", allocs)
	}
}

func TestSamplerRateZeroAndOne(t *testing.T) {
	var never Sampler // zero value
	always := NewSampler(1)
	if never.Enabled() || NewSampler(0).Enabled() || NewSampler(-1).Enabled() {
		t.Fatalf("rate ≤ 0 sampler reports Enabled")
	}
	if !always.Enabled() || !NewSampler(2).Enabled() {
		t.Fatalf("rate ≥ 1 sampler reports disabled")
	}
	for i := 0; i < 256; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if never.SampleTrace(tid) || never.SampleSpan(sid) {
			t.Fatalf("rate-0 sampler sampled an ID")
		}
		if !always.SampleTrace(tid) || !always.SampleSpan(sid) {
			t.Fatalf("rate-1 sampler dropped an ID")
		}
	}
}

func TestSamplerFractionalDeterministic(t *testing.T) {
	s := NewSampler(0.25)
	// Deterministic: the decision is a pure function of the ID.
	for i := 0; i < 64; i++ {
		id := NewSpanID()
		first := s.SampleSpan(id)
		for rep := 0; rep < 4; rep++ {
			if s.SampleSpan(id) != first {
				t.Fatalf("sampling decision for %s flapped", id)
			}
		}
	}
	// Uniform over evenly spaced IDs: exactly the low quarter of the
	// uint64 space is under the threshold.
	const n = 1 << 12
	sampled := 0
	for i := uint64(0); i < n; i++ {
		if s.SampleSpan(SpanIDFromUint64(i << 52)) { // spread across the space
			sampled++
		}
	}
	if got, want := sampled, n/4; got != want {
		t.Fatalf("rate 0.25 sampled %d of %d evenly spaced IDs, want %d", got, n, want)
	}
}

func TestTraceRingEvictionOrder(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 6; i++ {
		s := NewRootSpan(NewTraceID(), "op"+strconv.Itoa(i), true)
		s.End()
		r.Add(s)
	}
	if r.Len() != 4 {
		t.Fatalf("ring holds %d, want 4", r.Len())
	}
	got := r.Snapshot(0)
	want := []string{"op5", "op4", "op3", "op2"} // newest first, oldest evicted
	if len(got) != len(want) {
		t.Fatalf("snapshot holds %d spans, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Snapshot().Name != want[i] {
			t.Fatalf("snapshot[%d] = %s, want %s", i, s.Snapshot().Name, want[i])
		}
	}
}

func TestTraceRingMinFilter(t *testing.T) {
	r := NewTraceRing(8)
	for i, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
		s := NewRootSpan(NewTraceID(), "op"+strconv.Itoa(i), true)
		s.endAt(d)
		r.Add(s)
	}
	got := r.Snapshot(3 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("min filter kept %d spans, want 2", len(got))
	}
	if got[0].Snapshot().Name != "op2" || got[1].Snapshot().Name != "op1" {
		t.Fatalf("min filter kept wrong spans: %s, %s", got[0].Snapshot().Name, got[1].Snapshot().Name)
	}
}

func TestTraceRingServeHTTP(t *testing.T) {
	r := NewTraceRing(8)

	// Empty ring serves an empty array, not null.
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("empty ring: HTTP %d", rec.Code)
	}
	var spans []SpanSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil || spans == nil || len(spans) != 0 {
		t.Fatalf("empty ring body %q: err=%v parsed=%v", rec.Body.String(), err, spans)
	}

	slow := NewRootSpan(NewTraceID(), "slow", true)
	slow.endAt(20 * time.Millisecond)
	fast := NewRootSpan(NewTraceID(), "fast", true)
	fast.endAt(time.Millisecond)
	r.Add(slow)
	r.Add(fast)

	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms=10", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("parse filtered body: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != "slow" {
		t.Fatalf("min_ms=10 served %+v, want just the slow trace", spans)
	}
	if spans[0].DurUS != 20_000 {
		t.Fatalf("dur_us = %d, want 20000", spans[0].DurUS)
	}

	// 9e12 ms still fits a time.Duration and keeps nothing; past
	// MaxInt64 ns the conversion would wrap to a filter keeping all.
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms=9e12", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil || rec.Code != 200 || len(spans) != 0 {
		t.Fatalf("min_ms=9e12: HTTP %d, %d traces, err %v; want 200 and none", rec.Code, len(spans), err)
	}
	for _, v := range []string{"bogus", "-1", "NaN", "Inf", "1e300", "1e13"} {
		rec = httptest.NewRecorder()
		r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_ms="+v, nil))
		if rec.Code != 400 {
			t.Fatalf("min_ms=%s: HTTP %d, want 400", v, rec.Code)
		}
	}
}

// TestTraceRingConcurrent hammers the ring from writer goroutines while
// readers serve it over HTTP — the shape the admin endpoint sees in
// production. Run with -race; the assertions are secondary to the
// detector.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16)
	const writers, readers, perWriter = 4, 4, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := NewRootSpan(NewTraceID(), fmt.Sprintf("w%d.%d", w, i), true)
				c := s.StartChild("leaf")
				s.End()
				r.Add(s)
				// A hedge loser may end its child AFTER the tree is in
				// the ring and being serialised.
				c.SetAttr("outcome", "lost")
				c.End()
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
				var spans []SpanSnapshot
				if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
					t.Errorf("concurrent read: bad JSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Fatalf("full ring holds %d, want its capacity 16", r.Len())
	}
}

func TestOpAttrsContext(t *testing.T) {
	ctx := ContextWithOpAttrs(context.Background(), Attr{Key: "kv_keys", Value: "3"})
	ctx = ContextWithOpAttrs(ctx, Attr{Key: "kv_probes", Value: "9"})
	got := OpAttrsFromContext(ctx)
	if len(got) != 2 || got[0].Key != "kv_keys" || got[1].Value != "9" {
		t.Fatalf("op attrs = %+v", got)
	}
	if OpAttrsFromContext(context.Background()) != nil {
		t.Fatalf("empty ctx returned op attrs")
	}
}
