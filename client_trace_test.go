package impir

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"github.com/impir/impir/internal/keyword"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/scheduler"
)

// openTraced opens a flat deployment over addrs with tr installed.
func openTraced(t *testing.T, tr *Tracer, addrs ...string) Store {
	t.Helper()
	store, err := Open(context.Background(), FlatDeployment(addrs...), tr.Option())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestTracerSampleAllCollectsTree: a sampled Retrieve rings one
// retrieve root with the party fan-out below it.
func TestTracerSampleAllCollectsTree(t *testing.T) {
	db, _ := GenerateHashDB(256, 41)
	tr := NewTracer(TracerConfig{SampleRate: 1})
	store := openTraced(t, tr, startDeployment(t, db, 2)...)
	rec, err := store.Retrieve(context.Background(), 5)
	if err != nil || !bytes.Equal(rec, db.Record(5)) {
		t.Fatalf("traced Retrieve = %x, %v", rec, err)
	}
	got := tr.RecentTraces(0)
	if len(got) != 1 || got[0].Name != opRetrieve {
		t.Fatalf("ring = %+v, want one retrieve trace", got)
	}
	if v, _ := got[0].Attr("sampled"); v != "true" {
		t.Fatalf("sampled attr = %q", v)
	}
	if got[0].TraceID == "" || got[0].SpanID == "" {
		t.Fatal("trace missing identity")
	}
	if _, ok := got[0].Attr("batch_size"); ok {
		t.Fatal("a single retrieval carries batch_size")
	}
	if len(got[0].Children) != 2 || got[0].Children[0].Name != "party" {
		t.Fatalf("root children = %+v, want two party spans", got[0].Children)
	}
}

// TestTracerBatchAndErrorAttrs: a failed RetrieveBatch's root carries
// its width and the error the caller saw.
func TestTracerBatchAndErrorAttrs(t *testing.T) {
	db, _ := GenerateHashDB(256, 42)
	tr := NewTracer(TracerConfig{SampleRate: 1})
	store := openTraced(t, tr, startShimServer(t, db, 0, nil),
		startShimServer(t, db, 0, errors.New("replica down")))
	_, err := store.RetrieveBatch(context.Background(), []uint64{1, 2, 3})
	if err == nil {
		t.Fatal("batch against a failing party succeeded")
	}
	got := tr.RecentTraces(0)
	if len(got) != 1 || got[0].Name != opRetrieveBatch {
		t.Fatalf("ring = %+v", got)
	}
	if v, _ := got[0].Attr("batch_size"); v != "3" {
		t.Fatalf("batch_size = %q", v)
	}
	if v, _ := got[0].Attr("error"); v != err.Error() {
		t.Fatalf("error attr = %q, want %q", v, err)
	}
}

// TestTracerSlowThresholdRingsOnlySlowOps: with only a slow threshold,
// a fast op is not ringed and a slow one is, marked unsampled. One
// tracer serves both stores.
func TestTracerSlowThresholdRingsOnlySlowOps(t *testing.T) {
	db, _ := GenerateHashDB(256, 43)
	tr := NewTracer(TracerConfig{SlowThreshold: 100 * time.Millisecond})
	fast := openTraced(t, tr, startDeployment(t, db, 2)...)
	slow := openTraced(t, tr, startShimServer(t, db, 150*time.Millisecond, nil), startShimServer(t, db, 0, nil))
	ctx := context.Background()

	if _, err := fast.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got := tr.RecentTraces(0); len(got) != 0 {
		t.Fatalf("fast unsampled op was ringed: %+v", got)
	}
	if _, err := slow.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	got := tr.RecentTraces(0)
	if len(got) != 1 {
		t.Fatalf("slow op not ringed: %+v", got)
	}
	if v, _ := got[0].Attr("sampled"); v != "false" {
		t.Fatalf("slow-only trace claims sampled=%q", v)
	}
}

// TestTracerDisabledZeroAllocation: an untraced call's span handling —
// a disabled tracer's or a nil tracer's begin, context and finish —
// allocates nothing.
func TestTracerDisabledZeroAllocation(t *testing.T) {
	if raceEnabledImpir {
		t.Skip("allocation counts are unreliable under -race")
	}
	ctx := context.Background()
	for name, tr := range map[string]*Tracer{"disabled": NewTracer(TracerConfig{}), "nil": nil} {
		allocs := testing.AllocsPerRun(1000, func() {
			span := tr.begin(ctx, opRetrieve)
			_ = obs.ContextWithSpan(ctx, span)
			tr.finish(span, nil)
		})
		if allocs != 0 {
			t.Errorf("%s tracer allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestTracerRetriedOpRingsOneRoot: an op retried through a busy party
// rings ONE root, whose retries attr counts the extra attempts.
func TestTracerRetriedOpRingsOneRoot(t *testing.T) {
	db, _ := GenerateHashDB(128, 44)
	slow, sched := startShimDeployment(t, db, 300*time.Millisecond, scheduler.Config{QueueDepth: 1})
	tr := NewTracer(TracerConfig{SampleRate: 1})
	store := openTraced(t, tr, slow, startShimServer(t, db, 0, nil))
	ctx := context.Background()

	wait := fillQueue(t, slow, sched, db)
	_, err := store.Retrieve(ctx, 2, WithRetries(1))
	wait()
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("Retrieve against a full queue: %v, want ErrServerBusy", err)
	}

	got := tr.RecentTraces(0)
	if len(got) != 1 {
		t.Fatalf("%d roots for one retried op", len(got))
	}
	if v, _ := got[0].Attr("retries"); v != "1" {
		t.Fatalf("retries attr = %q, want 1", v)
	}
	if st := store.Stats(); st.Retries != 1 || st.Busy != 1 {
		t.Fatalf("Stats() = %v, want 1 retry, 1 busy op", st)
	}
}

// TestTracerKVGetRootCarriesProbeShape: a keyword Get rings one
// retrieve_batch root labelled with the probe shape — counts only.
func TestTracerKVGetRootCarriesProbeShape(t *testing.T) {
	pairs := keyword.GeneratePairs(64, 45)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardCohort(t, db, 2)
	ctx := context.Background()
	tr := NewTracer(TracerConfig{SampleRate: 1})
	kv, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(m), tr.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	if val, err := kv.Get(ctx, pairs[7].Key); err != nil || !bytes.Equal(val, pairs[7].Value) {
		t.Fatalf("Get = %q, %v", val, err)
	}
	got := tr.RecentTraces(0)
	if len(got) != 1 || got[0].Name != opRetrieveBatch {
		t.Fatalf("ring = %+v, want one retrieve_batch root", got)
	}
	probes := strconv.Itoa(len(m.ProbeIndices(pairs[7].Key)))
	for attr, want := range map[string]string{"kv_keys": "1", "kv_probes": probes, "batch_size": probes} {
		if v, _ := got[0].Attr(attr); v != want {
			t.Errorf("%s = %q, want %q", attr, v, want)
		}
	}
}

// TestTracerUpdateRingsUpdateRoot: a traced Update rings an update root.
func TestTracerUpdateRingsUpdateRoot(t *testing.T) {
	db, _ := GenerateHashDB(256, 46)
	addrs, _ := startShardCohort(t, db, 2)
	tr := NewTracer(TracerConfig{SampleRate: 1})
	store := openTraced(t, tr, addrs...)
	ctx := context.Background()
	fresh := bytes.Repeat([]byte{0xAB}, db.RecordSize())
	if err := store.Update(ctx, map[uint64][]byte{9: fresh}); err != nil {
		t.Fatal(err)
	}
	got := tr.RecentTraces(0)
	if len(got) != 1 || got[0].Name != opUpdate {
		t.Fatalf("ring = %+v, want one update root", got)
	}
	if v, ok := got[0].Attr("error"); ok {
		t.Fatalf("successful update carries error %q", v)
	}
	if rec, err := store.Retrieve(ctx, 9); err != nil || !bytes.Equal(rec, fresh) {
		t.Fatalf("Retrieve after Update = %x, %v", rec, err)
	}
}

// BenchmarkTracerDisabled is the perf guard's evidence: an untraced
// call's span handling must report 0 B/op, 0 allocs/op.
func BenchmarkTracerDisabled(b *testing.B) {
	tr := NewTracer(TracerConfig{})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.finish(tr.begin(ctx, opRetrieve), nil)
	}
}

func BenchmarkTracerSampled(b *testing.B) {
	tr := NewTracer(TracerConfig{SampleRate: 1})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.finish(tr.begin(ctx, opRetrieve), nil)
	}
}
