package impir

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/keyword"
	"github.com/impir/impir/internal/metrics"
	"github.com/impir/impir/internal/obs"
	"github.com/impir/impir/internal/scheduler"
	"github.com/impir/impir/internal/transport"
)

// fillQueue occupies the server at addr, whose scheduler has a one-deep
// admission queue behind a slow engine, with two raw queries: one in its
// engine pass, one in its only queue slot. It returns once both are in
// place; the returned func waits for them to finish.
func fillQueue(t *testing.T, addr string, sched *scheduler.Scheduler, db *DB) (wait func()) {
	t.Helper()
	ctx := context.Background()
	await := func(cond func(metrics.SchedulerStats) bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(sched.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("slow server never reached the expected state: %v", sched.Stats())
			}
		}
	}
	var raw sync.WaitGroup
	dispatched := sched.Stats().Dispatched
	for i := 0; i < 2; i++ {
		conn, err := transport.Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		k0, _, err := GenerateKeys(db.NumRecords(), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		raw.Add(1)
		go func() {
			defer raw.Done()
			if _, err := conn.Query(ctx, k0); err != nil {
				t.Errorf("raw query %d: %v", i, err)
			}
		}()
		if i == 0 {
			await(func(st metrics.SchedulerStats) bool { return st.Dispatched > dispatched })
		}
	}
	await(func(st metrics.SchedulerStats) bool { return st.Depth == 1 })
	return raw.Wait
}

// TestObserverOutcomesAndExposition drives a real store whose party 0
// has a one-deep admission queue behind a slow engine: an idle call is
// ok, a call arriving while that server's pass runs and its queue slot
// is taken is busy, and a cancelled call is an error. Stats() and the
// exposition report the same split.
func TestObserverOutcomesAndExposition(t *testing.T) {
	db, err := GenerateHashDB(128, 29)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 200 * time.Millisecond
	slow, sched := startShimDeployment(t, db, delay, scheduler.Config{QueueDepth: 1})
	fast := startShimServer(t, db, 0, nil)
	ctx := context.Background()
	o := NewObserver(ObserverConfig{})
	store, err := Open(ctx, FlatDeployment(slow, fast), o.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	if _, err := store.Retrieve(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := store.RetrieveBatch(ctx, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}

	wait := fillQueue(t, slow, sched, db)
	if _, err := store.Retrieve(ctx, 2); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("Retrieve against a full queue: %v, want ErrServerBusy", err)
	}
	wait()

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := store.Retrieve(cctx, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Retrieve: %v", err)
	}

	if st := store.Stats(); st.Retrievals != 1 || st.BatchRetrievals != 1 || st.Errors != 2 || st.Busy != 1 {
		t.Errorf("Stats() = %v, want 1 retrieval, 1 batch, 2 errors, 1 busy", st)
	}

	// The exposition carries the same truth, through the same scrape
	// the server's tests use.
	srv := httptest.NewServer(o)
	defer srv.Close()
	samples := scrapeMetrics(t, srv.URL)
	for sample, want := range map[string]float64{
		`impir_client_requests_total{op="retrieve",outcome="ok"}`:       1,
		`impir_client_requests_total{op="retrieve",outcome="busy"}`:     1,
		`impir_client_requests_total{op="retrieve",outcome="error"}`:    1,
		`impir_client_requests_total{op="retrieve_batch",outcome="ok"}`: 1,
		`impir_client_latency_seconds_count{op="retrieve"}`:             3,
	} {
		if got := samples[sample]; got != want {
			t.Errorf("%s = %v, want %v", sample, got, want)
		}
	}
}

// TestObserverHandler: one handler serves an observed keyword store's
// telemetry. After a Retrieve, a RetrieveBatch and a keyword Get, its
// /metrics carries every client family the README lists, its
// /debug/traces holds the three operations' roots, newest first, and a
// malformed min_ms is refused.
func TestObserverHandler(t *testing.T) {
	ctx := context.Background()
	pairs := keyword.GeneratePairs(60, 6)
	db, kvm, err := BuildKVDB(pairs, KVTableOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardCohort(t, db, 2)
	o := NewObserver(ObserverConfig{SampleRate: 1})
	kv, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(kvm), o.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	_, err1 := kv.Store().Retrieve(ctx, 1)
	_, err2 := kv.Store().RetrieveBatch(ctx, []uint64{1, 2})
	_, err3 := kv.Get(ctx, pairs[7].Key)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(o)
	defer srv.Close()

	present := map[string]bool{}
	for sample := range scrapeMetrics(t, srv.URL) {
		present[strings.SplitN(sample, "{", 2)[0]] = true
	}
	for _, f := range strings.Fields(`impir_client_requests_total impir_client_latency_seconds_count
		impir_client_retries_total impir_client_hedges_total impir_client_hedge_wins_total
		impir_client_coded_batches_total impir_client_coded_queries_total
		impir_client_coded_dummies_total impir_client_code_fallbacks_total
		impir_client_shard_queries_total impir_client_shard_batches_total
		impir_client_shard_batch_queries_total impir_client_shard_update_rows_total
		impir_client_shard_errors_total impir_client_shard_time_nanoseconds_total
		impir_kv_gets_total impir_kv_batch_gets_total impir_kv_batch_keys_total impir_kv_hits_total
		impir_kv_misses_total impir_kv_puts_total impir_kv_deletes_total
		impir_kv_probed_buckets_total impir_kv_errors_total`) {
		if !present[f] {
			t.Errorf("/metrics lacks %s", f)
		}
	}

	var roots []TraceSnapshot
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&roots)
		resp.Body.Close()
	}
	if len(roots) != 3 || roots[0].Name != opRetrieveBatch || roots[1].Name != opRetrieveBatch || roots[2].Name != opRetrieve {
		t.Errorf("/debug/traces: %+v, %v; want retrieve_batch, retrieve_batch, retrieve roots", roots, err)
	}
	if resp, err = http.Get(srv.URL + "/debug/traces?min_ms=bogus"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?min_ms=bogus = %d, want 400", resp.StatusCode)
	}
}

// TestClientScrapeBracketsStats: a store's registry cells are the only
// storage of its counters, so under live load every scraped counter
// lies between the Stats() snapshots taken around the scrape, and at
// rest the two agree exactly. It covers an index store opened through
// Open and a keyword store opened through OpenKV, each with its own
// Observer, on a coded deployment whose party 0 has two replicas, with
// hedging on and a retry budget.
func TestClientScrapeBracketsStats(t *testing.T) {
	ctx := context.Background()
	pairs := keyword.GeneratePairs(60, 3)
	db, kvm, err := BuildKVDB(pairs, KVTableOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	code, err := batchcode.Derive(uint64(db.NumRecords()), db.RecordSize(), 8, 2, 2, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := batchcode.Encode(db, code)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardCohort(t, coded, 3)
	d := ReplicatedDeployment(addrs[:2], addrs[2:]).WithBatchCode(code).WithKeyword(kvm)
	opts := func(o *Observer) []ClientOption {
		return []ClientOption{o.Option(), WithDefaultCallOptions(WithRetries(2), WithHedgeDelay(time.Microsecond))}
	}
	storeObs, kvObs := NewObserver(ObserverConfig{}), NewObserver(ObserverConfig{})
	store, err := Open(ctx, d, opts(storeObs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if again, err := Open(ctx, d, storeObs.Option()); err == nil {
		again.Close()
		t.Fatal("a second Open reused an Observer that already serves a store")
	}
	kv, err := OpenKV(ctx, d, opts(kvObs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rec0, err := store.Retrieve(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	load := func(ops ...func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := ops[i%len(ops)](); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}()
	}
	load(
		func() error { _, err := store.Retrieve(ctx, 5); return err },
		func() error { _, err := store.RetrieveBatch(ctx, []uint64{1, 2, 3}); return err },
		func() error { _, err := store.RetrieveBatch(ctx, []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8}); return err },
		func() error { return store.Update(ctx, map[uint64][]byte{0: rec0}) },
	)
	load(
		func() error { _, err := kv.Get(ctx, pairs[1].Key); return err },
		func() error { _, err := kv.Get(ctx, []byte("absent")); return err },
		func() error { _, err := kv.GetBatch(ctx, [][]byte{pairs[2].Key, []byte("absent")}); return err },
		func() error { return kv.Put(ctx, pairs[3].Key, pairs[3].Value) },
		func() error { return kv.Delete(ctx, []byte("absent")) },
	)

	type view struct {
		name  string
		url   string
		stats func() any
		parse func(map[string]float64) any
	}
	storeSrv, kvSrv := httptest.NewServer(storeObs), httptest.NewServer(kvObs)
	defer storeSrv.Close()
	defer kvSrv.Close()
	views := []view{
		{"Open store", storeSrv.URL, func() any { return store.Stats() }, scrapedStoreStats},
		{"OpenKV store", kvSrv.URL, func() any { return kv.Store().Stats() }, scrapedStoreStats},
		{"OpenKV keywords", kvSrv.URL, func() any { return kv.Stats() }, scrapedKVStats},
	}
	scrape := func(v view) map[string]uint64 { return counterFields(v.parse(scrapeMetrics(t, v.url))) }
	for round := 0; round < 5; round++ {
		time.Sleep(20 * time.Millisecond)
		for _, v := range views {
			before := counterFields(v.stats())
			scraped := scrape(v)
			after := counterFields(v.stats())
			for f, lo := range before {
				if got, hi := scraped[f], after[f]; got < lo || got > hi {
					t.Errorf("%s: %s scraped %d, outside the Stats() bracket [%d, %d]", v.name, f, got, lo, hi)
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	for _, v := range views {
		if got, want := scrape(v), counterFields(v.stats()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s at rest: scrape %v, Stats() %v", v.name, got, want)
		}
	}
	// The load moved what the bracket compared.
	st, kst := store.Stats(), kv.Stats()
	sh := st.Shards[0]
	for name, n := range map[string]uint64{
		"Retrievals": st.Retrievals, "BatchRetrievals": st.BatchRetrievals, "Updates": st.Updates,
		"CodedBatches": st.CodedBatches, "CodeFallbacks": st.CodeFallbacks,
		"Shards[0].Queries": sh.Queries, "Shards[0].BatchQueries": sh.BatchQueries,
		"Shards[0].UpdateRows": sh.UpdateRows, "Shards[0].TotalTime": uint64(sh.TotalTime),
		"KV Gets": kst.Gets, "KV BatchKeys": kst.BatchKeys, "KV Hits": kst.Hits, "KV Misses": kst.Misses,
		"KV Puts": kst.Puts, "KV Deletes": kst.Deletes, "KV ProbedBuckets": kst.ProbedBuckets, "KV Errors": kst.Errors,
	} {
		if n == 0 {
			t.Errorf("%s stayed 0 under load", name)
		}
	}
}

// counterFields flattens a stats struct into its counters by field
// path, per-shard entries included.
func counterFields(v any) map[string]uint64 {
	out := make(map[string]uint64)
	var walk func(path string, rv reflect.Value)
	walk = func(path string, rv reflect.Value) {
		switch rv.Kind() {
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				walk(path+"."+rv.Type().Field(i).Name, rv.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < rv.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), rv.Index(i))
			}
		case reflect.Uint64:
			out[path] = rv.Uint()
		case reflect.Int64: // time.Duration
			out[path] = uint64(rv.Int())
		default:
			panic("counterFields: unexpected kind at " + path)
		}
	}
	walk("", reflect.ValueOf(v))
	return out
}

// scrapedStoreStats rebuilds a one-shard store's StoreStats from its
// client families, independently of the cells' own typed read.
func scrapedStoreStats(s map[string]float64) any {
	n := func(sample string) uint64 { return uint64(s[sample]) }
	req := func(op, outcome string) uint64 {
		return n(`impir_client_requests_total{op="` + op + `",outcome="` + outcome + `"}`)
	}
	shard := func(name string) uint64 { return n(`impir_client_shard_` + name + `_total{shard="0"}`) }
	st := StoreStats{
		Retrievals:      req(opRetrieve, "ok"),
		BatchRetrievals: req(opRetrieveBatch, "ok"),
		Updates:         req(opUpdate, "ok"),
		Retries:         n("impir_client_retries_total"),
		Hedges:          n("impir_client_hedges_total"),
		HedgeWins:       n("impir_client_hedge_wins_total"),
		CodedBatches:    n("impir_client_coded_batches_total"),
		CodedQueries:    n("impir_client_coded_queries_total"),
		CodedDummies:    n("impir_client_coded_dummies_total"),
		CodeFallbacks:   n("impir_client_code_fallbacks_total"),
		Shards: []metrics.ShardStats{{
			Queries:      shard("queries"),
			Batches:      shard("batches"),
			BatchQueries: shard("batch_queries"),
			UpdateRows:   shard("update_rows"),
			Errors:       shard("errors"),
			TotalTime:    time.Duration(shard("time_nanoseconds")),
		}},
	}
	for _, op := range []string{opRetrieve, opRetrieveBatch, opUpdate} {
		st.Busy += req(op, "busy")
		st.Errors += req(op, "busy") + req(op, "error")
	}
	return st
}

// scrapedKVStats rebuilds a KVStats from the impir_kv_* families.
func scrapedKVStats(s map[string]float64) any {
	n := func(name string) uint64 { return uint64(s["impir_kv_"+name+"_total"]) }
	return KVStats{
		Gets:          n("gets"),
		BatchGets:     n("batch_gets"),
		BatchKeys:     n("batch_keys"),
		Hits:          n("hits"),
		Misses:        n("misses"),
		Puts:          n("puts"),
		Deletes:       n("deletes"),
		ProbedBuckets: n("probed_buckets"),
		Errors:        n("errors"),
	}
}

// TestUnobservedStoreCounts: a store and keyword client opened without
// an Observer count a Retrieve, a Get hit and a Get miss exactly as
// observed ones do, and hold their counters in detached cells: the
// store builds no registry and times nothing.
func TestUnobservedStoreCounts(t *testing.T) {
	ctx := context.Background()
	pairs := keyword.GeneratePairs(60, 5)
	db, kvm, err := BuildKVDB(pairs, KVTableOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardCohort(t, db, 2)
	d := FlatDeployment(addrs...).WithKeyword(kvm)
	counts := func(opts ...ClientOption) (store, kw map[string]uint64, c *Client) {
		kv, err := OpenKV(ctx, d, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		if _, err := kv.Store().Retrieve(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := kv.Get(ctx, pairs[7].Key); err != nil {
			t.Fatal(err)
		}
		if _, err := kv.Get(ctx, []byte("absent")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get of an absent key: %v, want ErrNotFound", err)
		}
		store = counterFields(kv.Store().Stats())
		if store[".Shards[0].TotalTime"] == 0 {
			t.Error("the shard's wall time stayed 0")
		}
		delete(store, ".Shards[0].TotalTime") // wall time, not a count
		return store, counterFields(kv.Stats()), kv.Store().(*Client)
	}
	wantStore, wantKV, _ := counts(NewObserver(ObserverConfig{}).Option())
	gotStore, gotKV, c := counts()
	if !reflect.DeepEqual(gotStore, wantStore) {
		t.Errorf("unobserved Stats() %v, observed %v", gotStore, wantStore)
	}
	if !reflect.DeepEqual(gotKV, wantKV) {
		t.Errorf("unobserved KVClient.Stats() %v, observed %v", gotKV, wantKV)
	}
	if wantKV[".Hits"] != 1 || wantKV[".Misses"] != 1 || wantStore[".Retrievals"] < 1 {
		t.Errorf("observed counts missed an op: store %v, keywords %v", wantStore, wantKV)
	}
	if c.cells.reg != nil || c.cells.retrieve.latency != nil {
		t.Error("an unobserved store built a registry or a latency histogram")
	}
}

// openTraced opens a flat deployment over addrs with o installed.
func openTraced(t *testing.T, o *Observer, addrs ...string) Store {
	t.Helper()
	store, err := Open(context.Background(), FlatDeployment(addrs...), o.Option())
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
	o := NewObserver(ObserverConfig{SampleRate: 1})
	store := openTraced(t, o, startDeployment(t, db, 2)...)
	rec, err := store.Retrieve(context.Background(), 5)
	if err != nil || !bytes.Equal(rec, db.Record(5)) {
		t.Fatalf("traced Retrieve = %x, %v", rec, err)
	}
	got := o.RecentTraces(0)
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
	o := NewObserver(ObserverConfig{SampleRate: 1})
	store := openTraced(t, o, startShimServer(t, db, 0, nil),
		startShimServer(t, db, 0, errors.New("replica down")))
	_, err := store.RetrieveBatch(context.Background(), []uint64{1, 2, 3})
	if err == nil {
		t.Fatal("batch against a failing party succeeded")
	}
	got := o.RecentTraces(0)
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
// a fast op is not ringed and a slow one is, marked unsampled. Each
// store has its own Observer; the test reads both rings together.
func TestTracerSlowThresholdRingsOnlySlowOps(t *testing.T) {
	db, _ := GenerateHashDB(256, 43)
	cfg := ObserverConfig{SlowThreshold: 100 * time.Millisecond}
	fastObs, slowObs := NewObserver(cfg), NewObserver(cfg)
	fast := openTraced(t, fastObs, startDeployment(t, db, 2)...)
	slow := openTraced(t, slowObs, startShimServer(t, db, 150*time.Millisecond, nil), startShimServer(t, db, 0, nil))
	ctx := context.Background()
	rings := func() []TraceSnapshot { return append(fastObs.RecentTraces(0), slowObs.RecentTraces(0)...) }

	if _, err := fast.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if got := rings(); len(got) != 0 {
		t.Fatalf("fast unsampled op was ringed: %+v", got)
	}
	if _, err := slow.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	got := rings()
	if len(got) != 1 {
		t.Fatalf("slow op not ringed: %+v", got)
	}
	if v, _ := got[0].Attr("sampled"); v != "false" {
		t.Fatalf("slow-only trace claims sampled=%q", v)
	}
}

// TestObserverDisabledZeroAllocation: an untraced call's span handling —
// an unsampling Observer's or a nil Observer's begin, context and
// finish — allocates nothing.
func TestObserverDisabledZeroAllocation(t *testing.T) {
	if raceEnabledImpir {
		t.Skip("allocation counts are unreliable under -race")
	}
	ctx := context.Background()
	for name, o := range map[string]*Observer{"disabled": NewObserver(ObserverConfig{}), "nil": nil} {
		allocs := testing.AllocsPerRun(1000, func() {
			span := o.begin(ctx, opRetrieve)
			_ = obs.ContextWithSpan(ctx, span)
			o.finish(span, nil)
		})
		if allocs != 0 {
			t.Errorf("%s observer allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestTracerRetriedOpRingsOneRoot: an op retried through a busy party
// rings ONE root, whose retries attr counts the extra attempts.
func TestTracerRetriedOpRingsOneRoot(t *testing.T) {
	db, _ := GenerateHashDB(128, 44)
	slow, sched := startShimDeployment(t, db, 300*time.Millisecond, scheduler.Config{QueueDepth: 1})
	o := NewObserver(ObserverConfig{SampleRate: 1})
	store := openTraced(t, o, slow, startShimServer(t, db, 0, nil))
	ctx := context.Background()

	wait := fillQueue(t, slow, sched, db)
	_, err := store.Retrieve(ctx, 2, WithRetries(1))
	wait()
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("Retrieve against a full queue: %v, want ErrServerBusy", err)
	}

	got := o.RecentTraces(0)
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
	o := NewObserver(ObserverConfig{SampleRate: 1})
	kv, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(m), o.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	if val, err := kv.Get(ctx, pairs[7].Key); err != nil || !bytes.Equal(val, pairs[7].Value) {
		t.Fatalf("Get = %q, %v", val, err)
	}
	got := o.RecentTraces(0)
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
	o := NewObserver(ObserverConfig{SampleRate: 1})
	store := openTraced(t, o, addrs...)
	ctx := context.Background()
	fresh := bytes.Repeat([]byte{0xAB}, db.RecordSize())
	if err := store.Update(ctx, map[uint64][]byte{9: fresh}); err != nil {
		t.Fatal(err)
	}
	got := o.RecentTraces(0)
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

// TestTracerUpdateRingsAttemptPerReplica: a traced Update on 2 parties
// of 2 replicas each rings one party span per party and, under each, one
// ok attempt per replica written; every replica's server joins the trace
// under its own attempt's span ID.
func TestTracerUpdateRingsAttemptPerReplica(t *testing.T) {
	db, _ := GenerateHashDB(256, 47)
	addrs, servers := startShardCohort(t, db, 4)
	d := Deployment{RecordSize: 32, Shards: []DeploymentShard{{NumRecords: 256, Parties: []Party{
		{Replicas: addrs[:2]}, {Replicas: addrs[2:]},
	}}}}
	o := NewObserver(ObserverConfig{SampleRate: 1})
	ctx := context.Background()
	store, err := Open(ctx, d, o.Option())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Update(ctx, map[uint64][]byte{9: bytes.Repeat([]byte{0xCD}, 32)}); err != nil {
		t.Fatal(err)
	}
	got := o.RecentTraces(0)
	if len(got) != 1 || got[0].Name != opUpdate {
		t.Fatalf("ring = %+v, want one update root", got)
	}
	attempts := map[string]bool{}
	parties := 0
	for _, sn := range collectSpans(got[0]) {
		if sn.Name != "party" {
			continue
		}
		parties++
		replicas := map[string]bool{}
		for _, att := range sn.Children {
			if v, _ := att.Attr("outcome"); att.Name != "attempt" || v != "ok" {
				t.Fatalf("party %v child %q outcome %q, want ok attempts", sn.Attrs, att.Name, v)
			}
			r, _ := att.Attr("replica")
			replicas[r] = true
			attempts[att.SpanID] = true
		}
		if len(replicas) != 2 {
			t.Fatalf("party %v has attempts on replicas %v, want 0 and 1", sn.Attrs, replicas)
		}
	}
	if parties != 2 || len(attempts) != 4 {
		t.Fatalf("%d party spans and %d distinct attempts, want 2 and 4", parties, len(attempts))
	}
	// The server adds its trace to the ring after acknowledging the
	// update, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for i, srv := range servers {
		for {
			ring := srv.RecentTraces(0)
			if len(ring) == 1 && ring[0].Name == "server.update" && attempts[ring[0].SpanID] {
				delete(attempts, ring[0].SpanID)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server %d ring %+v holds no server.update under an attempt's span ID", i, ring)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// BenchmarkObserverDisabled is the perf guard's evidence: an untraced
// call's span handling must report 0 B/op, 0 allocs/op.
func BenchmarkObserverDisabled(b *testing.B) { benchmarkObserverSpans(b, ObserverConfig{}) }

func BenchmarkObserverSampled(b *testing.B) {
	benchmarkObserverSpans(b, ObserverConfig{SampleRate: 1})
}

func benchmarkObserverSpans(b *testing.B, cfg ObserverConfig) {
	o := NewObserver(cfg)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.finish(o.begin(ctx, opRetrieve), nil)
	}
}
