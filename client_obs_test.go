package impir

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
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

// TestClientObsOutcomesAndExposition drives a real store whose party 0
// has a one-deep admission queue behind a slow engine: an idle call is
// ok, a call arriving while that server's pass runs and its queue slot
// is taken is busy, and a cancelled call is an error. The snapshot,
// Stats() and the exposition all report the same split.
func TestClientObsOutcomesAndExposition(t *testing.T) {
	db, err := GenerateHashDB(128, 29)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 200 * time.Millisecond
	slow, sched := startShimDeployment(t, db, delay, scheduler.Config{QueueDepth: 1})
	fast := startShimServer(t, db, 0, nil)
	ctx := context.Background()
	co := NewClientObs()
	store, err := Open(ctx, FlatDeployment(slow, fast), co.Option())
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

	snap := co.Snapshot()
	if snap.Retrieve.Calls != 3 || snap.Retrieve.Errors != 2 || snap.Retrieve.Busy != 1 {
		t.Errorf("Retrieve stats = %+v, want calls=3 errors=2 busy=1", snap.Retrieve)
	}
	if snap.RetrieveBatch.Calls != 1 || snap.RetrieveBatch.Errors != 0 {
		t.Errorf("RetrieveBatch stats = %+v, want calls=1 errors=0", snap.RetrieveBatch)
	}
	if snap.Retrieve.Max < snap.Retrieve.P50 || snap.Retrieve.P99 < snap.Retrieve.P50 {
		t.Errorf("latency quantiles out of order: %+v", snap.Retrieve)
	}
	if st := store.Stats(); st.Retrievals != 1 || st.BatchRetrievals != 1 || st.Errors != 2 || st.Busy != 1 {
		t.Errorf("Stats() = %v, want 1 retrieval, 1 batch, 2 errors, 1 busy", st)
	}

	// The exposition carries the same truth, through the same parser
	// the server's scrape tests use.
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	samples, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
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

// TestClientScrapeBracketsStats: a store's registry cells are the only
// storage of its counters, so under live load every scraped counter
// lies between the Stats() snapshots taken around the scrape, and at
// rest the two agree exactly. It covers an index store opened through
// Open and a keyword store opened through OpenKV, each with its own
// ClientObs, on a coded deployment whose party 0 has two replicas, with
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
	opts := func(co *ClientObs) []ClientOption {
		return []ClientOption{co.Option(), WithDefaultCallOptions(WithRetries(2), WithHedgeDelay(time.Microsecond))}
	}
	storeObs, kvObs := NewClientObs(), NewClientObs()
	store, err := Open(ctx, d, opts(storeObs)...)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if again, err := Open(ctx, d, storeObs.Option()); err == nil {
		again.Close()
		t.Fatal("a second Open reused a ClientObs that already serves a store")
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
		co    *ClientObs
		stats func() any
		parse func(map[string]float64) any
	}
	views := []view{
		{"Open store", storeObs, func() any { return store.Stats() }, scrapedStoreStats},
		{"OpenKV store", kvObs, func() any { return kv.Store().Stats() }, scrapedStoreStats},
		{"OpenKV keywords", kvObs, func() any { return kv.Stats() }, scrapedKVStats},
	}
	scrape := func(v view) map[string]uint64 {
		var sb strings.Builder
		if err := v.co.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return counterFields(v.parse(samples))
	}
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
// a ClientObs count a Retrieve, a Get hit and a Get miss exactly as
// bundled ones do, and hold their counters in detached cells: the
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
	wantStore, wantKV, _ := counts(NewClientObs().Option())
	gotStore, gotKV, c := counts()
	if !reflect.DeepEqual(gotStore, wantStore) {
		t.Errorf("unobserved Stats() %v, bundled %v", gotStore, wantStore)
	}
	if !reflect.DeepEqual(gotKV, wantKV) {
		t.Errorf("unobserved KVClient.Stats() %v, bundled %v", gotKV, wantKV)
	}
	if wantKV[".Hits"] != 1 || wantKV[".Misses"] != 1 || wantStore[".Retrievals"] < 1 {
		t.Errorf("bundled counts missed an op: store %v, keywords %v", wantStore, wantKV)
	}
	if c.cells.reg != nil || c.cells.retrieve.latency != nil {
		t.Error("an unobserved store built a registry or a latency histogram")
	}
}
