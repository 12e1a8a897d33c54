package impir

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/impir/impir/internal/batchcode"
	"github.com/impir/impir/internal/engine"
	"github.com/impir/impir/internal/scheduler"
	"github.com/impir/impir/internal/transport"
)

// codedTestDB builds a logical database with distinguishable records.
func codedTestDB(t *testing.T, n, recordSize int) *DB {
	t.Helper()
	db, err := NewDatabase(n, recordSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := make([]byte, recordSize)
		for j := range rec {
			rec[j] = byte(i + 7*j)
		}
		rec[0], rec[1] = byte(i), byte(i>>8)
		if err := db.SetRecord(i, rec); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// startCodedFlat encodes db under code, serves the coded database from a
// two-party flat deployment (wire updates allowed), and returns the
// deployment manifest declaring the code.
func startCodedFlat(t *testing.T, db *DB, code CodeManifest) Deployment {
	t.Helper()
	coded, err := batchcode.Encode(db, code)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardCohort(t, coded, 2)
	return FlatDeployment(addrs...).WithBatchCode(code)
}

// TestCodedStoreFlatE2E is the tentpole's differential check over real
// TCP: a coded deployment must decode byte-identically to the logical
// database for every batch size, while issuing a CONSTANT number of
// sub-queries per batch.
func TestCodedStoreFlatE2E(t *testing.T) {
	ctx := context.Background()
	const n, recordSize = 300, 32
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 8, 2, 2, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := startCodedFlat(t, db, code)

	store := openFromJSON(t, ctx, d)
	if _, ok := store.(*Client); !ok {
		t.Fatalf("Open returned %T, want *Client", store)
	}
	if got := store.NumRecords(); got != n {
		t.Fatalf("NumRecords() = %d, want logical %d", got, n)
	}

	// Single retrieval rides the coded layout.
	rec, err := store.Retrieve(ctx, 123)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, db.Record(123)) {
		t.Fatal("Retrieve decoded wrong bytes through the coded layout")
	}

	// Batches of every size (duplicates included) decode byte-identically
	// and cost exactly QueriesPerBatch() sub-queries each.
	want := uint64(code.QueriesPerBatch())
	for _, indices := range [][]uint64{
		{0},
		{n - 1, 0, 17},
		{5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{42, 17, 42, 299, 0, 13, 17, 100, 200, 250},
	} {
		before := store.Stats()
		recs, err := store.RetrieveBatch(ctx, indices)
		if err != nil {
			t.Fatalf("RetrieveBatch(%v): %v", indices, err)
		}
		for i, idx := range indices {
			if !bytes.Equal(recs[i], db.Record(int(idx))) {
				t.Fatalf("batch %v position %d (index %d): wrong bytes", indices, i, idx)
			}
		}
		delta := store.Stats().CodedQueries - before.CodedQueries
		if delta != want {
			t.Fatalf("batch of %d cost %d coded sub-queries, want constant %d", len(indices), delta, want)
		}
	}
	st := store.Stats()
	if st.CodedBatches != 5 || st.CodeFallbacks != 0 {
		t.Fatalf("stats: coded=%d fallbacks=%d, want 5 coded, 0 fallbacks", st.CodedBatches, st.CodeFallbacks)
	}
}

// TestCodedStoreShardedE2E routes a coded deployment over bucket-aligned
// shards: each cohort must receive exactly buckets/shards + overflow
// sub-queries per batch — the per-server win — and still decode
// byte-identically.
func TestCodedStoreShardedE2E(t *testing.T) {
	ctx := context.Background()
	const n, recordSize, shards = 400, 32, 2
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 4, 2, 1, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := batchcode.Encode(db, code)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := startCluster(t, coded, shards)
	d := m.WithBatchCode(code)

	store := openFromJSON(t, ctx, d)
	if _, ok := store.(*Client); !ok {
		t.Fatalf("Open returned %T, want *Client", store)
	}

	perShard := uint64(code.Buckets/shards + code.OverflowSlots)
	for trial := 0; trial < 4; trial++ {
		indices := []uint64{uint64(trial * 90), uint64(trial*90 + 31), uint64(trial*90 + 62), 7}
		before := store.Stats()
		recs, err := store.RetrieveBatch(ctx, indices)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range indices {
			if !bytes.Equal(recs[i], db.Record(int(idx))) {
				t.Fatalf("trial %d position %d (index %d): wrong bytes", trial, i, idx)
			}
		}
		after := store.Stats()
		for s := range after.Shards {
			delta := after.Shards[s].BatchQueries - before.Shards[s].BatchQueries
			if delta != perShard {
				t.Fatalf("trial %d shard %d received %d sub-queries, want constant %d", trial, s, delta, perShard)
			}
		}
	}
}

// TestCodedTrafficShapeAcrossBatches is the privacy acceptance check:
// two coded batches asking for different records must put the SAME
// number of bytes on the wire, in both directions. DPF keys are
// fixed-size for a fixed domain, so equality is exact, not approximate.
func TestCodedTrafficShapeAcrossBatches(t *testing.T) {
	ctx := context.Background()
	const n, recordSize = 256, 32
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 4, 2, 1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := startCodedFlat(t, db, code)

	// Interpose the counting tap on party 0.
	tap := startWireTap(t, d.Shards[0].Parties[0].Replicas[0])
	d.Shards[0].Parties[0].Replicas[0] = tap.addr

	store := openFromJSON(t, ctx, d)

	settle := func() (uint64, uint64) { return tap.n[1].Load(), tap.n[3].Load() }
	var up, down [2]uint64
	for b, indices := range [2][]uint64{{10, 77, 140, 203}, {30, 99, 160, 220}} {
		up0, down0 := settle()
		recs, err := store.RetrieveBatch(ctx, indices)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range indices {
			if !bytes.Equal(recs[i], db.Record(int(idx))) {
				t.Fatalf("batch %d position %d (index %d): wrong bytes", b, i, idx)
			}
		}
		up1, down1 := settle()
		up[b], down[b] = up1-up0, down1-down0
	}
	if st := store.Stats(); st.CodedBatches != 2 || st.CodeFallbacks != 0 {
		t.Fatalf("stats: coded=%d fallbacks=%d, want both batches coded", st.CodedBatches, st.CodeFallbacks)
	}
	if up[0] != up[1] || down[0] != down[1] {
		t.Fatalf("wire traffic differs between batches of different records: %d↑/%d↓ bytes vs %d↑/%d↓ bytes",
			up[0], down[0], up[1], down[1])
	}
	if up[0] == 0 || down[0] == 0 {
		t.Fatal("tap counted no traffic; test harness is broken")
	}
}

// startCodedKV serves 40 keyword pairs from a flat two-party deployment
// declaring both a keyword table and a batch code.
func startCodedKV(t *testing.T) (Deployment, []KVPair) {
	t.Helper()
	pairs := make([]KVPair, 40)
	for i := range pairs {
		pairs[i] = KVPair{
			Key:   []byte(fmt.Sprintf("key-%03d", i)),
			Value: []byte(fmt.Sprintf("value-%03d", i)),
		}
	}
	db, kvm, err := BuildKVDB(pairs, KVTableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	code, err := batchcode.Derive(uint64(db.NumRecords()), db.RecordSize(), 8, 2, 2, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	d := startCodedFlat(t, db, code).WithKeyword(kvm)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, pairs
}

// TestCodedKeywordE2E: the keyword layer rides the coded path — OpenKV
// over a deployment declaring both a keyword table and a batch code
// serves Get/GetBatch through the batch planner.
func TestCodedKeywordE2E(t *testing.T) {
	ctx := context.Background()
	d, pairs := startCodedKV(t)
	kv, err := OpenKV(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, ok := kv.Store().(*Client); !ok {
		t.Fatalf("keyword client probes a %T, want *Client", kv.Store())
	}

	for i := 0; i < 10; i++ {
		val, err := kv.Get(ctx, pairs[i].Key)
		if err != nil {
			t.Fatalf("Get(%q): %v", pairs[i].Key, err)
		}
		if !bytes.Equal(val, pairs[i].Value) {
			t.Fatalf("Get(%q) = %q, want %q", pairs[i].Key, val, pairs[i].Value)
		}
	}
	if _, err := kv.Get(ctx, []byte("key-999")); err != ErrNotFound {
		t.Fatalf("absent key: err = %v, want ErrNotFound", err)
	}
	st := kv.Store().Stats()
	if st.CodedBatches == 0 {
		t.Fatal("keyword probes never rode the coded batch path")
	}
}

// TestAnotherClientsPutIsVisible: a client keeps no records between
// calls, so after another client's Put its next Get reads the new value.
func TestAnotherClientsPutIsVisible(t *testing.T) {
	ctx := context.Background()
	d, pairs := startCodedKV(t)
	a, err := OpenKV(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenKV(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 10; i++ {
		key := pairs[i].Key
		if val, err := a.Get(ctx, key); err != nil || !bytes.Equal(val, pairs[i].Value) {
			t.Fatalf("first Get(%q) = %q, %v; want %q", key, val, err, pairs[i].Value)
		}
		fresh := []byte(fmt.Sprintf("fresh-%03d", i))
		if err := b.Put(ctx, key, fresh); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
		if val, err := a.Get(ctx, key); err != nil || !bytes.Equal(val, fresh) {
			t.Fatalf("Get(%q) after another client's Put = %q, %v; want %q", key, val, err, fresh)
		}
	}
}

// TestCodedStoreFallback: batches over the declared cap fall back to the
// uncoded translation — still correct, counted, and shaped like the
// pre-code deployment.
func TestCodedStoreFallback(t *testing.T) {
	ctx := context.Background()
	const n, recordSize = 200, 32
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 4, 2, 1, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	d := startCodedFlat(t, db, code)
	store := openFromJSON(t, ctx, d)

	indices := []uint64{1, 30, 60, 90, 120, 150} // 6 > MaxBatch of 4
	recs, err := store.RetrieveBatch(ctx, indices)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range indices {
		if !bytes.Equal(recs[i], db.Record(int(idx))) {
			t.Fatalf("fallback position %d (index %d): wrong bytes", i, idx)
		}
	}
	st := store.Stats()
	if st.CodeFallbacks != 1 || st.CodedBatches != 0 {
		t.Fatalf("stats: fallbacks=%d coded=%d, want exactly one fallback and no coded batch", st.CodeFallbacks, st.CodedBatches)
	}
}

// TestCodedStoreUpdate: a logical update must reach every coded copy, so
// no later read — coded batch or single retrieval — can serve stale
// bytes.
func TestCodedStoreUpdate(t *testing.T) {
	ctx := context.Background()
	const n, recordSize = 200, 32
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 4, 2, 1, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	d := startCodedFlat(t, db, code)
	store := openFromJSON(t, ctx, d)

	const idx = 55
	if _, err := store.Retrieve(ctx, idx); err != nil { // read the old record
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xAB}, recordSize)
	if err := store.Update(ctx, map[uint64][]byte{idx: fresh}); err != nil {
		t.Fatal(err)
	}

	// Single retrieval must not serve the old copy.
	rec, err := store.Retrieve(ctx, idx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, fresh) {
		t.Fatal("Retrieve served stale bytes after Update; its first copy was not rewritten")
	}
	// Every coded copy was updated: a batch may route the record through
	// any of its r copies, so exercise the planner a few times.
	for trial := 0; trial < 4; trial++ {
		recs, err := store.RetrieveBatch(ctx, []uint64{idx, uint64(trial * 40)})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(recs[0], fresh) {
			t.Fatalf("trial %d: coded batch served a stale copy; Update missed a bucket replica", trial)
		}
	}
}

// startHookedServer serves db as party through a shimEngine running
// after once per pass, with wire updates allowed, over loopback TCP.
func startHookedServer(t *testing.T, db *DB, party uint8, after func()) string {
	t.Helper()
	cpu, err := engine.NewCPUPricer(2)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(cpu)
	if err := eng.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sched := newScheduler(t, &shimEngine{Engine: eng, after: after}, scheduler.Config{})
	srv, err := transport.NewServer(lis, sched, party, transport.WithWireUpdates(), transport.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// TestCodedStoreUpdateRacingRetrieve: a read that straddles an Update
// returns the record it read, and the next read returns the new record.
// On two coded shards, a record whose every copy lives on shard 0 is
// read while shard 1 holds its (dummy) answer back; the Update lands in
// that window, then shard 1 is released.
func TestCodedStoreUpdateRacingRetrieve(t *testing.T) {
	ctx := context.Background()
	const n, recordSize = 200, 32
	db := codedTestDB(t, n, recordSize)
	code, err := batchcode.Derive(n, recordSize, 4, 2, 1, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := batchcode.Encode(db, code)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitDB(coded, 2)
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan struct{}, 2) // shard 0's parties answered a pass
	signal := func() {
		select {
		case answered <- struct{}{}:
		default:
		}
	}
	release := make(chan struct{}) // shard 1's parties may answer
	hold := func() { <-release }
	cohorts := [][]string{
		{startHookedServer(t, parts[0], 0, signal), startHookedServer(t, parts[0], 1, signal)},
		{startHookedServer(t, parts[1], 0, hold), startHookedServer(t, parts[1], 1, hold)},
	}
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the servers close, even on failure
	m, err := UniformManifest(code.TotalRows(), recordSize, cohorts)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := batchcode.NewLayout(code)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i := 0; i < n && idx < 0; i++ {
		idx = i
		for j := 0; j < code.Choices; j++ {
			if layout.Row(uint64(i), j) >= m.Shards[0].NumRecords {
				idx = -1
			}
		}
	}
	if idx < 0 {
		t.Fatal("no record has every copy on shard 0")
	}
	store := openFromJSON(t, ctx, m.WithBatchCode(code))

	type result struct {
		rec []byte
		err error
	}
	raced := make(chan result, 1)
	go func() {
		rec, err := store.Retrieve(ctx, uint64(idx))
		raced <- result{rec, err}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			t.Fatal("shard 0 never answered the racing Retrieve")
		}
	}
	fresh := bytes.Repeat([]byte{0xCD}, recordSize)
	if err := store.Update(ctx, map[uint64][]byte{uint64(idx): fresh}); err != nil {
		t.Fatal(err)
	}
	unblock()
	if r := <-raced; r.err != nil || !bytes.Equal(r.rec, db.Record(idx)) {
		t.Fatalf("racing Retrieve = %x, %v; want the record it read before the Update", r.rec, r.err)
	}
	rec, err := store.Retrieve(ctx, uint64(idx))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, fresh) {
		t.Fatal("Retrieve after the Update served the record it replaced")
	}
}

// TestDeploymentBatchCodeValidation: manifests that contradict their
// batch code must be rejected at Validate time, before any dial.
func TestDeploymentBatchCodeValidation(t *testing.T) {
	code, err := batchcode.Derive(100, 32, 4, 2, 1, 8, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Record size contradiction.
	d := FlatDeployment("a:1", "b:1").WithBatchCode(code)
	d.RecordSize = 64
	if err := d.Validate(); err == nil {
		t.Fatal("record-size mismatch accepted")
	}

	// Declared row count that is not the coded row count.
	m, err := UniformManifest(code.TotalRows()+5, 32, [][]string{{"a:1", "b:1"}, {"c:1", "d:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WithBatchCode(code).Validate(); err == nil {
		t.Fatal("wrong coded row count accepted")
	}

	// Bucket-misaligned shard count: 4 buckets cannot route over 3 shards.
	m3, err := UniformManifest(code.TotalRows(), 32, [][]string{{"a:1", "b:1"}, {"c:1", "d:1"}, {"e:1", "f:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.WithBatchCode(code).Validate(); err == nil {
		t.Fatal("bucket-misaligned shards accepted")
	}

	// Keyword table whose bucket count the code does not cover.
	pairs := []KVPair{{Key: []byte("k"), Value: []byte("v")}}
	_, kvm, err := BuildKVDB(pairs, KVTableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if kvm.TotalBuckets() != code.NumRecords {
		if err := FlatDeployment("a:1", "b:1").WithKeyword(kvm).WithBatchCode(code).Validate(); err == nil {
			t.Fatal("keyword/code bucket-count mismatch accepted")
		}
	}
}
