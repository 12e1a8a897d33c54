package impir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/impir/impir/internal/keyword"
)

// fakeKVStore serves a KV table database in-process and records every
// probe batch, so tests can assert the exact wire shape of lookups —
// the property the privacy argument rests on.
type fakeKVStore struct {
	db      *DB
	batches [][]uint64
	updates []map[uint64][]byte
	failGet bool
}

func (f *fakeKVStore) Retrieve(ctx context.Context, index uint64, opts ...CallOption) ([]byte, error) {
	recs, err := f.RetrieveBatch(ctx, []uint64{index}, opts...)
	if err != nil {
		return nil, err
	}
	return recs[0], nil
}

func (f *fakeKVStore) RetrieveBatch(_ context.Context, indices []uint64, _ ...CallOption) ([][]byte, error) {
	f.batches = append(f.batches, append([]uint64(nil), indices...))
	if f.failGet {
		return nil, errors.New("fake: retrieval failed")
	}
	out := make([][]byte, len(indices))
	for i, idx := range indices {
		if idx >= uint64(f.db.NumRecords()) {
			return nil, fmt.Errorf("fake: index %d out of range", idx)
		}
		out[i] = append([]byte(nil), f.db.Record(int(idx))...)
	}
	return out, nil
}

func (f *fakeKVStore) Update(_ context.Context, updates map[uint64][]byte, _ ...CallOption) error {
	f.updates = append(f.updates, updates)
	for idx, rec := range updates {
		if err := f.db.SetRecord(int(idx), rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeKVStore) NumRecords() uint64 { return uint64(f.db.NumRecords()) }
func (f *fakeKVStore) RecordSize() int    { return f.db.RecordSize() }
func (f *fakeKVStore) Stats() StoreStats  { return StoreStats{} }
func (f *fakeKVStore) Close() error       { return nil }

func newTestKV(t *testing.T, n int, seed int64) (*KVClient, *fakeKVStore, []KVPair) {
	t.Helper()
	pairs := keyword.GeneratePairs(n, seed)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	store := &fakeKVStore{db: db}
	kv, err := newKVClient(store, m)
	if err != nil {
		t.Fatal(err)
	}
	return kv, store, pairs
}

func TestKVGetHitAndMissIdenticalShape(t *testing.T) {
	kv, store, pairs := newTestKV(t, 200, 21)
	ctx := context.Background()

	hit, err := kv.Get(ctx, pairs[17].Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, pairs[17].Value) {
		t.Fatal("Get returned the wrong value")
	}
	if _, err := kv.Get(ctx, []byte("absent-key")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v, want ErrNotFound", err)
	}

	// One RetrieveBatch each, identical length — the constant shape.
	if len(store.batches) != 2 {
		t.Fatalf("issued %d probe batches, want 2", len(store.batches))
	}
	want := kv.ProbesPerKey()
	for i, b := range store.batches {
		if len(b) != want {
			t.Fatalf("batch %d probes %d buckets, want %d (hit and miss must match)", i, len(b), want)
		}
	}
	// The stash tail is byte-identical across the two probes.
	m := kv.Manifest()
	k := m.Hashes()
	for i := 0; i < int(m.StashBuckets); i++ {
		if store.batches[0][k+i] != store.batches[1][k+i] {
			t.Fatal("stash probes differ between hit and miss")
		}
	}

	st := kv.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %v, want 2 gets / 1 hit / 1 miss", st)
	}
}

func TestKVGetBatch(t *testing.T) {
	kv, store, pairs := newTestKV(t, 150, 5)
	ctx := context.Background()

	keys := [][]byte{pairs[0].Key, []byte("missing-one"), pairs[149].Key, []byte("missing-two")}
	vals, err := kv.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(keys) {
		t.Fatalf("got %d values for %d keys", len(vals), len(keys))
	}
	if !bytes.Equal(vals[0], pairs[0].Value) || !bytes.Equal(vals[2], pairs[149].Value) {
		t.Fatal("present keys returned wrong values")
	}
	if vals[1] != nil || vals[3] != nil {
		t.Fatal("absent keys returned non-nil values")
	}

	// Shape: n·k candidate probes + the stash once, in one batch.
	m := kv.Manifest()
	wantLen := len(keys)*m.Hashes() + int(m.StashBuckets)
	if len(store.batches) != 1 || len(store.batches[0]) != wantLen {
		t.Fatalf("batch shape %d (in %d round trips), want %d in 1",
			len(store.batches[0]), len(store.batches), wantLen)
	}

	// Empty batch: no network, empty non-nil result.
	empty, err := kv.GetBatch(ctx, nil)
	if err != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("empty GetBatch: %v, %v", empty, err)
	}
	if len(store.batches) != 1 {
		t.Fatal("empty GetBatch touched the store")
	}

	// Oversized key fails before any probe.
	if _, err := kv.GetBatch(ctx, [][]byte{bytes.Repeat([]byte{'x'}, m.KeySize+1)}); !errors.Is(err, keyword.ErrKeyTooLong) {
		t.Fatalf("over-long key: %v, want ErrKeyTooLong", err)
	}
	if len(store.batches) != 1 {
		t.Fatal("invalid key still probed the store")
	}
}

func TestKVPutDelete(t *testing.T) {
	kv, store, pairs := newTestKV(t, 100, 8)
	ctx := context.Background()

	// Insert a fresh key, read it back.
	newKey, newVal := []byte("brand-new"), []byte("inserted-value")
	if err := kv.Put(ctx, newKey, newVal); err != nil {
		t.Fatal(err)
	}
	if len(store.updates) != 1 || len(store.updates[0]) != 1 {
		t.Fatalf("Put pushed %d updates, want exactly one single-bucket rewrite", len(store.updates))
	}
	got, err := kv.Get(ctx, newKey)
	if err != nil || !bytes.Equal(got, newVal) {
		t.Fatalf("Get after Put: %q, %v", got, err)
	}

	// Overwrite an existing key in place.
	if err := kv.Put(ctx, pairs[3].Key, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	got, err = kv.Get(ctx, pairs[3].Key)
	if err != nil || !bytes.Equal(got, []byte("rewritten")) {
		t.Fatalf("Get after overwrite: %q, %v", got, err)
	}

	// Delete and confirm the miss; deleting again reports ErrNotFound
	// without an update.
	updatesBefore := len(store.updates)
	if err := kv.Delete(ctx, pairs[3].Key); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Get(ctx, pairs[3].Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}
	if err := kv.Delete(ctx, pairs[3].Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: %v, want ErrNotFound", err)
	}
	if len(store.updates) != updatesBefore+1 {
		t.Fatalf("Delete pushed %d updates, want 1", len(store.updates)-updatesBefore)
	}

	// Over-long value rejected before any traffic.
	m := kv.Manifest()
	if err := kv.Put(ctx, []byte("k"), bytes.Repeat([]byte{1}, m.ValueSize+1)); !errors.Is(err, keyword.ErrValueTooLong) {
		t.Fatalf("over-long value: %v, want ErrValueTooLong", err)
	}

	st := kv.Stats()
	if st.Puts != 3 || st.Deletes != 2 || st.Errors != 2 {
		t.Fatalf("stats %v, want 3 puts / 2 deletes / 2 errors", st)
	}
}

// TestKVPutFull drives Put into a table whose candidate buckets and
// stash are all occupied for the new key's probes.
func TestKVPutFull(t *testing.T) {
	// 6 pairs exactly fill the 4 hash + 2 stash slots.
	pairs := keyword.GeneratePairs(6, 6)
	db, m, err := BuildKVDB(pairs, KVTableOptions{
		NumBuckets:     2,
		BucketCapacity: 2,
		Hashes:         2,
		StashBuckets:   1,
		MaxKicks:       16,
		Seed:           6,
	})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := newKVClient(&fakeKVStore{db: db}, m)
	if err != nil {
		t.Fatal(err)
	}
	err = kv.Put(context.Background(), []byte("one-more"), []byte("v"))
	if !errors.Is(err, ErrKVFull) {
		t.Fatalf("Put into a full table: %v, want ErrKVFull", err)
	}
}

// TestKVEmptyValueHit: a key stored with an empty value is a
// membership-set entry, not a miss — Get must return it (as an empty
// non-nil slice), never ErrNotFound.
func TestKVEmptyValueHit(t *testing.T) {
	pairs := []KVPair{
		{Key: []byte("member-1"), Value: nil},
		{Key: []byte("member-2"), Value: []byte{}},
		{Key: []byte("member-3"), Value: []byte("x")},
	}
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := newKVClient(&fakeKVStore{db: db}, m)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, key := range [][]byte{[]byte("member-1"), []byte("member-2")} {
		v, err := kv.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get(%q) with empty stored value: %v", key, err)
		}
		if v == nil || len(v) != 0 {
			t.Fatalf("Get(%q) = %v, want empty non-nil value", key, v)
		}
	}
	vals, err := kv.GetBatch(ctx, [][]byte{[]byte("member-1"), []byte("absent")})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] == nil {
		t.Fatal("GetBatch reported a present empty-value key as a miss")
	}
	if vals[1] != nil {
		t.Fatal("GetBatch reported an absent key as a hit")
	}
}

func TestKVClientGeometryValidation(t *testing.T) {
	pairs := keyword.GeneratePairs(50, 4)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong record size: a hash DB, not the bucket encoding.
	hashDB, err := GenerateHashDB(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newKVClient(&fakeKVStore{db: hashDB}, m); err == nil {
		t.Fatal("record-size mismatch accepted")
	}
	// Too few records for the bucket count.
	short, err := NewDatabase(int(m.TotalBuckets())-1, m.RecordSize())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newKVClient(&fakeKVStore{db: short}, m); err == nil {
		t.Fatal("missing buckets accepted")
	}
	// Exact fit passes.
	if _, err := newKVClient(&fakeKVStore{db: db}, m); err != nil {
		t.Fatalf("exact geometry rejected: %v", err)
	}
}

func TestBuildKVDBGeometry(t *testing.T) {
	pairs := keyword.GeneratePairs(300, 12)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(db.NumRecords()) != m.TotalBuckets() {
		t.Fatalf("DB holds %d records, manifest says %d buckets", db.NumRecords(), m.TotalBuckets())
	}
	if db.RecordSize() != m.RecordSize() {
		t.Fatalf("DB record size %d, manifest bucket size %d", db.RecordSize(), m.RecordSize())
	}
	// The manifest round-trips through the root re-exports.
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseKVManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumBuckets != m.NumBuckets {
		t.Fatal("ParseKVManifest round trip changed the manifest")
	}
}

// TestKVProbedBucketsCountsSentProbes: ProbedBuckets counts the bucket
// records each probe batch retrieved, and nothing for an operation
// rejected before its probe went out.
func TestKVProbedBucketsCountsSentProbes(t *testing.T) {
	kv, store, pairs := newTestKV(t, 100, 9)
	ctx := context.Background()
	m := kv.Manifest()
	probed := func(op func() error) uint64 {
		t.Helper()
		before := kv.Stats().ProbedBuckets
		if err := op(); err != nil && !errors.Is(err, keyword.ErrValueTooLong) && !errors.Is(err, keyword.ErrKeyTooLong) {
			t.Fatal(err)
		}
		return kv.Stats().ProbedBuckets - before
	}
	if n := probed(func() error { return kv.Put(ctx, pairs[0].Key, bytes.Repeat([]byte{1}, m.ValueSize+1)) }); n != 0 {
		t.Errorf("oversize-value Put counted %d probes, want 0", n)
	}
	if n := probed(func() error { return kv.Delete(ctx, bytes.Repeat([]byte{'k'}, m.KeySize+1)) }); n != 0 {
		t.Errorf("oversize-key Delete counted %d probes, want 0", n)
	}
	if len(store.batches) != 0 {
		t.Fatalf("rejected operations sent %d probe batches", len(store.batches))
	}

	per := uint64(kv.ProbesPerKey())
	if n := probed(func() error { _, err := kv.Get(ctx, pairs[1].Key); return err }); n != per {
		t.Errorf("Get counted %d probes, want %d", n, per)
	}
	if n := probed(func() error { return kv.Put(ctx, pairs[2].Key, []byte("v")) }); n != per {
		t.Errorf("Put counted %d probes, want %d", n, per)
	}
	keys := [][]byte{pairs[3].Key, pairs[4].Key, []byte("absent")}
	want := uint64(len(keys)*m.Hashes()) + m.StashBuckets
	if n := probed(func() error { _, err := kv.GetBatch(ctx, keys); return err }); n != want {
		t.Errorf("3-key GetBatch counted %d probes, want %d", n, want)
	}
}
