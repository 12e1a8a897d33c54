package impir

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/impir/impir/internal/keyword"
	"github.com/impir/impir/internal/metrics"
)

// TestKVStoreE2E is the acceptance-criterion flow: a keyword store
// served over real TCP by two replicas, where Get of a present key
// returns its value, Get of an absent key returns ErrNotFound, and
// both issue byte-identical batch shapes (one k+stash probe batch) per
// server; plus Put/Delete riding the wire-update path.
func TestKVStoreE2E(t *testing.T) {
	pairs := keyword.GeneratePairs(256, 31)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startShardCohort(t, db, 2)
	ctx := context.Background()

	kv, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(m))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	// Hit: a present key returns its value.
	before := snapshotQueues(servers)
	val, err := kv.Get(ctx, pairs[42].Key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(val, pairs[42].Value) {
		t.Fatal("Get returned the wrong value")
	}
	afterHit := snapshotQueues(servers)

	// Miss: an absent key returns ErrNotFound.
	if _, err := kv.Get(ctx, []byte("no-such-key")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key: %v, want ErrNotFound", err)
	}
	afterMiss := snapshotQueues(servers)

	// Per server, hit and miss each cost exactly one admitted request
	// and one engine pass — a single probe batch, identical shape.
	for i := range servers {
		hitReqs := afterHit[i].Submitted - before[i].Submitted
		missReqs := afterMiss[i].Submitted - afterHit[i].Submitted
		hitPasses := afterHit[i].Passes - before[i].Passes
		missPasses := afterMiss[i].Passes - afterHit[i].Passes
		if hitReqs != 1 || missReqs != 1 {
			t.Fatalf("server %d: hit=%d miss=%d admitted requests, want 1 each (identical traffic)", i, hitReqs, missReqs)
		}
		if hitPasses != missPasses {
			t.Fatalf("server %d: hit=%d miss=%d engine passes — shapes differ", i, hitPasses, missPasses)
		}
	}

	// Batched lookups mix hits and misses with no special-casing.
	keys := [][]byte{pairs[0].Key, []byte("missing-a"), pairs[255].Key}
	vals, err := kv.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0], pairs[0].Value) || vals[1] != nil || !bytes.Equal(vals[2], pairs[255].Value) {
		t.Fatal("GetBatch results wrong")
	}

	// Put a fresh key over the wire, read it back, delete it, miss it.
	key, value := []byte("wire-key"), []byte("wire-value")
	if err := kv.Put(ctx, key, value); err != nil {
		t.Fatal(err)
	}
	got, err := kv.Get(ctx, key)
	if err != nil || !bytes.Equal(got, value) {
		t.Fatalf("Get after wire Put: %q, %v", got, err)
	}
	// Overwrite in place.
	if err := kv.Put(ctx, key, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err = kv.Get(ctx, key)
	if err != nil || !bytes.Equal(got, []byte("second")) {
		t.Fatalf("Get after overwrite: %q, %v", got, err)
	}
	if err := kv.Delete(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := kv.Get(ctx, key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}

	st := kv.Stats()
	if st.Hits < 2 || st.Misses < 2 || st.Puts != 2 || st.Deletes != 1 {
		t.Fatalf("stats %v", st)
	}
}

func snapshotQueues(servers []*Server) []metrics.SchedulerStats {
	out := make([]metrics.SchedulerStats, len(servers))
	for i, s := range servers {
		out[i] = s.QueueStats()
	}
	return out
}

// TestKVClusterE2E: the same cuckoo table carved across two shard
// cohorts via SplitDB must answer identically to the unsharded store —
// hits, misses, and batches — through OpenKV on the sharded manifest.
func TestKVClusterE2E(t *testing.T) {
	pairs := keyword.GeneratePairs(200, 17)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Unsharded reference deployment.
	flatAddrs, _ := startShardCohort(t, db, 2)
	flat, err := OpenKV(ctx, FlatDeployment(flatAddrs...).WithKeyword(m))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()

	// Sharded deployment of the same table.
	cm, _ := startCluster(t, db, 2)
	sharded, err := OpenKV(ctx, cm.WithKeyword(m))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	probe := [][]byte{pairs[0].Key, pairs[99].Key, pairs[199].Key, []byte("absent-1"), []byte("absent-2")}
	for _, key := range probe {
		want, werr := flat.Get(ctx, key)
		got, gerr := sharded.Get(ctx, key)
		if (werr == nil) != (gerr == nil) || (werr != nil && !errors.Is(gerr, ErrNotFound)) {
			t.Fatalf("Get(%q): sharded err %v, unsharded err %v", key, gerr, werr)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("Get(%q): sharded and unsharded values differ", key)
		}
	}

	wantBatch, err := flat.GetBatch(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := sharded.GetBatch(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range probe {
		if !bytes.Equal(wantBatch[i], gotBatch[i]) {
			t.Fatalf("GetBatch item %d: sharded and unsharded differ", i)
		}
	}

	// A Put against the sharded store routes the bucket rewrite to the
	// owning cohort and is visible to subsequent sharded lookups.
	if err := sharded.Put(ctx, []byte("shard-key"), []byte("shard-val")); err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Get(ctx, []byte("shard-key"))
	if err != nil || !bytes.Equal(got, []byte("shard-val")) {
		t.Fatalf("sharded Get after Put: %q, %v", got, err)
	}
}

// TestOpenKVValidation: opening with a manifest that does not match the
// served database must fail fast.
func TestOpenKVValidation(t *testing.T) {
	pairs := keyword.GeneratePairs(64, 9)
	db, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startShardCohort(t, db, 2)
	ctx := context.Background()

	bad := m
	bad.ValueSize += 8 // record size no longer matches the served DB
	if _, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(bad)); err == nil {
		t.Fatal("mismatched manifest accepted")
	}
	invalid := m
	invalid.HashSeeds = nil
	if _, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(invalid)); err == nil {
		t.Fatal("invalid manifest accepted")
	}
	kv, err := OpenKV(ctx, FlatDeployment(addrs...).WithKeyword(m))
	if err != nil {
		t.Fatal(err)
	}
	kv.Close()
}
