package impir

import (
	"bytes"
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/impir/impir/internal/database"
	"github.com/impir/impir/internal/keyword"
)

// openFromJSON round-trips the deployment through its JSON form before
// opening, so every topology test exercises the deployment.json path,
// not just the in-memory structs.
func openFromJSON(t *testing.T, ctx context.Context, d Deployment, opts ...ClientOption) Store {
	t.Helper()
	data, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDeployment(data)
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(ctx, parsed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestOpenFlatTopologyE2E: one Open + deployment.json drives the flat
// two-server topology over TCP.
func TestOpenFlatTopologyE2E(t *testing.T) {
	db, _ := GenerateHashDB(700, 41)
	addrs := startDeployment(t, db, 2)
	ctx := context.Background()

	store := openFromJSON(t, ctx, FlatDeployment(addrs...))
	if _, ok := store.(*Client); !ok {
		t.Fatalf("flat deployment opened as %T", store)
	}
	for _, idx := range []uint64{0, 350, 699} {
		rec, err := store.Retrieve(ctx, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("record %d wrong", idx)
		}
	}
	recs, err := store.RetrieveBatch(ctx, []uint64{5, 9, 500})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range []uint64{5, 9, 500} {
		if !bytes.Equal(recs[i], db.Record(int(idx))) {
			t.Fatalf("batch record %d wrong", idx)
		}
	}
	st := store.Stats()
	if st.Retrievals != 3 || st.BatchRetrievals != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestOpenShardedTopologyE2E: the same Open + deployment.json drives a
// 2-shard × 2-replica cluster, answering byte-identically to the
// unsharded database, with updates routed to the owning cohort.
func TestOpenShardedTopologyE2E(t *testing.T) {
	db, _ := GenerateHashDB(600, 42)
	m, _ := startCluster(t, db, 2)
	ctx := context.Background()

	store := openFromJSON(t, ctx, m)
	if _, ok := store.(*Client); !ok {
		t.Fatalf("sharded deployment opened as %T", store)
	}
	for _, idx := range []uint64{0, 299, 300, 599} { // both sides of the shard boundary
		rec, err := store.Retrieve(ctx, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("record %d wrong through sharded store", idx)
		}
	}
	newRec := bytes.Repeat([]byte{0x5A}, db.RecordSize())
	if err := store.Update(ctx, map[uint64][]byte{450: newRec}); err != nil {
		t.Fatal(err)
	}
	rec, err := store.Retrieve(ctx, 450)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, newRec) {
		t.Fatal("routed update not visible")
	}
}

// TestOpenKVTopologiesE2E: OpenKV + deployment.json (keyword section)
// drives both the flat and the sharded keyword topology over TCP.
func TestOpenKVTopologiesE2E(t *testing.T) {
	pairs := keyword.GeneratePairs(300, 43)
	kvdb, m, err := BuildKVDB(pairs, KVTableOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	check := func(t *testing.T, kv *KVClient) {
		t.Helper()
		val, err := kv.Get(ctx, pairs[17].Key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(val, pairs[17].Value) {
			t.Fatal("wrong value")
		}
		if _, err := kv.Get(ctx, []byte("absent")); err != ErrNotFound {
			t.Fatalf("miss returned %v", err)
		}
	}

	t.Run("flat", func(t *testing.T) {
		addrs := startDeployment(t, kvdb, 2)
		d := FlatDeployment(addrs...).WithKeyword(m)
		data, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseDeployment(data)
		if err != nil {
			t.Fatal(err)
		}
		kv, err := OpenKV(ctx, parsed)
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		check(t, kv)
	})

	t.Run("sharded", func(t *testing.T) {
		cm, _ := startCluster(t, kvdb, 2)
		d := cm.WithKeyword(m)
		data, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseDeployment(data)
		if err != nil {
			t.Fatal(err)
		}
		kv, err := OpenKV(ctx, parsed)
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		check(t, kv)
	})

	if _, err := OpenKV(ctx, FlatDeployment("a:1", "b:1")); err == nil {
		t.Fatal("OpenKV accepted a deployment without a keyword table")
	}
}

// startReplicaSetDeployment serves party 0 from two replicas — one
// artificially slow by slowDelay per query — and party 1 from one fast
// replica, returning the deployment. The slow replica is listed FIRST,
// so a cold client picks it as party 0's primary.
func startReplicaSetDeployment(t *testing.T, db *database.DB, slowDelay time.Duration) Deployment {
	t.Helper()
	slow := startShimServer(t, db, slowDelay, nil)
	fastA := startShimServer(t, db, 0, nil)
	fastB := startShimServer(t, db, 0, nil)
	return ReplicatedDeployment([]string{slow, fastA}, []string{fastB})
}

func percentile(durs []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), durs...)
	slices.Sort(sorted)
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TestHedgedFanOutTailLatencyE2E is the acceptance fixture: one replica
// of party 0 stalls every query by slowDelay. Unhedged, a cold client
// pays the stall (its first call lands on the slow primary); hedged,
// the fast replica's answer wins after the hedge delay and p99
// improves by an order of magnitude. The reconstruction must be
// byte-identical either way — the fast replica's answer IS the party's
// answer.
func TestHedgedFanOutTailLatencyE2E(t *testing.T) {
	const (
		slowDelay  = 500 * time.Millisecond
		hedgeFloor = 15 * time.Millisecond
		calls      = 12
	)
	db, err := database.GenerateHashDB(1024, 44)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	run := func(t *testing.T, hedge bool) ([]time.Duration, StoreStats) {
		d := startReplicaSetDeployment(t, db, slowDelay)
		store, err := Open(ctx, d, WithDefaultCallOptions(
			WithHedging(hedge), WithHedgeDelay(hedgeFloor)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		durs := make([]time.Duration, calls)
		for i := 0; i < calls; i++ {
			idx := uint64(i * 50)
			start := time.Now()
			rec, err := store.Retrieve(ctx, idx)
			durs[i] = time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, db.Record(int(idx))) {
				t.Fatalf("call %d: wrong record (hedge=%v)", i, hedge)
			}
		}
		return durs, store.Stats()
	}

	unhedged, ust := run(t, false)
	hedged, hst := run(t, true)

	// The unhedged cold client paid the slow primary at least once…
	if max := percentile(unhedged, 0.99); max < slowDelay {
		t.Fatalf("unhedged p99 %v never hit the slow replica (fixture broken?)", max)
	}
	// …the hedged client never did: the fast replica's answer won.
	hedgedP99 := percentile(hedged, 0.99)
	if hedgedP99 >= slowDelay/2 {
		t.Fatalf("hedged p99 %v did not beat the %v stall", hedgedP99, slowDelay)
	}
	if hedgedP99 >= percentile(unhedged, 0.99) {
		t.Fatalf("hedged p99 %v not better than unhedged %v", hedgedP99, percentile(unhedged, 0.99))
	}
	if hst.Hedges == 0 || hst.HedgeWins == 0 {
		t.Fatalf("hedging never fired: %+v", hst)
	}
	if ust.Hedges != 0 || ust.HedgeWins != 0 {
		t.Fatalf("unhedged client hedged anyway: %+v", ust)
	}
	t.Logf("p99 unhedged=%v hedged=%v (hedges=%d wins=%d)",
		percentile(unhedged, 0.99), hedgedP99, hst.Hedges, hst.HedgeWins)
}

// deadAddr reserves a loopback address and immediately stops listening
// on it: a permanently dead replica.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestReplyOfWrongLengthIsAnError: servers reloaded with records of a
// size other than the one their hello announced answer every query
// frame with subresults of the new size. A store must refuse such a
// reply with an error naming both lengths, never return it as a record.
func TestReplyOfWrongLengthIsAnError(t *testing.T) {
	db, _ := GenerateHashDB(700, 47)
	short, err := NewDatabase(db.NumRecords(), db.RecordSize()/2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{2, 3} { // DPF keys, then selector shares
		for _, batch := range []bool{false, true} {
			addrs, servers := startShardCohort(t, db, n)
			store := openFromJSON(t, ctx, FlatDeployment(addrs...))
			for _, srv := range servers {
				if err := srv.Load(short.Clone()); err != nil {
					t.Fatal(err)
				}
			}
			var got int
			if batch {
				var recs [][]byte
				recs, err = store.RetrieveBatch(ctx, []uint64{5, 9})
				got = len(recs)
			} else {
				var rec []byte
				rec, err = store.Retrieve(ctx, 5)
				got = len(rec)
			}
			if err == nil || !strings.Contains(err.Error(), "16 bytes") || !strings.Contains(err.Error(), "32-byte") {
				t.Errorf("%d servers, batch %v: got %d, err %v; want an error naming 16 and 32 bytes", n, batch, got, err)
			}
			if store.RecordSize() != db.RecordSize() {
				t.Errorf("%d servers: RecordSize() = %d, want the announced %d", n, store.RecordSize(), db.RecordSize())
			}
		}
	}
}

// TestReplicaLossTolerated: a party with a dead replica keeps serving
// retrievals through its surviving replica — at open and after a
// mid-session crash — while updates (which must land on every replica)
// refuse to proceed.
func TestReplicaLossTolerated(t *testing.T) {
	db, _ := GenerateHashDB(512, 45)
	ctx := context.Background()
	live := startDeployment(t, db, 2)

	d := ReplicatedDeployment([]string{deadAddr(t), live[0]}, []string{live[1]})
	store, err := Open(ctx, d)
	if err != nil {
		t.Fatalf("open with one dead replica failed: %v", err)
	}
	defer store.Close()

	rec, err := store.Retrieve(ctx, 77)
	if err != nil {
		t.Fatalf("retrieval with one dead replica failed: %v", err)
	}
	if !bytes.Equal(rec, db.Record(77)) {
		t.Fatal("wrong record")
	}

	// Updates must land on every replica; a dead one blocks them.
	if err := store.Update(ctx, map[uint64][]byte{3: bytes.Repeat([]byte{1}, db.RecordSize())}); err == nil {
		t.Fatal("update succeeded with a dead replica")
	}
}

// TestReplicaCrashMidSessionTolerated: both replicas healthy at open;
// one crashes afterwards. Subsequent retrievals keep succeeding via the
// survivor (the dead primary's failure launches the hedge immediately).
func TestReplicaCrashMidSessionTolerated(t *testing.T) {
	db, _ := GenerateHashDB(512, 46)
	ctx := context.Background()

	crashable, servers := startShardCohort(t, db, 1)
	live := startDeployment(t, db, 2)
	d := ReplicatedDeployment([]string{crashable[0], live[0]}, []string{live[1]})

	store, err := Open(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Retrieve(ctx, 5); err != nil {
		t.Fatal(err)
	}

	servers[0].Close() // crash party 0's first replica mid-session

	for i := 0; i < 3; i++ {
		rec, err := store.Retrieve(ctx, uint64(100+i))
		if err != nil {
			t.Fatalf("retrieve %d after replica crash: %v", i, err)
		}
		if !bytes.Equal(rec, db.Record(100+i)) {
			t.Fatalf("wrong record after replica crash")
		}
	}
}
