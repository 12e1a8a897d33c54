package impir

import (
	"bytes"
	"context"
	"net"
	"testing"
)

// startShardCohort serves replicas byte-identical copies of db over
// loopback TCP and returns their addresses plus the server handles (so
// tests can inspect replica state directly).
func startShardCohort(t *testing.T, db *DB, replicas int) ([]string, []*Server) {
	t.Helper()
	addrs := make([]string, replicas)
	servers := make([]*Server, replicas)
	for i := range addrs {
		srv, err := NewServer(ServerConfig{Engine: EngineCPU, Threads: 2, AllowWireUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if err := srv.Load(db.Clone()); err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(lis, uint8(i)); err != nil {
			t.Fatal(err)
		}
		addrs[i] = srv.Addr().String()
		servers[i] = srv
	}
	return addrs, servers
}

// startCluster splits db into shards cohorts of 2 parties each, serves
// them over TCP, and returns the deployment plus per-shard server handles.
func startCluster(t *testing.T, db *DB, shards int) (Deployment, [][]*Server) {
	t.Helper()
	parts, err := SplitDB(db, shards)
	if err != nil {
		t.Fatal(err)
	}
	cohorts := make([][]string, shards)
	servers := make([][]*Server, shards)
	for s, part := range parts {
		cohorts[s], servers[s] = startShardCohort(t, part, 2)
	}
	m, err := UniformManifest(uint64(db.NumRecords()), db.RecordSize(), cohorts)
	if err != nil {
		t.Fatal(err)
	}
	return m, servers
}

// TestClusterTwoShardsTwoReplicasE2E is the acceptance-criterion flow: a
// 2-shard × 2-replica deployment over real TCP retrieves correct records
// from both shards, a batch straddling the shard boundary matches the
// unsharded deployment byte-for-byte, and an update routed to one cohort
// is visible to subsequent retrievals without touching the other cohort.
func TestClusterTwoShardsTwoReplicasE2E(t *testing.T) {
	db, err := GenerateHashDB(128, 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m, servers := startCluster(t, db, 2)

	cc, err := Open(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.(*Client).Shards() != 2 || cc.NumRecords() != 128 || cc.RecordSize() != 32 {
		t.Fatalf("cluster geometry: %d shards, %d records × %dB", cc.(*Client).Shards(), cc.NumRecords(), cc.RecordSize())
	}

	// Single retrievals from both shards.
	for _, idx := range []uint64{0, 5, 63, 64, 100, 127} {
		rec, err := cc.Retrieve(ctx, idx)
		if err != nil {
			t.Fatalf("Retrieve(%d): %v", idx, err)
		}
		if !bytes.Equal(rec, db.Record(int(idx))) {
			t.Fatalf("Retrieve(%d) returned the wrong record", idx)
		}
	}
	if _, err := cc.Retrieve(ctx, 128); err == nil {
		t.Fatal("out-of-range retrieve accepted")
	}

	// A batch straddling the shard boundary must match an unsharded
	// deployment of the same database byte-for-byte.
	straddle := []uint64{62, 63, 64, 65, 1, 127}
	got, err := cc.RetrieveBatch(ctx, straddle)
	if err != nil {
		t.Fatal(err)
	}
	flatAddrs, _ := startShardCohort(t, db, 2)
	flat, err := Open(ctx, FlatDeployment(flatAddrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer flat.Close()
	want, err := flat.RetrieveBatch(ctx, straddle)
	if err != nil {
		t.Fatal(err)
	}
	for i := range straddle {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch item %d (global %d): sharded and unsharded results differ", i, straddle[i])
		}
	}

	// Empty batch: a no-op.
	empty, err := cc.RetrieveBatch(ctx, nil)
	if err != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("empty cluster batch: %v, %v (want empty non-nil slice)", empty, err)
	}

	// Update routing: a dirty row in shard 1 reaches only shard 1's
	// cohort and is visible to subsequent retrievals.
	const target = 100 // shard 1, local 36
	newRec := bytes.Repeat([]byte{0xC3}, 32)
	shard0Digest := servers[0][0].Database().Digest()
	if err := cc.Update(ctx, map[uint64][]byte{target: newRec}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	rec, err := cc.Retrieve(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, newRec) {
		t.Fatal("update not visible to subsequent retrieval")
	}
	if servers[0][0].Database().Digest() != shard0Digest {
		t.Fatal("update for shard 1 modified shard 0's replica")
	}
	if got := servers[1][0].Database().Record(36); !bytes.Equal(got, newRec) {
		t.Fatal("owning cohort replica 0 did not apply the routed update")
	}
	if got := servers[1][1].Database().Record(36); !bytes.Equal(got, newRec) {
		t.Fatal("owning cohort replica 1 did not apply the routed update")
	}

	st := cc.Stats()
	if st.Retrievals == 0 || st.BatchRetrievals != 1 || st.Updates != 1 {
		t.Errorf("cluster stats: %v", st)
	}
	if len(st.Shards) != 2 || st.Shards[0].Queries != st.Shards[1].Queries {
		t.Errorf("per-shard sub-query counts must be identical by construction: %v", st)
	}
	if st.Shards[0].UpdateRows != 0 || st.Shards[1].UpdateRows != 1 {
		t.Errorf("update rows misattributed: %v", st)
	}
}

// TestClusterRaggedShardsE2E: N % S != 0 — 10 records over 3 shards
// (4,3,3) and over 4 shards (3,3,2,2) — retrieves every record correctly
// and batches straddle the uneven boundaries.
func TestClusterRaggedShardsE2E(t *testing.T) {
	db, err := GenerateHashDB(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		shards int
		sizes  []uint64
	}{
		{3, []uint64{4, 3, 3}},
		{4, []uint64{3, 3, 2, 2}},
	} {
		m, _ := startCluster(t, db, tc.shards)
		for s, want := range tc.sizes {
			if m.Shards[s].NumRecords != want {
				t.Fatalf("%d shards: ragged split shapes: %+v", tc.shards, m.Shards)
			}
		}

		cc, err := Open(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		defer cc.Close()

		for idx := uint64(0); idx < 10; idx++ {
			rec, err := cc.Retrieve(ctx, idx)
			if err != nil {
				t.Fatalf("%d shards: Retrieve(%d): %v", tc.shards, idx, err)
			}
			if !bytes.Equal(rec, db.Record(int(idx))) {
				t.Fatalf("%d shards: Retrieve(%d) wrong record", tc.shards, idx)
			}
		}

		batch := []uint64{3, 4, 6, 7, 9, 0} // crosses the ragged boundaries
		recs, err := cc.RetrieveBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range batch {
			if !bytes.Equal(recs[i], db.Record(int(idx))) {
				t.Fatalf("%d shards: batch item %d (global %d) wrong", tc.shards, i, idx)
			}
		}
	}
}

// TestClusterDialValidation: the cluster client must reject topologies
// whose cohorts do not match the manifest geometry.
func TestClusterDialValidation(t *testing.T) {
	db, err := GenerateHashDB(64, 11)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Manifest claims 2 shards of 32, but both cohorts serve all 64
	// records: padded counts (64) disagree with the shard range (32→32).
	addrs, _ := startShardCohort(t, db, 2)
	bad := Deployment{RecordSize: 32, Shards: []DeploymentShard{
		{FirstRecord: 0, NumRecords: 32, Parties: singleReplicaParties(addrs)},
		{FirstRecord: 32, NumRecords: 32, Parties: singleReplicaParties(addrs)},
	}}
	if _, err := Open(ctx, bad); err == nil {
		t.Fatal("geometry-mismatched cohort accepted")
	}

	// Invalid topology fails before any dialing.
	if _, err := Open(ctx, Deployment{RecordSize: 32}); err == nil {
		t.Fatal("empty manifest accepted")
	}
}
