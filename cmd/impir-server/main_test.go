package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/impir/impir"
	"github.com/impir/impir/internal/keyword"
)

func TestBuildDatabaseWorkloads(t *testing.T) {
	for _, w := range []string{"hash", "ct", "credentials", "blocklist"} {
		db, err := buildDatabase(w, 64, 7)
		if err != nil {
			t.Fatalf("buildDatabase(%q): %v", w, err)
		}
		if db.NumRecords() != 64 || db.RecordSize() != 32 {
			t.Errorf("%q geometry = (%d,%d)", w, db.NumRecords(), db.RecordSize())
		}
	}
}

func TestBuildDatabaseDeterministicAcrossParties(t *testing.T) {
	a, err := buildDatabase("hash", 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildDatabase("hash", 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("two servers with the same flags built different replicas")
	}
}

func TestBuildDatabaseUnknownWorkload(t *testing.T) {
	if _, err := buildDatabase("nope", 64, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestBuildKVDatabaseDeterministicAcrossParties: two keyword servers
// started with the same -records/-seed must serve byte-identical
// tables and write byte-identical manifests — the replica agreement a
// KV deployment rests on.
func TestBuildKVDatabaseDeterministicAcrossParties(t *testing.T) {
	dir := t.TempDir()
	pathA, pathB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	a, err := buildKVDatabase(pathA, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildKVDatabase(pathB, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() {
		t.Fatal("two KV servers with the same flags built different replicas")
	}
	ma, err := impir.LoadKVManifest(pathA)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := impir.LoadKVManifest(pathB)
	if err != nil {
		t.Fatal(err)
	}
	if ma.NumBuckets != mb.NumBuckets || len(ma.HashSeeds) != len(mb.HashSeeds) ||
		ma.HashSeeds[0] != mb.HashSeeds[0] {
		t.Fatal("manifests differ between identically seeded servers")
	}
	if uint64(a.NumRecords()) != ma.TotalBuckets() || a.RecordSize() != ma.RecordSize() {
		t.Fatalf("served DB geometry (%d,%d) does not match the written manifest (%d,%d)",
			a.NumRecords(), a.RecordSize(), ma.TotalBuckets(), ma.RecordSize())
	}
}

// writeDeployment writes d as a deployment.json and returns its path.
func writeDeployment(t *testing.T, d impir.Deployment) string {
	t.Helper()
	data, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deployment.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBuildDeploymentDatabaseShards: servers of different shards started
// from one deployment.json carve disjoint, correctly sized slices of the
// same synthetic database.
func TestBuildDeploymentDatabaseShards(t *testing.T) {
	path := writeDeployment(t, impir.Deployment{RecordSize: 32, Shards: []impir.DeploymentShard{
		{FirstRecord: 0, NumRecords: 40, Parties: []impir.Party{
			{Replicas: []string{"a:1", "a:2"}}, {Replicas: []string{"b:1"}},
		}},
		{FirstRecord: 40, NumRecords: 24, Parties: []impir.Party{
			{Replicas: []string{"c:1"}}, {Replicas: []string{"d:1"}},
		}},
	}})
	full, err := buildDatabase("hash", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := buildDeploymentDatabase(path, 0, "hash", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := buildDeploymentDatabase(path, 1, "hash", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s0.NumRecords() != 40 || s1.NumRecords() != 24 {
		t.Fatalf("shard sizes (%d,%d), want (40,24)", s0.NumRecords(), s1.NumRecords())
	}
	if string(s0.Record(3)) != string(full.Record(3)) || string(s1.Record(5)) != string(full.Record(45)) {
		t.Fatal("shard rows do not match the full database")
	}
	flatPath := writeDeployment(t, impir.FlatDeployment("a:1", "b:1"))
	for _, c := range []struct {
		path  string
		shard int
	}{{path, 2}, {flatPath, 3}, {flatPath, -1}} {
		if _, err := buildDeploymentDatabase(c.path, c.shard, "hash", 64, 7); err == nil {
			t.Fatalf("shard %d outside %s accepted", c.shard, c.path)
		}
	}
	if _, err := buildDeploymentDatabase(path, 0, "hash", 128, 7); err == nil {
		t.Fatal("record-count mismatch against the manifest accepted")
	}

	// UniformManifest's deployment carves the shard bytes SplitDB does.
	u, err := impir.UniformManifest(1000, 32, [][]string{{"a:1", "b:1"}, {"c:1", "d:1"}, {"e:1", "f:1"}})
	if err != nil {
		t.Fatal(err)
	}
	uniformPath := writeDeployment(t, u)
	if full, err = buildDatabase("hash", 1000, 7); err != nil {
		t.Fatal(err)
	}
	refs, err := impir.SplitDB(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range []int{334, 333, 333} {
		got, err := buildDeploymentDatabase(uniformPath, s, "hash", 1000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRecords() != want || !bytes.Equal(got.Data(), refs[s].Data()) {
			t.Fatalf("shard %d: -deployment carved %d records, want %d identical to SplitDB's",
				s, got.NumRecords(), want)
		}
	}
}

// TestBuildDeploymentDatabaseKeywordMismatch: a deployment.json whose
// keyword section does not match the locally rebuilt table must be
// rejected before serving.
func TestBuildDeploymentDatabaseKeyword(t *testing.T) {
	pairs := keyword.GeneratePairs(100, 3)
	table, err := keyword.BuildTable(pairs, keyword.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := writeDeployment(t, impir.FlatDeployment("a:1", "b:1").WithKeyword(table.Manifest))

	db, err := buildDeploymentDatabase(path, 0, "hash", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.DB()
	if err != nil {
		t.Fatal(err)
	}
	if db.Digest() != want.Digest() {
		t.Fatal("rebuilt keyword database differs from the manifest's table")
	}
	// Wrong seed → different table → must be rejected, not served.
	if _, err := buildDeploymentDatabase(path, 0, "hash", 100, 4); err == nil {
		t.Fatal("keyword drift between deployment.json and rebuilt table accepted")
	}
}
