package impir

import "github.com/impir/impir/internal/cluster"

// Sharded deployments: the topology, planning, and database-carving
// layer lives in internal/cluster; the root package re-exports it here.

// ShardManifest describes a sharded deployment's topology: contiguous
// row-range shards, each served by a cohort of ≥ 2 non-colluding
// replicas. Manifests round-trip through JSON (ParseManifest /
// LoadManifest / ShardManifest.JSON) for command-line flags and config
// files.
//
// ShardManifest predates the unified Deployment manifest, which
// additionally expresses replica sets per party and keyword tables;
// every ShardManifest lifts losslessly via DeploymentFromManifest, and
// ParseDeployment accepts shard-manifest JSON directly.
type ShardManifest = cluster.Manifest

// ClusterShard is one row-range shard of a ShardManifest.
type ClusterShard = cluster.Shard

// ParseManifest decodes and validates a JSON shard manifest.
func ParseManifest(data []byte) (ShardManifest, error) { return cluster.Parse(data) }

// LoadManifest reads and validates a JSON shard manifest file.
func LoadManifest(path string) (ShardManifest, error) { return cluster.Load(path) }

// UniformManifest builds a manifest splitting numRecords records of
// recordSize bytes across len(cohorts) shards with sizes differing by
// at most one (ragged last shard when the division is uneven).
func UniformManifest(numRecords uint64, recordSize int, cohorts [][]string) (ShardManifest, error) {
	return cluster.Uniform(numRecords, recordSize, cohorts)
}

// SplitDB carves a database into shards contiguous row-range replicas
// (sizes differ by at most one; ragged last shard when N % shards != 0).
// Load each returned database into every replica of the matching
// cohort.
func SplitDB(db *DB, shards int) ([]*DB, error) { return cluster.SplitDB(db, shards) }

// SplitDBByManifest carves a database along a manifest's shard ranges.
func SplitDBByManifest(db *DB, m ShardManifest) ([]*DB, error) {
	return cluster.SplitByManifest(db, m)
}
