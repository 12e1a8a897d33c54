package impir

import "github.com/impir/impir/internal/cluster"

// SplitDB carves a database into shards contiguous row-range replicas
// (sizes differ by at most one; ragged last shard when N % shards != 0),
// the ranges UniformManifest lists. Load each returned database into
// every replica of the matching cohort.
func SplitDB(db *DB, shards int) ([]*DB, error) { return cluster.SplitDB(db, shards) }
