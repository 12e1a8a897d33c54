// Package cluster turns S independent server cohorts — each a group of
// 2..n non-colluding parties holding one contiguous row-range shard of
// the database — into one logical PIR deployment.
//
// IM-PIR's "all-for-one" principle makes every query a linear scan of
// the whole replica, so a single server pair caps out at one machine's
// memory bandwidth. Horizontal partitioning cuts per-server scan work
// and memory by the shard factor while leaking nothing: the client
// queries EVERY shard cohort on every retrieval — the real sub-query on
// the shard that owns the record, a well-formed sub-query for a dummy
// local index on all others — so each cohort sees a valid PIR query
// regardless of the target, and learns nothing about which shard
// mattered (the standard partitioned-PIR construction).
//
// The package comprises a row plan (Manifest: the shards' row ranges,
// no addresses), a query planner mapping global indices to per-shard
// sub-query plans, and SplitDB to carve a database into shard replicas.
// Which servers hold each shard is the root package's Deployment; the
// network client driving every cohort concurrently — impir.Client,
// whose shard step this planner is — lives there too. This package
// deliberately stays below it (and below internal/bench) in the
// dependency order, so planners and benchmarks can reason about
// topologies without a network stack.
package cluster

import "fmt"

// Shard is one contiguous row range of the global database.
type Shard struct {
	// FirstRecord is the global index of the shard's first record.
	FirstRecord uint64
	// NumRecords is the number of records the shard holds (≥ 1).
	NumRecords uint64
}

// End returns the exclusive global upper bound of the shard's range.
func (s Shard) End() uint64 { return s.FirstRecord + s.NumRecords }

// Manifest is a sharded database's row plan: how the global record
// space is carved into contiguous row-range shards. The caller builds
// it from a validated topology and checks it with Validate, so the
// shards tile [0, NumRecords()) in ascending order.
type Manifest struct {
	// RecordSize is the record size in bytes, identical across shards.
	RecordSize int
	// Shards lists the row-range shards in ascending global order.
	Shards []Shard
}

// maxShards caps a row plan's shard count, mirroring the deployment
// cap, so a plan built from untrusted geometry cannot grow unbounded.
const maxShards = 4096

// Validate checks the row plan the planner relies on: a positive record
// size, between 1 and maxShards shards, and shards of ≥ 1 record tiling
// [0, NumRecords()) contiguously in ascending order.
func (m Manifest) Validate() error {
	if m.RecordSize < 1 {
		return fmt.Errorf("cluster: record size %d must be ≥ 1", m.RecordSize)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: manifest has no shards")
	}
	if len(m.Shards) > maxShards {
		return fmt.Errorf("cluster: manifest has %d shards, the cap is %d", len(m.Shards), maxShards)
	}
	var next uint64
	for i, s := range m.Shards {
		if s.NumRecords < 1 {
			return fmt.Errorf("cluster: shard %d holds no records", i)
		}
		if s.FirstRecord != next {
			return fmt.Errorf("cluster: shard %d starts at record %d, want %d (shards must tile the record space contiguously)",
				i, s.FirstRecord, next)
		}
		next = s.End()
	}
	return nil
}

// NumRecords returns the total record count across all shards.
func (m Manifest) NumRecords() uint64 {
	if len(m.Shards) == 0 {
		return 0
	}
	return m.Shards[len(m.Shards)-1].End()
}

// Locate maps a global record index to its owning (shard, local index)
// pair. Shards are contiguous and ordered, so this is a linear walk —
// shard counts are small (machines, not records).
func (m Manifest) Locate(global uint64) (shard int, local uint64, err error) {
	for i, s := range m.Shards {
		if global >= s.FirstRecord && global < s.End() {
			return i, global - s.FirstRecord, nil
		}
	}
	return 0, 0, fmt.Errorf("cluster: index %d outside sharded database of %d records", global, m.NumRecords())
}

// Ranges carves numRecords into shards contiguous row ranges: every
// shard gets ⌊N/S⌋ records and the first N%S shards one extra, so sizes
// differ by at most one and the last shard is the ragged (smallest) one
// when N is not divisible by S. Returns the per-shard record counts.
func Ranges(numRecords uint64, shards int) ([]uint64, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d must be ≥ 1", shards)
	}
	if numRecords < uint64(shards) {
		return nil, fmt.Errorf("cluster: cannot split %d records into %d shards (every shard needs ≥ 1 record)",
			numRecords, shards)
	}
	base, rem := numRecords/uint64(shards), numRecords%uint64(shards)
	out := make([]uint64, shards)
	for i := range out {
		out[i] = base
		if uint64(i) < rem {
			out[i]++
		}
	}
	return out, nil
}
